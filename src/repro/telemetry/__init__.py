"""Telemetry: scoped trace spans + metrics exporters for the solver stack.

Quick use::

    from repro import telemetry

    tracer = telemetry.install_tracer()          # detail="full"
    session.run(TempSweep(...))
    telemetry.uninstall_tracer()
    telemetry.write_jsonl(tracer, "trace.jsonl")
    telemetry.write_prometheus("metrics.prom")   # process STATS snapshot
    print(telemetry.summary_tree(tracer))

or from the CLI: ``python -m repro fig8 --trace trace.jsonl --metrics
metrics.prom``.

Span / attribute schema — STABLE CONTRACT
=========================================

The span names, nesting, and attribute keys below are the interface the
future job-server metrics endpoint (ROADMAP item 1) will serve; treat
changes as breaking and version them via ``exporters.TRACE_SCHEMA``
(currently ``repro-trace/1``).

Span tree (indentation = nesting; ``[full]`` marks spans only recorded
at ``detail="full"``)::

    plan                    one Session.run dispatch
    └─ solve                one DC operating point (Session.solve_raw)
       └─ dc_solve [full]   one strategy-ladder walk (solve_dc_system)
          └─ newton_solve [full]   one damped-Newton run
             ├─ assembly [full]        full (J, F) assembly leaf
             └─ factorization [full]   fresh LU/splu factorization leaf
    plan (ACSweep)
    └─ ac_sweep             one frequency sweep (ACSystem.solve)
       └─ ac_point [full]   one complex solve leaf
    plan (Transient)
    └─ transient            one run_transient_system call
       └─ transient_step [full]   one attempted step (accepted or not)
    supervised_map          one supervised fan-out batch
                            (repro.parallel.supervised_map)
    retry                   one retry decision of supervised execution;
                            wraps the backoff sleep, nests under
                            whatever supervised scope is open

Attributes by span:

``plan``
    ``kind`` (plan class name, e.g. ``"TempSweep"``), ``analysis``
    description keys from ``plan.describe()`` where cheap.
``solve``
    ``temperature_k``, ``cache`` (``"hit"`` | ``"warm"`` | ``"miss"`` |
    ``"seeded"`` — the caller supplied ``x0``, bypassing the cache),
    and on misses ``cache_gates`` — a dict naming each gate that
    rejected the warm-start candidates (``"no_candidates"``: cache
    size, ``"temperature_band"``: nearest candidate's |dT| in K,
    ``"value_band"``: candidates rejected over override deltas).
``dc_solve``
    ``strategy`` (``"newton"`` | ``"gain-stepping"`` |
    ``"gmin-stepping"`` | ``"source-stepping"``), ``gain_rungs`` /
    ``gmin_rungs`` / ``source_steps`` when a ladder ran, ``converged``.
``newton_solve``
    ``phase`` (``"predicted"`` — a chained sweep point's secant start,
    tried before ``"plain"`` —, ``"plain"``, ``"gain[k]"``,
    ``"transient"``, ...),
    ``converged``, ``iterations``, and on failure ``reason``
    (``"stagnation"`` | ``"max_iterations"`` | ``"singular_jacobian"``).
    The ``"plain"`` run of a DC solve also carries ``stall_window``, the
    stall window it ran under (a fifth of ``solver.STALL_WINDOW`` on a
    cold start, the full window when seeded or cache-warm).
    Per-iteration records (``Span.iterations``) carry ``i``,
    ``residual`` (the inf-norm of F), ``scaled`` (the same residual in
    tolerance units, ``max(kcl / abstol, branch / vtol)``: the norm a
    stale-LU probe must contract and that, besides ``residual``, a
    line-search rung may lower), ``step``, ``damping``, ``kind``
    (``"factor"`` | ``"reuse"``), and — when the reuse probe declined —
    ``guard`` (``"reuse_limit"`` | ``"step_bound"`` |
    ``"no_contraction"`` | ``"solve_failed"``).  Only iterations that
    take a step write a record, so a converged span's ``iterations``
    attribute (the solver's count, which includes the final convergence
    check) is one more than ``len(iterations)``.
``assembly``
    none.
``factorization``
    ``sparse`` (bool).
``ac_sweep``
    ``points``, ``reused_factor`` (count of solves served by a reused
    factorization).
``ac_point``
    ``frequency_hz``, ``factored`` (bool).
``transient``
    ``method``, ``t_stop_s``; on exit ``accepted_steps``,
    ``rejected_lte``, ``newton_retries``.
``transient_step``
    ``t_s``, ``dt_s``, ``accepted`` (bool), and on rejection ``reason``
    (``"newton"`` | ``"lte"``).
``supervised_map``
    ``items``, ``workers``, ``mode`` (``"pool"`` | ``"serial"``), and on
    exit one count per outcome status seen (``ok`` / ``failed``).
``retry``
    ``item`` (work-item index), ``attempt`` (the attempt the backoff
    precedes), ``backoff_s``, ``reason`` (failed attempt's exception
    type name, e.g. ``"ConvergenceError"``).
``worker_pid``
    set on spans grafted from a fan-out worker.

Counter deltas: every non-leaf span snapshots the process
``repro.spice.stats.STATS`` on entry and stores the non-zero difference
on exit, so sibling deltas sum to their parent's and root deltas sum to
the run's total STATS movement.  Leaf spans skip the snapshot; their
work shows up in the enclosing span.

Prometheus metrics (``prometheus_text``): one
``repro_<counter>_total`` counter per scalar ``SolverStats`` field plus
``repro_dc_strategies_total{strategy="..."}`` — derived from the
dataclass fields, so new counters export automatically.
"""

from .tracer import (
    Span,
    Tracer,
    install_tracer,
    tracing,
    uninstall_tracer,
)
from .exporters import (
    TRACE_SCHEMA,
    prometheus_text,
    read_jsonl,
    summary_tree,
    trace_rows,
    trace_summary,
    write_jsonl,
    write_prometheus,
)

__all__ = [
    "Span",
    "Tracer",
    "TRACE_SCHEMA",
    "install_tracer",
    "prometheus_text",
    "read_jsonl",
    "summary_tree",
    "trace_rows",
    "trace_summary",
    "tracing",
    "uninstall_tracer",
    "write_jsonl",
    "write_prometheus",
]
