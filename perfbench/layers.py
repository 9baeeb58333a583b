"""Outside-in per-layer timing for the traced benchmark run.

The benchmark never edits the engine.  Instead, for the traced run only,
it replaces each layer's public entry points (module functions and
class methods) with a thin wrapper that records a span: the layer name,
its duration, and how much of that duration its child spans covered.
A layer's *self* time is its span minus its children; *busy* time is
the whole span.  Spans are kept per thread (the HTTP service runs
handler and worker threads) as running totals rather than a span list,
so memory stays flat however long the run is.

A layer already open on the calling thread is not re-entered: a nested
call of the same layer (``Session.run`` -> ``Session.solve_raw``,
``Session.__init__`` -> ``MNASystem.__init__``) counts once, inside the
outer span.

Counts come from the program's own public counters — the process-wide
``STATS`` for in-process workloads, a ``/metrics`` scrape for the
service — and are combined with the span totals in
:func:`engine_layer_metrics`.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional

#: Per-layer metrics the traced run reports, with their units (the
#: ``per_layer`` entries of ``BENCHMARK.json``).  Busy and self times
#: are shares of the traced wall time ``trace.wall_s``, so they compare
#: across commits whose traced runs complete different op counts;
#: ``serve.*_frac`` split the clients' job latency.
PER_LAYER_METRICS = (
    ("parser.calls", "count"),
    ("parser.busy_frac", "ratio"),
    ("circuits.build_busy_frac", "ratio"),
    ("mna.build_busy_frac", "ratio"),
    ("mna.unknowns", "count"),
    ("mna.assemble_calls", "count"),
    ("mna.assemble_busy_frac", "ratio"),
    ("mna.residual_calls", "count"),
    ("mna.residual_busy_frac", "ratio"),
    ("mna.residual_per_iteration", "ratio"),
    ("devices.scalar_calls", "count"),
    ("devices.scalar_busy_frac", "ratio"),
    ("devices.grouped_calls", "count"),
    ("devices.grouped_busy_frac", "ratio"),
    ("solver.factor_calls", "count"),
    ("solver.factor_busy_frac", "ratio"),
    ("solver.lu_reuse_ratio", "ratio"),
    ("solver.backsolve_busy_frac", "ratio"),
    ("solver.newton_calls", "count"),
    ("solver.newton_self_frac", "ratio"),
    ("solver.iterations_per_solve", "ratio"),
    ("solver.us_per_iteration", "us"),
    ("solver.ladder_rungs", "ratio"),
    ("transient.busy_frac", "ratio"),
    ("transient.accept_ratio", "ratio"),
    ("ac.busy_frac", "ratio"),
    ("ac.factor_reuse_ratio", "ratio"),
    ("session.run_self_frac", "ratio"),
    ("session.cache_hit_ratio", "ratio"),
    ("cachestore.load_busy_frac", "ratio"),
    ("cachestore.absorb_calls", "count"),
    ("cachestore.absorb_busy_frac", "ratio"),
    ("cachestore.corrupt_records", "count"),
    ("serve.submit_busy_frac", "ratio"),
    ("serve.rejected", "count"),
    ("serve.queue_wait_frac", "ratio"),
    ("serve.execute_frac", "ratio"),
    ("serve.http_overhead_frac", "ratio"),
    ("serve.encode_busy_frac", "ratio"),
    ("serve.cross_topology_failures", "count"),
    ("resilience.retries", "count"),
    ("unattributed_frac", "ratio"),
    ("trace.ops", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class _ThreadState:
    """One thread's open-span stack and running totals."""

    __slots__ = ("name", "stack", "open", "layers", "root_s", "extra")

    def __init__(self, name: str):
        self.name = name
        #: Open spans, innermost last: ``[layer, child_seconds]``.
        self.stack: List[list] = []
        self.open: Dict[str, bool] = {}
        #: layer -> [calls, busy_s, self_s]
        self.layers: Dict[str, List[float]] = {}
        #: Time covered by this thread's outermost spans.
        self.root_s = 0.0
        #: Hook-collected figures (Newton runs per DC solve, ...).
        self.extra: Dict[str, float] = {}


class LayerRecorder:
    """Installs span wrappers and accumulates per-thread span totals."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[tuple] = []
        #: Wrappers pass straight through while False (result checks
        #: run with the wrappers installed but must not be counted).
        self.active = False

    # -- recording -----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, layer: str, fn: Callable, enter=None, leave=None) -> Callable:
        """``fn`` recorded as a ``layer`` span.

        ``enter()`` runs before the call and its return value is handed
        to ``leave(extra, token, args, result)`` after a successful
        call; hooks derive counts that belong to the span (the Newton
        runs of one DC solve, the unknowns of one built system).
        """
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            state = recorder._state()
            if state.open.get(layer):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            state.stack.append(frame)
            state.open[layer] = True
            token = enter() if enter is not None else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                state.stack.pop()
                state.open[layer] = False
                totals = state.layers.get(layer)
                if totals is None:
                    totals = state.layers[layer] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[1]
                if state.stack:
                    state.stack[-1][1] += elapsed
                else:
                    state.root_s += elapsed
            if leave is not None:
                leave(state.extra, token, args, result)
            return result

        return span

    def patch(self, owner, name: str, layer: str, enter=None, leave=None) -> None:
        """Replace ``owner.name`` (a module function or class method)
        with its recorded wrapper until :meth:`uninstall`."""
        own = name in vars(owner)
        original = getattr(owner, name)
        self._patches.append((owner, name, original, own))
        setattr(owner, name, self.wrap(layer, original, enter, leave))

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)  # inherited: uncover the base again
        self._patches.clear()

    # -- reading -------------------------------------------------------
    def totals(self, thread_prefix: Optional[str] = None) -> Dict[str, object]:
        """Summed span totals over every thread (or those whose name
        starts with ``thread_prefix``)."""
        layers: Dict[str, List[float]] = {}
        extra: Dict[str, float] = {}
        root_s = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            if thread_prefix is not None and not state.name.startswith(thread_prefix):
                continue
            root_s += state.root_s
            for layer, (calls, busy, own) in state.layers.items():
                acc = layers.setdefault(layer, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += busy
                acc[2] += own
            for key, value in state.extra.items():
                extra[key] = extra.get(key, 0.0) + value
        return {"layers": layers, "extra": extra, "root_s": root_s}


# ----------------------------------------------------------------------
# The engine's layer entry points
# ----------------------------------------------------------------------

def install_engine_layers(recorder: LayerRecorder) -> None:
    """Wrap the public entry points of every engine layer.

    Functions imported by name into another module are patched in each
    module that calls them, so every call path is recorded.
    """
    from repro.serve import cachestore, jobs
    from repro.spice import ac, groups, mna, parser, session, solver, transient
    from repro.spice.elements.bjt import SpiceBJT
    from repro.spice.elements.diode import Diode
    from repro.spice.stats import STATS

    def counter_snapshot():
        return STATS.newton_solves, STATS.iterations

    def dc_solve_counts(extra, token, _args, _result):
        runs, iterations = token
        extra["dc_solves"] = extra.get("dc_solves", 0) + 1
        extra["dc_newton_runs"] = extra.get("dc_newton_runs", 0) + STATS.newton_solves - runs
        extra["dc_iterations"] = extra.get("dc_iterations", 0) + STATS.iterations - iterations

    def built_unknowns(extra, _token, args, _result):
        owner = args[0]
        size = owner.size if isinstance(owner, mna.MNASystem) else owner.system.size
        extra["built_systems"] = extra.get("built_systems", 0) + 1
        extra["built_unknowns"] = extra.get("built_unknowns", 0) + size

    def transient_steps(extra, _token, _args, result):
        extra["tran_accepted"] = extra.get("tran_accepted", 0) + result.accepted_steps
        extra["tran_attempts"] = (
            extra.get("tran_attempts", 0)
            + result.accepted_steps + result.rejected_lte + result.newton_retries
        )

    recorder.patch(parser, "parse_netlist", "parser")
    recorder.patch(jobs, "parse_netlist", "parser")
    recorder.patch(session.Session, "__init__", "mna.build", leave=built_unknowns)
    recorder.patch(mna.MNASystem, "__init__", "mna.build", leave=built_unknowns)
    recorder.patch(mna.MNASystem, "assemble", "mna.assemble")
    recorder.patch(mna.MNASystem, "assemble_residual", "mna.residual")
    recorder.patch(SpiceBJT, "stamp", "devices.scalar")
    recorder.patch(Diode, "stamp", "devices.scalar")
    for group in (groups.BJTGroup, groups.DiodeGroup):
        recorder.patch(group, "stamp_residual", "devices.grouped")
        recorder.patch(group, "stamp_full", "devices.grouped")
    recorder.patch(solver.NewtonWorkspace, "factor", "solver.factor")
    recorder.patch(solver.NewtonWorkspace, "solve", "solver.backsolve")
    for module in (solver, session, ac):
        recorder.patch(
            module, "solve_dc_system", "solver.newton",
            enter=counter_snapshot, leave=dc_solve_counts,
        )
    for module in (transient, session):
        recorder.patch(module, "run_transient_system", "transient", leave=transient_steps)
    recorder.patch(ac.ACSystem, "__init__", "ac")
    recorder.patch(ac.ACSystem, "solve", "ac")
    recorder.patch(session.Session, "run", "session")
    recorder.patch(session.Session, "solve_raw", "session")
    for result_cls in (
        session.OPResult,
        session.DCSweepResult,
        session.TempSweepResult,
        session.ACSweepResult,
        session.TransientRunResult,
    ):
        recorder.patch(result_cls, "to_dict", "serve.encode")
    recorder.patch(cachestore.CacheStore, "load", "cachestore.load")
    recorder.patch(cachestore.CacheStore, "absorb", "cachestore.absorb")
    recorder.patch(jobs.JobService, "submit", "serve.submit")


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def engine_layer_metrics(
    totals: Dict[str, object], counters: Dict[str, float], wall_s: float
) -> Dict[str, float]:
    """Per-layer metrics from span totals plus a counter delta.

    ``counters`` is a ``SolverStats``-named delta over the traced
    window (``STATS`` directly, or parsed from ``/metrics``); busy and
    self times are reported as shares of ``wall_s``.
    """
    layers = totals["layers"]
    extra = totals["extra"]

    def calls(layer):
        return layers.get(layer, (0, 0.0, 0.0))[0]

    def busy(layer):
        return layers.get(layer, (0, 0.0, 0.0))[1]

    def own(layer):
        return layers.get(layer, (0, 0.0, 0.0))[2]

    def share(seconds):
        return seconds / wall_s

    iterations = counters.get("iterations", 0)
    factorizations = counters.get("factorizations", 0)
    lu_reuses = counters.get("lu_reuses", 0)
    cache_lookups = (
        counters.get("op_cache_hits", 0)
        + counters.get("op_cache_warm_starts", 0)
        + counters.get("op_cache_misses", 0)
    )
    dc_iterations = extra.get("dc_iterations", 0)
    dc_solves = extra.get("dc_solves", 0)  # the converged ones
    return {
        "parser.calls": calls("parser"),
        "parser.busy_frac": share(busy("parser")),
        "circuits.build_busy_frac": share(busy("circuits.build")),
        "mna.build_busy_frac": share(busy("mna.build")),
        "mna.unknowns": _ratio(extra.get("built_unknowns", 0), extra.get("built_systems", 0)),
        "mna.assemble_calls": calls("mna.assemble"),
        "mna.assemble_busy_frac": share(busy("mna.assemble")),
        "mna.residual_calls": calls("mna.residual"),
        "mna.residual_busy_frac": share(busy("mna.residual")),
        "mna.residual_per_iteration": _ratio(counters.get("residual_evaluations", 0), iterations),
        "devices.scalar_calls": calls("devices.scalar"),
        "devices.scalar_busy_frac": share(busy("devices.scalar")),
        "devices.grouped_calls": calls("devices.grouped"),
        "devices.grouped_busy_frac": share(busy("devices.grouped")),
        "solver.factor_calls": calls("solver.factor"),
        "solver.factor_busy_frac": share(busy("solver.factor")),
        "solver.lu_reuse_ratio": _ratio(lu_reuses, factorizations + lu_reuses),
        "solver.backsolve_busy_frac": share(busy("solver.backsolve")),
        "solver.newton_calls": calls("solver.newton"),
        "solver.newton_self_frac": share(own("solver.newton")),
        "solver.iterations_per_solve": _ratio(dc_iterations, dc_solves),
        "solver.us_per_iteration": 1e6 * _ratio(busy("solver.newton"), dc_iterations),
        "solver.ladder_rungs": _ratio(extra.get("dc_newton_runs", 0), dc_solves),
        "transient.busy_frac": share(busy("transient")),
        "transient.accept_ratio": _ratio(extra.get("tran_accepted", 0), extra.get("tran_attempts", 0)),
        "ac.busy_frac": share(busy("ac")),
        "ac.factor_reuse_ratio": _ratio(counters.get("ac_factor_reuses", 0), counters.get("ac_solves", 0)),
        "session.run_self_frac": share(own("session")),
        "session.cache_hit_ratio": _ratio(counters.get("op_cache_hits", 0), cache_lookups),
        "cachestore.load_busy_frac": share(busy("cachestore.load")),
        "cachestore.absorb_calls": calls("cachestore.absorb"),
        "cachestore.absorb_busy_frac": share(busy("cachestore.absorb")),
        "cachestore.corrupt_records": counters.get("op_store_corrupt_records", 0),
        "serve.submit_busy_frac": share(busy("serve.submit")),
        "serve.rejected": counters.get("serve_jobs_rejected", 0),
        "serve.encode_busy_frac": share(busy("serve.encode")),
        "resilience.retries": counters.get("retries", 0),
    }


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after.get(key, 0) - before.get(key, 0) for key in after}


def stats_counters() -> Dict[str, float]:
    """The in-process ``STATS`` scalar counters."""
    from repro.spice.stats import STATS

    return {
        key: value
        for key, value in STATS.as_dict().items()
        if not isinstance(value, dict)
    }


def parse_metrics(text: str) -> Dict[str, float]:
    """``repro_<counter>_total`` lines of a ``/metrics`` scrape, keyed by
    the ``SolverStats`` counter name."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        if name.startswith("repro_") and name.endswith("_total"):
            out[name[len("repro_"):-len("_total")]] = float(value)
    return out
