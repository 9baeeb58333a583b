"""Global solver instrumentation counters.

A single process-wide :class:`SolverStats` accumulator that the MNA
assembler and the Newton solver update as they run.  The CLI's
``--bench`` mode resets it before an experiment and prints the snapshot
afterwards, so every benchmark ships with the iteration/factorization
trajectory that produced its wall time.

The counters are plain int increments on a singleton — cheap enough to
leave permanently enabled (the hot loops they instrument each do an
``N x N`` matrix operation per increment).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Union


@dataclass
class SolverStats:
    """Counters accumulated across all solves since the last reset."""

    #: Completed Newton runs (one per DC solve attempt / transient step).
    newton_solves: int = 0
    #: Newton iterations (full Jacobian assembly + linear solve each).
    iterations: int = 0
    #: Fresh LU/splu factorizations.
    factorizations: int = 0
    #: Iterations advanced on a stale (reused) factorization.
    lu_reuses: int = 0
    #: Residual-only assemblies (line-search probes, reuse probes).
    residual_evaluations: int = 0
    #: Full (J, F) assemblies.
    compiled_assemblies: int = 0
    #: Factorizations routed to scipy.sparse ``splu`` (above the size
    #: threshold) rather than dense LAPACK LU.
    sparse_factorizations: int = 0
    #: Vectorized device-group evaluation passes (one per group per
    #: residual/Jacobian assembly through the grouped fast path).
    group_evals: int = 0
    #: Devices evaluated through the grouped path, cumulative (the
    #: per-element scalar dispatch these passes replaced).
    grouped_device_evals: int = 0
    #: Assemblies that returned a ``scipy.sparse`` Jacobian (the
    #: never-densify mode above the sparse threshold).
    sparse_assemblies: int = 0
    #: Jacobian format conversions paid on the way into ``splu`` (a
    #: dense scan into CSC, or a CSR->CSC reconversion).  The CSC
    #: end-to-end pipeline keeps this at zero for sparse-assembled
    #: systems; any increment means a matrix was built in the wrong
    #: format and re-walked per factorization.
    sparse_conversions: int = 0
    #: Complex linear solves of the AC subsystem (one per frequency).
    ac_solves: int = 0
    #: Complex ``G + jwC`` factorizations taken by the AC subsystem.
    ac_factorizations: int = 0
    #: AC solves served by a reused factorization (purely resistive
    #: sweeps factor once for the whole frequency grid).
    ac_factor_reuses: int = 0
    #: Session solved-point cache: exact hits (a previously solved
    #: identical point returned with no Newton run at all).
    op_cache_hits: int = 0
    #: Session solved-point cache: solves warm-started from the nearest
    #: cached point — the ones that skip the cold gain-stepping ladder.
    op_cache_warm_starts: int = 0
    #: Session solved-point cache: cold solves (no usable cached point).
    op_cache_misses: int = 0
    #: Analysis plans executed through ``Session.run``.
    session_plans: int = 0
    #: Supervised work items re-attempted after a retryable failure
    #: (one increment per retry attempt, parent-side — identical for
    #: serial and fanned execution).
    retries: int = 0
    #: Supervised work items that exceeded their ``RunPolicy`` deadline
    #: (counted per expiry, so a timeout that is then retried and times
    #: out again counts twice).
    timeouts: int = 0
    #: Worker-process deaths observed by the supervised layer: one per
    #: ``BrokenProcessPool`` event, plus one per simulated/injected
    #: :class:`~repro.errors.WorkerCrash`.
    worker_failures: int = 0
    #: Times the parallel layer abandoned a process pool and fell back
    #: to in-process serial execution (unspawnable pool, un-picklable
    #: payload/result, or pool-rebuild budget exhausted).
    serial_fallbacks: int = 0
    #: Persistent cache store (:mod:`repro.serve.cachestore`): store
    #: files opened and read into a session's solved-point cache.
    op_store_loads: int = 0
    #: Solved points merged from a disk store into an in-memory cache
    #: (warm starts that survived a process death).
    op_store_points_loaded: int = 0
    #: Store flushes (session close, job completion, server shutdown).
    op_store_flushes: int = 0
    #: Solved points newly appended to a disk store by flushes.
    op_store_points_written: int = 0
    #: Corrupt store records tolerated (skipped, never a crash): bad
    #: header, truncated tail line, garbage JSON.  A clean store keeps
    #: this at zero.
    op_store_corrupt_records: int = 0
    #: Job server: jobs accepted by ``POST /jobs``.
    serve_jobs_submitted: int = 0
    #: Job server: jobs rejected before any solve by the ``PlanError``
    #: validation boundary (HTTP 400).
    serve_jobs_rejected: int = 0
    #: Job server: jobs that finished with a result payload.
    serve_jobs_completed: int = 0
    #: Job server: jobs that terminally failed under their run policy.
    serve_jobs_failed: int = 0
    #: Successful DC strategies, keyed by ``RawSolution.strategy``.
    strategies: Dict[str, int] = field(default_factory=dict)

    def record_strategy(self, name: str) -> None:
        self.strategies[name] = self.strategies.get(name, 0) + 1

    def reset(self) -> None:
        """Zero every counter (field-driven, so new counters can't be
        forgotten here)."""
        for spec in fields(self):
            if spec.name == "strategies":
                self.strategies = {}
            else:
                setattr(self, spec.name, 0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every counter."""
        out: Dict[str, object] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = dict(value) if isinstance(value, dict) else value
        return out

    def snapshot(self) -> Dict[str, object]:
        """Alias of :meth:`as_dict`, named for delta bookkeeping."""
        return self.as_dict()

    def delta_since(self, baseline: Mapping[str, object]) -> Dict[str, object]:
        """Counter movement since a :meth:`snapshot` (every field, zeros
        included — use the telemetry span deltas for the sparse form)."""
        delta: Dict[str, object] = {}
        for name, value in self.as_dict().items():
            base = baseline.get(name, 0)
            if isinstance(value, dict):
                keys = set(value) | set(base)
                delta[name] = {
                    k: value.get(k, 0) - base.get(k, 0) for k in sorted(keys)
                }
            else:
                delta[name] = value - base
        return delta

    def merge(self, other: Union["SolverStats", Mapping[str, object]]) -> None:
        """Add another accumulator's counters (or an ``as_dict``-shaped
        mapping, e.g. a worker's shipped delta) into this one."""
        data = other.as_dict() if isinstance(other, SolverStats) else other
        for spec in fields(self):
            incoming = data.get(spec.name)
            if incoming is None:
                continue
            if spec.name == "strategies":
                for key, count in incoming.items():
                    self.strategies[key] = self.strategies.get(key, 0) + count
            else:
                setattr(self, spec.name, getattr(self, spec.name) + incoming)


#: The process-wide accumulator.
STATS = SolverStats()
