"""Process fan-out for independent work items, with supervised execution.

:func:`supervised_map` is the one fan-out path; the experiment
registry (:func:`~repro.experiments.registry.run_experiments`) makes
its one production call.  It returns one
:class:`~repro.resilience.Outcome` per item (ok / failed, with the
captured exception, attempt count and worker pid), governed by a
:class:`~repro.resilience.RunPolicy` (retries with exponential
backoff, on-failure action).  With ``policy=None`` it is a plain map:
no retries, the first work-function exception re-raised unchanged,
fault injection disarmed and no span of its own.

Failure taxonomy: a pool worker runs each attempt through an
*envelope* that returns the work function's exception as data, so any
exception raised by the future itself is pool infrastructure by
construction — payload/result pickling, or a broken pool.
Infrastructure failures fall back to in-process execution **for the
affected items only** (counted in ``STATS.serial_fallbacks``); a
mid-run ``BrokenProcessPool`` keeps every completed item, finishes
**only the unfinished items** (and pending retries) in-process, and
warns once naming the cause.  A genuine exception raised by ``func`` is
never masked by a silent serial re-run.

Telemetry crosses the process boundary in the same envelope and
nowhere else: each worker attempt, ok or failed, ships its
:data:`~repro.spice.stats.STATS` movement and — when the submitter is
tracing — its span tree at the submitter's detail.  The supervisor
merges the counters into this process and grafts the spans (tagged
``worker_pid``) under the submitter's current span.  In-process
execution (the serial path and every serial fallback) records straight
into this process and captures nothing, so every attempt's counters
and spans are reported exactly once, fanned or serial.

Worker counts are explicit: ``max_workers=None`` runs serially, a
positive count sizes the pool, and ``0`` (or any non-positive count)
means every core.  Serial-by-default keeps test runs and single-core
CI deterministic by construction and free of pool startup cost.

Deterministic fault injection (:mod:`repro.faultinject`) is consulted
only when a caller passes an explicit policy to :func:`supervised_map`
(or uses :func:`~repro.resilience.supervised_call` directly), so a
standing ``REPRO_FAULTS`` plan can never perturb policy-free traffic.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from . import faultinject
from .resilience.outcome import FAILED, OK, Outcome
from .resilience.policy import RunPolicy
from .resilience.supervisor import (
    attempt_in_worker,
    count_failure,
    record_retry,
    supervised_call,
)

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """Resolve a worker count: None is serial, non-positive is every core."""
    if max_workers is None:
        return 1
    if max_workers <= 0:
        return os.cpu_count() or 1
    return max_workers


def _stats():
    from .spice.stats import STATS

    return STATS


def _tracer():
    from .telemetry import tracer as _tele

    return _tele.ACTIVE


#: The policy a policy-free :func:`supervised_map` runs under: no
#: retries, first work failure re-raised.
_PLAIN_POLICY = RunPolicy(on_failure="raise")


class _Supervisor:
    """One supervised_map run: the wave loop over a process pool."""

    def __init__(
        self,
        func: Callable,
        work: Sequence,
        policy: RunPolicy,
        workers: int,
        fault_spec: Optional[str],
    ):
        self.func = func
        self.work = work
        self.policy = policy
        self.workers = workers
        self.fault_spec = fault_spec
        trc = _tracer()
        self.trace_detail = None if trc is None else trc.detail
        self.outcomes: List[Optional[Outcome]] = [None] * len(work)
        self.t0 = [None] * len(work)  # first-submission clock per item
        self.retry_next: List = []  # (index, attempt, error) of this wave

    # -- shared finalization -------------------------------------------
    def _wall(self, index: int) -> float:
        t0 = self.t0[index]
        return 0.0 if t0 is None else time.perf_counter() - t0

    def _handle_envelope(self, envelope: dict, index: int, attempt: int) -> None:
        """Merge one worker attempt's telemetry, then file the attempt:
        ok, a retry for the next wave, or a terminal failure."""
        _stats().merge(envelope["stats"])
        trc = _tracer()
        if trc is not None and envelope.get("spans"):
            trc.graft(envelope["spans"], worker_pid=envelope["pid"])
        if envelope["ok"]:
            self.outcomes[index] = Outcome(
                index=index,
                status=OK,
                value=envelope["value"],
                attempts=attempt,
                worker_pid=envelope["pid"],
                wall_s=self._wall(index),
            )
            return
        error = envelope["error"]
        count_failure(error)
        if self.policy.is_retryable(error) and attempt < self.policy.max_attempts:
            self.retry_next.append((index, attempt, error))
            return
        self.outcomes[index] = Outcome(
            index=index,
            status=FAILED,
            error=error,
            attempts=attempt,
            worker_pid=envelope["pid"],
            wall_s=self._wall(index),
        )

    def _serial_fallback(self, pairs) -> None:
        """Finish ``(index, attempt)`` pairs in-process, continuing each
        item's attempt count; counted once per call."""
        _stats().serial_fallbacks += 1
        for index, attempt in pairs:
            item = self.work[index]
            self.outcomes[index] = supervised_call(
                lambda: self.func(item),
                index=index,
                policy=self.policy,
                fault_spec=self.fault_spec,
                start_attempt=attempt,
            )

    # -- the pool wave loop --------------------------------------------
    def run_pool(self) -> None:
        from concurrent.futures import ProcessPoolExecutor

        try:
            pool = ProcessPoolExecutor(max_workers=self.workers)
        except (OSError, ImportError):
            # Cannot spawn at all (sandbox, resource limits): the classic
            # quiet degradation — work is pure, so in-process execution
            # is a correct answer.
            self._serial_fallback([(index, 1) for index in range(len(self.work))])
            return
        try:
            leftover = self._waves(pool)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if leftover:
            self._serial_fallback(leftover)

    def _waves(self, pool) -> List:
        """Submit attempt waves until every item is final.

        Returns the ``(index, attempt)`` pairs still to run when the
        pool died mid-run (empty otherwise): the unfinished items at
        the attempt they lost — a pool death is not the item's fault,
        so it is not charged an attempt — and the retries the dead wave
        had already decided on.
        """
        from concurrent.futures.process import BrokenProcessPool

        todo = [(index, 1) for index in range(len(self.work))]
        while todo:
            futures = []
            broken: Optional[BaseException] = None
            try:
                for index, attempt in todo:
                    if self.t0[index] is None:
                        self.t0[index] = time.perf_counter()
                    payload = (
                        self.func, self.work[index], index, attempt,
                        self.fault_spec, self.trace_detail,
                    )
                    futures.append(
                        (pool.submit(attempt_in_worker, payload), index, attempt)
                    )
            except BrokenProcessPool as exc:
                broken = exc
            self.retry_next = []
            unfinished = todo[len(futures):]
            for future, index, attempt in futures:
                if broken is not None and not future.done():
                    unfinished.append((index, attempt))
                    continue
                try:
                    envelope = future.result()
                except BrokenProcessPool as exc:
                    broken = exc
                    unfinished.append((index, attempt))
                except Exception:
                    # By construction (see attempt_in_worker) this is pool
                    # infrastructure — payload or result could not cross
                    # the pool.  Finish this item in-process; the others
                    # keep their workers.  Once the pool is dead it joins
                    # the unfinished items instead.
                    if broken is None:
                        self._serial_fallback([(index, attempt)])
                    else:
                        unfinished.append((index, attempt))
                else:
                    # Every attempt that finished is kept, even in a wave
                    # the pool died in: completed work is never re-run.
                    self._handle_envelope(envelope, index, attempt)
            for index, attempt, error in self.retry_next:
                record_retry(self.policy, index, attempt, error)
            todo = [(index, attempt + 1) for index, attempt, _err in self.retry_next]
            if broken is not None:
                _stats().worker_failures += 1
                kept = sum(outcome is not None for outcome in self.outcomes)
                warnings.warn(
                    f"process pool died mid-run ({type(broken).__name__}: "
                    f"{broken}); finishing {len(unfinished) + len(todo)} "
                    f"item(s) in-process ({kept} completed item(s) kept)",
                    RuntimeWarning,
                    stacklevel=4,
                )
                return unfinished + todo
        return []


def supervised_map(
    func: Callable[[T], R],
    items: Iterable[T],
    policy: Optional[RunPolicy] = None,
    max_workers: Optional[int] = None,
) -> List[Outcome]:
    """Map ``func`` over ``items`` under supervision; one Outcome each.

    Outcomes come back in item order.  With ``policy=None`` it is a
    plain map (no retries, the first work failure re-raised unchanged,
    fault injection disarmed, no ``supervised_map`` span); with an
    explicit policy, failures become per-item records per the policy's
    on-failure action and the active :mod:`repro.faultinject` plan is
    honoured.  ``max_workers=None`` runs serially, a non-positive count
    uses every core.

    Semantics are identical for serial and fanned execution (the
    fault-injection suite pins this): retries and backoff always run in
    the submitting process, a worker runs exactly one attempt per
    submission, and the resilience counters (``retries``,
    ``worker_failures``, ``serial_fallbacks``) move the same way on both
    paths, as do the solver counters and trace spans of the work (see
    the module docstring).  The only pool-specific events are a real
    ``BrokenProcessPool`` (completed items are kept; the unfinished ones
    finish in-process without being charged an attempt, counted as one
    worker failure and one serial fallback) and per-item payload/result
    pickling failures (finished in-process, counted as serial
    fallbacks).
    """
    armed = policy is not None
    policy = policy if policy is not None else _PLAIN_POLICY
    work: Sequence[T] = list(items)
    fault_spec = faultinject.active_spec() if armed else None
    workers = min(resolve_workers(max_workers), len(work))
    pooled = workers > 1 and len(work) > 1

    def run() -> List[Outcome]:
        if not pooled:
            return [
                supervised_call(
                    lambda item=item: func(item),
                    index=index,
                    policy=policy,
                    fault_spec=fault_spec,
                )
                for index, item in enumerate(work)
            ]
        supervisor = _Supervisor(func, work, policy, workers, fault_spec)
        supervisor.run_pool()
        if policy.on_failure == "raise":
            for outcome in supervisor.outcomes:
                if outcome is not None and not outcome.ok:
                    raise outcome.error
        return supervisor.outcomes

    # A policy-free map stays span-silent, so a fanned batch traces
    # exactly what the serial one does.
    trc = _tracer() if armed else None
    if trc is None:
        return run()
    with trc.span(
        "supervised_map",
        items=len(work),
        workers=workers,
        mode="pool" if pooled else "serial",
    ) as span:
        outcomes = run()
        counts: Dict[str, int] = {}
        for outcome in outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        span.attrs.update(counts)
        return outcomes
