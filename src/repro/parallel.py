"""Process fan-out for independent work items, with supervised execution.

Every sweep/Monte-Carlo layer in the repo funnels its independent work
through this module:

* :func:`supervised_map` — the fan-out engine: one
  :class:`~repro.resilience.Outcome` per item (ok / failed, with the
  captured exception, attempt count and worker pid), governed by a
  :class:`~repro.resilience.RunPolicy` (retries with exponential
  backoff, on-failure action).  With
  ``policy=None`` it has :func:`parallel_map` semantics, so the Session
  fan-out (:meth:`~repro.spice.session.Session.run_many`,
  :func:`~repro.spice.session.run_plans`) and the experiment registry
  make one call either way and only unwrap the outcomes differently.
* :func:`parallel_map` — the plain map over that engine: results in item
  order, first work-function exception re-raised unchanged.  Pool
  *infrastructure* failures (un-picklable payloads, an unspawnable
  pool, a worker death) degrade gracefully without re-running completed
  work; a genuine exception raised by ``func`` propagates — it is never
  masked by a silent serial re-run.

Failure taxonomy (the fix for the old over-broad fallback): a pool
worker runs each attempt through an *envelope* that returns the work
function's exception as data, so any exception raised by the future
itself is pool infrastructure by construction — payload/result
pickling, or a broken pool.  Infrastructure failures fall back to
in-process execution **for the affected items only** (counted in
``STATS.serial_fallbacks``); a mid-run ``BrokenProcessPool`` keeps every
completed item, finishes **only the unfinished items** (and pending
retries) in-process, and warns once naming the cause.

Worker-count resolution: an explicit ``max_workers`` wins; otherwise the
``REPRO_WORKERS`` environment variable; otherwise serial.  ``0`` (or any
non-positive count) means "all cores".  Serial-by-default keeps test
runs and single-core CI deterministic-by-construction and free of pool
startup cost; batch jobs opt in with ``REPRO_WORKERS=0`` (or a count).

Deterministic fault injection (:mod:`repro.faultinject`) is consulted
only when a caller passes an explicit policy to :func:`supervised_map`
(or uses :func:`~repro.resilience.supervised_call` directly), so a
standing ``REPRO_FAULTS`` plan can never perturb policy-free traffic.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
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
    """Resolve a worker count: argument, else REPRO_WORKERS, else 1."""
    if max_workers is None:
        raw = os.environ.get("REPRO_WORKERS", "").strip()
        if not raw:
            return 1
        try:
            max_workers = int(raw)
        except ValueError:
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


#: The compatibility policy :func:`parallel_map` supervises under:
#: legacy semantics exactly — no retries, first work failure re-raised.
_COMPAT_POLICY = RunPolicy(on_failure="raise")


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
        self.outcomes: List[Optional[Outcome]] = [None] * len(work)
        self.t0 = [None] * len(work)  # first-submission clock per item
        self.retry_next: List = []  # (index, attempt, error) of this wave

    # -- shared finalization -------------------------------------------
    def _wall(self, index: int) -> float:
        t0 = self.t0[index]
        return 0.0 if t0 is None else time.perf_counter() - t0

    def _handle_envelope(self, envelope: dict, index: int, attempt: int) -> None:
        """File one worker attempt: ok, a retry for the next wave, or a
        terminal failure."""
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
            traceback=envelope.get("traceback", ""),
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
                        self.fault_spec,
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

    Outcomes come back in item order.  With ``policy=None`` the
    compatibility policy applies (no retries, first work failure
    re-raised — exactly :func:`parallel_map`) and fault injection is
    disarmed; with an explicit policy, failures become
    per-item records per the policy's on-failure action and the active
    :mod:`repro.faultinject` plan is honoured.

    Semantics are identical for serial and fanned execution (the
    fault-injection suite pins this): retries and backoff always run in
    the submitting process, a worker runs exactly one attempt per
    submission, and the resilience counters (``retries``,
    ``worker_failures``, ``serial_fallbacks``) move the same way on both
    paths.  The only pool-specific events are a real
    ``BrokenProcessPool`` (completed items are kept; the unfinished ones
    finish in-process without being charged an attempt, counted as one
    worker failure and one serial fallback) and per-item payload/result
    pickling failures (finished in-process, counted as serial
    fallbacks).
    """
    armed = policy is not None
    policy = policy if policy is not None else _COMPAT_POLICY
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

    # Compat mode stays span-silent: parallel_map's serial fast path
    # never traced, and fanned-vs-serial trace equality is a pinned
    # contract of the telemetry suite.
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


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    max_workers: Optional[int] = None,
) -> List[R]:
    """Map ``func`` over ``items``, fanning out across processes.

    Results come back in item order, exactly as ``[func(i) for i in
    items]`` would produce them — parallelism never changes the answer,
    only the wall clock.  Pool-infrastructure failures degrade to
    in-process execution (completed items are never re-run); a genuine
    error *raised by func* re-raises unchanged — it is never masked by
    a serial re-run of expensive (or side-effectful) work.
    """
    work: Sequence[T] = list(items)
    workers = min(resolve_workers(max_workers), len(work))
    if workers <= 1 or len(work) <= 1:
        return [func(item) for item in work]
    outcomes = supervised_map(func, work, policy=None, max_workers=workers)
    return [outcome.value for outcome in outcomes]


# ----------------------------------------------------------------------
# Worker telemetry (ship-and-merge, like the Session solved-point cache)
# ----------------------------------------------------------------------

@contextmanager
def worker_telemetry(trace_detail: Optional[str] = None):
    """Capture a work item's telemetry into a picklable box.

    Wrap the body of a fan-out work function with this and ship the
    yielded ``box`` home in the payload; the submitting side hands it
    to :func:`absorb_worker_telemetry`.  The box records the
    worker ``pid``, the :data:`repro.spice.stats.STATS` counter movement
    of the block (``stats``), and — when ``trace_detail`` is given
    (pass the parent tracer's ``detail`` at submission time) — the
    block's exported trace ``spans``.  A fresh tracer is installed for
    the block even when the work runs in-process (the serial
    fallback), so spans are never double-recorded: the parent sees them
    only via the graft.
    """
    from .spice.stats import STATS
    from .telemetry import tracer as _tele

    box: Dict[str, object] = {"pid": os.getpid()}
    before = STATS.snapshot()
    try:
        if trace_detail is not None:
            with _tele.tracing(detail=trace_detail) as tracer:
                yield box
            box["spans"] = tracer.export()
        else:
            yield box
    finally:
        box["stats"] = STATS.delta_since(before)


def absorb_worker_telemetry(box: Optional[Dict[str, object]]) -> None:
    """Merge a :func:`worker_telemetry` box into this process.

    The STATS delta is merged only when the box came from *another*
    process — the serial fallback runs the work function in-process,
    where its increments already landed on this STATS singleton, and
    merging the shipped delta on top would double-count (exactly the
    bug this pid guard exists for).  Spans are grafted unconditionally:
    the capture tracer hid the parent tracer even in-process, so the
    graft is the only way they arrive.
    """
    if not box:
        return
    from .spice.stats import STATS
    from .telemetry import tracer as _tele

    if box.get("pid") != os.getpid():
        STATS.merge(box.get("stats", {}))
    trc = _tele.ACTIVE
    spans = box.get("spans")
    if trc is not None and spans:
        trc.graft(spans, worker_pid=box.get("pid"))
