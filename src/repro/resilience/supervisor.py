"""The supervised-attempt engine shared by serial and fanned execution.

One code path owns the semantics — attempt numbering, fault injection,
retry classification, exponential backoff, STATS accounting, retry
telemetry — and two transports reuse it:
:func:`supervised_call` runs a thunk in-process (the serial path and
a served job's attempts), while
:func:`repro.parallel.supervised_map` ships single attempts into pool
workers via :func:`attempt_in_worker` and feeds the failures back
through the same classification helpers.

Retries always happen in the *submitting* process: a pool worker runs
exactly one attempt per submission and returns an envelope (result or
captured exception, its pid, and the attempt's telemetry), so attempt
counts, backoff sleeps and the ``retries``/``worker_failures`` counters
are identical for serial and fanned execution — the property the
fault-injection suite pins.

Lazy imports of ``STATS`` and the telemetry tracer keep this module out
of the ``repro.spice`` import graph (same convention as
:mod:`repro.parallel`).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Any, Callable, Optional

from .. import faultinject
from ..errors import WorkerCrash
from .outcome import FAILED, OK, Outcome, capture_error
from .policy import RunPolicy


def _stats():
    from ..spice.stats import STATS

    return STATS


def _tracer():
    from ..telemetry import tracer as _tele

    return _tele.ACTIVE


def record_retry(
    policy: RunPolicy, index: int, attempt: int, reason: BaseException
) -> None:
    """Account one retry decision: counter, telemetry span, backoff.

    ``attempt`` is the attempt that just failed; the backoff precedes
    attempt + 1.  The ``retry`` span wraps the backoff sleep, so its
    duration is the recovery latency the policy injected.
    """
    _stats().retries += 1
    backoff = policy.backoff_for(attempt)
    trc = _tracer()
    if trc is not None:
        with trc.span(
            "retry",
            item=index,
            attempt=attempt + 1,
            backoff_s=backoff,
            reason=type(reason).__name__,
        ):
            policy.do_sleep(backoff)
    else:
        policy.do_sleep(backoff)


def count_failure(error: BaseException) -> None:
    """Account one failed attempt's STATS movement (every failure event
    counts, retried or terminal — the counters measure recovery
    activity, not just final state)."""
    if isinstance(error, WorkerCrash):
        _stats().worker_failures += 1


def supervised_call(
    thunk: Callable[[], Any],
    index: int = 0,
    policy: Optional[RunPolicy] = None,
    fault_spec: Optional[str] = "__active__",
    start_attempt: int = 1,
) -> Outcome:
    """Run one thunk under a policy; returns its :class:`Outcome`.

    The in-process supervised primitive: consults the fault plan before
    each attempt (``fault_spec`` defaults to the active plan; pass
    ``None`` to disarm injection, as a policy-free map does),
    retries retryable failures with backoff, and records the terminal
    result.  ``on_failure="raise"`` re-raises the original exception
    after the retry budget is spent.  ``start_attempt`` lets the pool
    supervisor hand an item over mid-retry-budget without resetting its
    attempt count.
    """
    policy = policy or RunPolicy()
    if fault_spec == "__active__":
        fault_spec = faultinject.active_spec()
    t0 = time.perf_counter()
    attempt = start_attempt
    while True:
        try:
            if fault_spec is not None:
                faultinject.check(index, attempt, spec=fault_spec)
            value = thunk()
            return Outcome(
                index=index,
                status=OK,
                value=value,
                attempts=attempt,
                worker_pid=os.getpid(),
                wall_s=time.perf_counter() - t0,
            )
        except Exception as exc:
            count_failure(exc)
            if policy.is_retryable(exc) and attempt < policy.max_attempts:
                record_retry(policy, index, attempt, exc)
                attempt += 1
                continue
            if policy.on_failure == "raise":
                raise
            return Outcome(
                index=index,
                status=FAILED,
                error=capture_error(exc),
                attempts=attempt,
                worker_pid=os.getpid(),
                wall_s=time.perf_counter() - t0,
            )


def attempt_in_worker(payload) -> dict:
    """One supervised attempt, pool-worker side: an envelope, never a raise.

    ``payload`` is ``(func, item, index, attempt, fault_spec,
    trace_detail)``.  The work function's exception comes home *inside*
    the envelope (pickled when possible, a :class:`CapturedFailure`
    stand-in otherwise), so any exception raised by the future itself
    is — by construction — pool infrastructure: payload/result pickling
    or a broken pool.  That is what lets the supervisor classify
    failures without guessing from exception types.

    The envelope also carries the attempt's telemetry, ok or failed:
    ``stats``, this process's STATS movement during the attempt, and
    ``spans``, the attempt's span tree recorded at ``trace_detail``
    (the submitter's tracer detail, or None when it is not tracing —
    then no tracer runs here and no spans ship).
    """
    from ..telemetry.tracer import tracing

    func, item, index, attempt, fault_spec, trace_detail = payload
    stats = _stats()
    before = stats.snapshot()
    envelope = {"pid": os.getpid()}
    capture = nullcontext() if trace_detail is None else tracing(trace_detail)
    with capture as tracer:
        try:
            if fault_spec is not None:
                faultinject.check(index, attempt, spec=fault_spec, in_worker=True)
            envelope.update(ok=True, value=func(item))
        except Exception as exc:
            envelope.update(ok=False, error=capture_error(exc))
    envelope["stats"] = stats.delta_since(before)
    if tracer is not None:
        envelope["spans"] = tracer.export()
    return envelope


__all__ = [
    "attempt_in_worker",
    "count_failure",
    "record_retry",
    "supervised_call",
]
