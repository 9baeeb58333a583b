"""The :class:`RunPolicy` dataclass: how supervised execution recovers.

A policy is plain declarative data (plus an injectable sleep for
tests).  Its callers are the experiment registry (the CLI's
``--retries``), the job service (a job's wire ``policy``) and direct
:func:`~repro.resilience.supervised_call` /
:func:`~repro.parallel.supervised_map` users.  It stays in the
submitting process: retries and backoff run there, and a pool worker
runs one attempt per submission.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import RETRYABLE_ERRORS, ReproError

#: The legal on-failure actions.
ON_FAILURE = ("raise", "record")


@dataclass(frozen=True)
class RunPolicy:
    """Retry/failure policy for supervised execution.

    * ``max_retries`` — extra attempts after the first (so an item runs
      at most ``max_retries + 1`` times).  Only the errors in
      :data:`repro.errors.RETRYABLE_ERRORS` (transient convergence
      failures and worker crashes) are retried; terminal errors fail on
      attempt 1.
    * ``backoff_s`` / ``backoff_factor`` — exponential backoff: the
      sleep before retry *k* (1-based) is
      ``backoff_s * backoff_factor ** (k - 1)``.  ``backoff_s=0``
      (the default) retries immediately.
    * ``on_failure`` — what a terminally failed item does to the batch:
      ``"raise"`` re-raises the original exception (what a
      policy-free ``supervised_map`` does), ``"record"`` keeps a failed
      :class:`~repro.resilience.Outcome` in the results.
    * ``sleep`` — injectable sleep (default ``time.sleep``), compared
      and hashed as identity-excluded so two policies differing only in
      their sleep hook are equal.  Backoff sleeps always run in the
      submitting process, so a recording sleep sees every retry of a
      fanned run too.
    """

    max_retries: int = 0
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    on_failure: str = "record"
    sleep: Optional[Callable[[float], None]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0 or not math.isfinite(self.backoff_s):
            raise ReproError(f"backoff_s must be finite and >= 0, got {self.backoff_s}")
        if self.backoff_factor <= 0 or not math.isfinite(self.backoff_factor):
            raise ReproError(
                f"backoff_factor must be finite and > 0, got {self.backoff_factor}"
            )
        if self.on_failure not in ON_FAILURE:
            raise ReproError(
                f"on_failure must be one of {ON_FAILURE}, got {self.on_failure!r}"
            )

    # -- derived knobs -------------------------------------------------
    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def backoff_for(self, retry_number: int) -> float:
        """Sleep before the ``retry_number``-th retry (1-based)."""
        return self.backoff_s * self.backoff_factor ** (retry_number - 1)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, RETRYABLE_ERRORS)

    def do_sleep(self, seconds: float) -> None:
        if seconds > 0:
            (self.sleep or time.sleep)(seconds)


__all__ = ["ON_FAILURE", "RunPolicy"]
