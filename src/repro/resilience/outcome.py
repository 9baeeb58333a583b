"""Per-item :class:`Outcome` records and pickle-safe exception capture."""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ReproError

#: Outcome statuses.
OK = "ok"
FAILED = "failed"


class CapturedFailure(ReproError):
    """Stand-in for a worker exception that could not be pickled home.

    Preserves the original type name and message so attribution
    survives even when the exception object itself (a closure-holding
    custom error, say) cannot cross the pool.
    """

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


def capture_error(error: BaseException) -> BaseException:
    """The exception itself when picklable, else a :class:`CapturedFailure`."""
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return CapturedFailure(type(error).__name__, str(error))


@dataclass
class Outcome:
    """What happened to one supervised work item.

    ``value`` holds the result for ``ok`` items; ``error`` the captured
    exception of ``failed`` ones.  ``attempts`` counts every run
    including the successful one; ``retried`` is sugar for
    ``attempts > 1``.  ``worker_pid`` names the process that produced
    the final attempt (the parent pid for serial execution).
    """

    index: int
    status: str
    value: Any = None
    error: Optional[BaseException] = None
    attempts: int = 1
    worker_pid: Optional[int] = None
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    @property
    def error_type(self) -> Optional[str]:
        if self.error is None:
            return None
        if isinstance(self.error, CapturedFailure):
            return self.error.error_type
        return type(self.error).__name__

    def unwrap(self) -> Any:
        """The value for ``ok`` outcomes; re-raises the error otherwise."""
        if self.ok:
            return self.value
        raise self.error

    def to_dict(self) -> dict:
        """JSON-ready snapshot (exception rendered as type + message)."""
        out = {
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "retried": self.retried,
            "worker_pid": self.worker_pid,
            "wall_s": round(self.wall_s, 6),
        }
        if self.error is not None:
            out["error_type"] = self.error_type
            out["error"] = str(self.error)
        return out


__all__ = [
    "FAILED",
    "OK",
    "CapturedFailure",
    "Outcome",
    "capture_error",
]
