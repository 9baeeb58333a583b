"""Supervised execution: failure as a first-class, attributed outcome.

One worker exception does not kill a fan-out batch, and a mid-run pool
death does not silently re-run every item serially: the resilience
layer makes every recovery decision explicit, bounded, and visible:

* :class:`RunPolicy` — the declarative knob set: retry budget,
  exponential backoff (injectable sleep), and the on-failure action
  (``raise`` | ``record``).
* :class:`Outcome` — the per-item record supervised execution returns
  instead of dying: status (``ok`` / ``failed``), the captured
  exception (pickled home from the worker, with a
  :class:`CapturedFailure` stand-in when the exception itself cannot
  cross the pool), attempt count, and worker pid.
* :func:`supervised_call` — the single-item primitive: run a thunk
  under a policy (retry loop, backoff, deterministic fault injection
  via :mod:`repro.faultinject`).
* :func:`repro.parallel.supervised_map` — the fan-out form: per-item
  outcomes over a process pool, distinguishing submission-time
  infrastructure failures (fall back serially, counted) from a mid-run
  pool death (keep the completed items, finish the rest in-process).

Every decision lands in :data:`repro.spice.stats.STATS` (``retries``,
``worker_failures``, ``serial_fallbacks``) and — when a tracer is
installed — in ``supervised_map``/``retry`` telemetry spans, so
``--bench``, ``--trace`` and ``--metrics`` all show recovery activity.

The upward wiring sits at two boundaries: ``registry.run_experiments``
(the one production caller of ``supervised_map``) reports
per-experiment outcomes under the CLI's ``--retries``, and the job
service runs each job through ``supervised_call`` under its wire
``policy``.  The Session layer below them is unsupervised: each plan
runs in-process through ``Session.run`` and fails fast.
"""

from .outcome import CapturedFailure, Outcome, capture_error
from .policy import RunPolicy
from .supervisor import supervised_call

__all__ = [
    "CapturedFailure",
    "Outcome",
    "RunPolicy",
    "capture_error",
    "supervised_call",
]
