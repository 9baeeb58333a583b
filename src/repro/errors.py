"""Exception hierarchy for the library.

Everything raised deliberately by :mod:`repro` derives from
:class:`ReproError` so applications can catch library failures without
swallowing genuine programming errors.

Error taxonomy: retryable vs terminal
-------------------------------------

The supervised execution layer (:mod:`repro.resilience`,
:func:`repro.parallel.supervised_map`) splits failures into two classes:

* **Retryable** — transient conditions where re-running the *same* work
  item can legitimately succeed: :class:`ConvergenceError` (a Newton
  run that strayed from a bad warm start or marginal ladder rung can
  converge on a clean retry) and :class:`WorkerCrash` (the process-pool
  worker died — the work itself may be fine).  The set is
  :data:`RETRYABLE_ERRORS`, which
  :meth:`repro.resilience.RunPolicy.is_retryable` reads.
* **Terminal** — deterministic failures a retry cannot fix, because
  re-running identical inputs reproduces them: :class:`NetlistError` /
  :class:`PlanError` (the description itself is malformed),
  :class:`ModelError` (unphysical parameters), :class:`ExtractionError`
  / :class:`MeasurementError` (degenerate data), and any non-repro
  exception raised by user code (``TypeError``, ``ValueError``...).
  These fail fast — one attempt, attributed to the item that raised
  them — so a retry policy can never mask a real bug by hammering it.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """A circuit description is malformed (unknown node, duplicate name,
    missing ground reference, bad element value...)."""


class PlanError(NetlistError):
    """A declarative analysis plan failed validation.

    Raised by the Session planner *before any solve runs*: empty grids,
    unknown nodes or elements, conflicting parameter overrides,
    inconsistent windows.  Subclasses :class:`NetlistError` so code
    written against the legacy entry points (which raised NetlistError
    for the same mistakes) keeps catching it.
    """


class SubcktError(NetlistError):
    """A hierarchical ``.SUBCKT`` definition or ``X`` instantiation is
    malformed.  Subclasses :class:`NetlistError` (a bad hierarchy is a
    bad netlist); the three concrete failure modes below let tests and
    tooling distinguish the taxonomy without string-matching messages.
    """


class UnknownSubcktError(SubcktError):
    """An ``X`` card references a subcircuit name with no ``.SUBCKT``
    definition anywhere in the deck (lookup is case-insensitive, like
    every SPICE name)."""


class SubcktArityError(SubcktError):
    """An ``X`` card connects the wrong number of nodes for its
    subcircuit's declared port list."""


class SubcktRecursionError(SubcktError):
    """Subcircuit expansion found a cycle: a ``.SUBCKT`` instantiates
    itself, directly or through a chain of other subcircuits.  Flattening
    a cycle would never terminate, so it is detected and named."""


class ExperimentError(ReproError):
    """An experiment runner failed.

    Carries the experiment id in its message so batch runs (and their
    process fan-out, where tracebacks lose the submitting call site)
    keep failure attribution.
    """


class ConvergenceError(ReproError):
    """The nonlinear DC solver failed to converge.

    Carries the best iterate found so callers can inspect how far the
    solve got (useful when diagnosing pathological bias points).
    """

    def __init__(self, message: str, best_residual: float = float("nan")):
        super().__init__(message)
        self.best_residual = best_residual


class WorkerCrash(ReproError):
    """A process-pool worker died while holding a supervised work item.

    Covers both a real ``BrokenProcessPool`` (the pool reported a dead
    worker; the supervisor attributes it to the unfinished items) and
    the deterministic simulation injected by :mod:`repro.faultinject`.
    Retryable: the *work* may be fine even when the process that ran
    it was not.
    """


class FaultInjected(ReproError):
    """A generic fault fired by the :mod:`repro.faultinject` harness.

    Deliberately *terminal* (not in :data:`RETRYABLE_ERRORS`): tests use
    it to prove that non-retryable failures are never retried.
    """


class BenchRegError(ReproError):
    """A benchmark-campaign governance operation failed (malformed
    index, unresolvable baseline, or an attempt to record/gate a
    campaign from a fault-perturbed run).  Terminal: retrying the same
    record/check reproduces it."""


class ExtractionError(ReproError):
    """Parameter extraction failed (degenerate data, singular system...)."""


class MeasurementError(ReproError):
    """A simulated instrument was asked to do something out of range."""


class ModelError(ReproError):
    """A device model received unphysical parameters or bias."""


#: The retryable set of the supervised execution layer (see the module
#: docstring's taxonomy).  A tuple of types, so it drops straight into
#: ``isinstance``.
RETRYABLE_ERRORS = (ConvergenceError, WorkerCrash)
