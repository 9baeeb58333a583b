"""Deterministic fault injection for the supervised execution layer.

A **fault plan** names exactly which supervised work items fail, how,
and on which attempts — the proof harness behind the resilience layer's
contracts (fanned == serial results under every fault kind, retries
recover transients, crashes are attributed to the right item).
Faults fire *only* inside supervised execution with an explicit
:class:`~repro.resilience.RunPolicy` (``supervised_map`` /
``supervised_call`` with a policy: the registry under ``--retries``, a
served job), so a standing plan in the environment can never perturb
unsupervised code paths such as a Session's plans.

Spec grammar (the ``REPRO_FAULTS`` environment variable and
:func:`parse` accept the same string)::

    spec     := entry (";" entry)*
    entry    := kind "@" index [":" attempts]
    kind     := convergence | crash | hardcrash | error
    index    := <int>  | "*"          (supervised item index)
    attempts := <int> | <int>-<int> | "*"   (1-based, default "*")

Examples::

    convergence@3:1        # item 3's first attempt raises ConvergenceError
    crash@7                # every attempt of item 7 simulates a worker crash
    crash@12:1-2           # item 12 crashes on attempts 1 and 2
    convergence@*:1        # every item's first attempt fails transiently

Kinds:

* ``convergence`` — raises :class:`~repro.errors.ConvergenceError`
  (retryable: the transient-failure exemplar).
* ``crash`` — raises :class:`~repro.errors.WorkerCrash` (the simulated,
  fully deterministic worker death; fires in both serial and pool
  execution, so fanned == serial equality holds under it).
* ``hardcrash`` — **worker-only**: calls ``os._exit(3)`` on the
  pool-worker side of an attempt, producing a genuine
  ``BrokenProcessPool`` under every start method; everywhere else (the
  parent process, or a ``supervised_call`` nested inside a worker) it
  downgrades to ``WorkerCrash`` (a test must never kill its own
  interpreter).
* ``error`` — raises :class:`~repro.errors.FaultInjected`, a
  deliberately *terminal* error (proves non-retryable failures are
  never retried).

Precedence: a plan installed with :func:`install` (or the
:func:`injected` context manager) wins over ``REPRO_FAULTS`` — an
installed *empty* plan therefore shields a test from a standing
environment plan.  The supervisor ships the active plan's spec string
into pool workers with each attempt payload, so injection is
start-method independent (no reliance on ``fork`` inheriting module
globals).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from .errors import ConvergenceError, FaultInjected, ReproError, WorkerCrash

KINDS = ("convergence", "crash", "hardcrash", "error")


@dataclass(frozen=True)
class Fault:
    """One fault: a kind, an item index (None = all), an attempt range."""

    kind: str
    index: Optional[int] = None
    attempts: Optional[Tuple[int, int]] = None  # inclusive, 1-based

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(KINDS)}"
            )
        if self.attempts is not None:
            lo, hi = self.attempts
            if lo < 1 or hi < lo:
                raise ReproError(f"bad fault attempt range {self.attempts!r}")

    def matches(self, index: int, attempt: int) -> bool:
        if self.index is not None and self.index != index:
            return False
        if self.attempts is not None:
            lo, hi = self.attempts
            if not lo <= attempt <= hi:
                return False
        return True

    def spec(self) -> str:
        index = "*" if self.index is None else str(self.index)
        if self.attempts is None:
            return f"{self.kind}@{index}"
        lo, hi = self.attempts
        return f"{self.kind}@{index}:{lo if lo == hi else f'{lo}-{hi}'}"


class FaultPlan:
    """An ordered set of :class:`Fault` entries (first match fires)."""

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: Tuple[Fault, ...] = tuple(faults)

    def __len__(self) -> int:
        return len(self.faults)

    def spec(self) -> str:
        """The round-trippable spec string (``parse(plan.spec())`` is
        equivalent to ``plan``)."""
        return ";".join(fault.spec() for fault in self.faults)

    def match(self, index: int, attempt: int) -> Optional[str]:
        """The kind of the first fault armed for this (item, attempt)."""
        for fault in self.faults:
            if fault.matches(index, attempt):
                return fault.kind
        return None


def parse(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS``-style spec string into a plan."""
    faults = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        kind, sep, rest = entry.partition("@")
        if not sep:
            raise ReproError(f"fault entry {entry!r} is missing '@<index>'")
        index_part, _sep, attempts_part = rest.partition(":")
        try:
            index = None if index_part.strip() == "*" else int(index_part)
        except ValueError:
            raise ReproError(f"bad fault index in {entry!r}") from None
        attempts_part = attempts_part.strip()
        if not attempts_part or attempts_part == "*":
            attempts = None
        else:
            lo, _sep, hi = attempts_part.partition("-")
            try:
                attempts = (int(lo), int(hi) if hi else int(lo))
            except ValueError:
                raise ReproError(f"bad fault attempts in {entry!r}") from None
        faults.append(Fault(kind.strip(), index, attempts))
    return FaultPlan(faults)


#: The programmatically installed plan, if any.  ``None`` means "defer
#: to REPRO_FAULTS"; an installed empty plan means "no faults, period".
_INSTALLED: Optional[FaultPlan] = None


def install(plan: Union[FaultPlan, str]) -> FaultPlan:
    """Install a plan (or spec string) process-wide; wins over the env."""
    global _INSTALLED
    if isinstance(plan, str):
        plan = parse(plan)
    _INSTALLED = plan
    return plan


def uninstall() -> Optional[FaultPlan]:
    """Clear the installed plan (the env plan, if any, applies again)."""
    global _INSTALLED
    plan, _INSTALLED = _INSTALLED, None
    return plan


@contextmanager
def injected(plan: Union[FaultPlan, str]):
    """Install a plan for the block, restoring the previous one after."""
    global _INSTALLED
    previous = _INSTALLED
    install(plan)
    try:
        yield _INSTALLED
    finally:
        _INSTALLED = previous


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the parsed ``REPRO_FAULTS`` env plan."""
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    return parse(spec) if spec else None


def active_spec() -> Optional[str]:
    """The active plan as a picklable spec string (None when no faults
    are armed) — what the supervisor ships into pool workers."""
    plan = active_plan()
    return plan.spec() if plan else None


def check(
    index: int, attempt: int, spec: Optional[str] = None, in_worker: bool = False
) -> None:
    """Fire the fault armed for this (item index, attempt), if any.

    Called by the supervised layer immediately before each attempt's
    work runs.  ``spec`` is the plan shipped with a pool-worker payload;
    the parent-side paths pass nothing and consult :func:`active_plan`.
    ``in_worker`` is True only from the pool-worker side of an attempt
    (:func:`~repro.resilience.supervisor.attempt_in_worker`), whatever
    the pool's start method; it is what lets ``hardcrash`` exit the
    process.
    """
    plan = parse(spec) if spec is not None else active_plan()
    if plan is None:
        return
    kind = plan.match(index, attempt)
    if kind is None:
        return
    where = f"item {index}, attempt {attempt}"
    if kind == "convergence":
        raise ConvergenceError(f"injected transient convergence failure ({where})")
    if kind == "crash":
        raise WorkerCrash(f"injected worker crash ({where})")
    if kind == "hardcrash":
        if in_worker:
            os._exit(3)
        raise WorkerCrash(f"injected worker crash ({where}; in-process downgrade)")
    if kind == "error":
        raise FaultInjected(f"injected terminal fault ({where})")


__all__ = [
    "Fault",
    "FaultPlan",
    "KINDS",
    "active_plan",
    "active_spec",
    "check",
    "injected",
    "install",
    "parse",
    "uninstall",
]
