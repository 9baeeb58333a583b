"""Declarative analysis plans for the :class:`repro.spice.session.Session` API.

An analysis is *data*, not a call chain: a frozen dataclass describing
what to solve (:class:`OP`, :class:`DCSweep`, :class:`TempSweep`,
:class:`ACSweep`, :class:`Transient`, :class:`MonteCarlo`), submitted
through ``session.run(plan)`` / ``session.run_many(plans)``.  Because a
plan is plain data it can be validated *statically* — before any Newton
iteration runs — and shipped across process boundaries for the batch
fan-out.

Validation happens in two stages:

* **construction time** (``__post_init__``): everything checkable
  without a circuit — empty grids, non-finite values, inconsistent
  windows, conflicting parameter overrides — raises a typed
  :class:`~repro.errors.PlanError` immediately;
* **submission time** (``plan.validate(circuit)``, called by the
  session before solving): circuit-dependent checks — unknown elements
  in overrides, unknown recorded nodes, a ``DCSweep`` source that is
  not an independent source.

``overrides`` are ``(element_name, attribute, value)`` triples applied
to the circuit for the duration of the plan (and folded into the
session's solved-point cache key, so two plans differing only in an
override never share a cached point).  ``record`` names the nodes a
result's :meth:`to_dict`/:meth:`export` should ship (default: all).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from ..errors import PlanError
from .netlist import Circuit, is_ground
from .solver import SolverOptions
from .transient import TransientOptions

#: ``(element_name, attribute, value)`` triples.
Overrides = Tuple[Tuple[str, str, float], ...]


def _float_tuple(name: str, values, minimum: Optional[float] = None,
                 allow_empty: bool = False) -> Tuple[float, ...]:
    """Normalise a value grid to a tuple of finite floats."""
    try:
        grid = tuple(float(value) for value in values)
    except (TypeError, ValueError) as exc:
        raise PlanError(f"{name} must be a sequence of numbers: {exc}") from None
    if not grid and not allow_empty:
        raise PlanError(f"{name} grid is empty")
    for value in grid:
        if not math.isfinite(value):
            raise PlanError(f"{name} contains a non-finite value ({value})")
        if minimum is not None and value < minimum:
            raise PlanError(f"{name} contains {value}, below the minimum {minimum}")
    return grid


def _normalise_overrides(overrides) -> Overrides:
    """Normalise override triples; reject conflicts between them."""
    seen = {}
    out = []
    for item in overrides:
        try:
            element, attribute, value = item
        except (TypeError, ValueError):
            raise PlanError(
                f"override {item!r} is not an (element, attribute, value) triple"
            ) from None
        element, attribute = str(element), str(attribute)
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise PlanError(
                f"override value for {element}.{attribute} is not a number: {value!r}"
            ) from None
        key = (element, attribute)
        if key in seen:
            if seen[key] != value:
                raise PlanError(
                    f"conflicting overrides for {element}.{attribute}: "
                    f"{seen[key]} vs {value}"
                )
            continue  # identical repeat: fold it
        seen[key] = value
        out.append((element, attribute, value))
    return tuple(out)


def _check_temperature(temperature_k: float) -> float:
    temperature_k = float(temperature_k)
    if not math.isfinite(temperature_k) or temperature_k <= 0.0:
        raise PlanError(f"temperature must be positive and finite, got {temperature_k}")
    return temperature_k


class AnalysisPlan:
    """Base of every declarative analysis plan.

    Subclasses are frozen dataclasses; shared circuit-dependent
    validation lives here so the session planner has one entry point
    (:meth:`validate`).
    """

    #: Every concrete plan declares these (with defaults).
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()

    # -- shared normalisation helpers ----------------------------------
    def _normalise_common(self) -> None:
        object.__setattr__(self, "overrides", _normalise_overrides(self.overrides))
        object.__setattr__(
            self, "record", tuple(str(node) for node in self.record)
        )

    # -- circuit-dependent validation ----------------------------------
    def validate(self, circuit: Circuit) -> None:
        """Check the plan against a circuit; raises :class:`PlanError`.

        Runs before any solve: a plan that fails here costs nothing.
        """
        for element, attribute, _value in self.overrides:
            if not circuit.has_element(element):
                raise PlanError(
                    f"{type(self).__name__} overrides unknown element {element!r}"
                )
            if not hasattr(circuit.element(element), attribute):
                raise PlanError(
                    f"element {element!r} has no attribute {attribute!r} to override"
                )
        for node in self.record:
            if not is_ground(node) and node not in circuit.nodes:
                raise PlanError(
                    f"{type(self).__name__} records unknown node {node!r}"
                )

    def describe(self) -> dict:
        """JSON-ready summary of the plan (used by result ``to_dict``)."""
        def jsonable(value):
            from ..resilience.policy import RunPolicy

            if isinstance(value, AnalysisPlan):
                return value.describe()
            if isinstance(value, RunPolicy):
                return value.describe()
            if isinstance(value, (SolverOptions, TransientOptions)):
                return type(value).__name__
            if isinstance(value, tuple):
                return [jsonable(item) for item in value]
            return value

        out = {"analysis": type(self).__name__}
        for spec in fields(self):
            out[spec.name] = jsonable(getattr(self, spec.name))
        return out


@dataclass(frozen=True)
class OP(AnalysisPlan):
    """One DC operating point.

    ``time`` pins waveform sources to their instantaneous value (the
    transient engine's pre/post-ramp reference points use it); ``None``
    is plain DC.
    """

    temperature_k: float = 300.15
    time: Optional[float] = None
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()
    options: Optional[SolverOptions] = None

    def __post_init__(self):
        object.__setattr__(self, "temperature_k", _check_temperature(self.temperature_k))
        if self.time is not None:
            time = float(self.time)
            if not math.isfinite(time):
                raise PlanError(f"OP time must be finite, got {time}")
            object.__setattr__(self, "time", time)
        self._normalise_common()


@dataclass(frozen=True)
class DCSweep(AnalysisPlan):
    """Sweep the DC value of an independent V/I source (warm-chained)."""

    source: str = ""
    values: Tuple[float, ...] = ()
    temperature_k: float = 300.15
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()
    options: Optional[SolverOptions] = None

    def __post_init__(self):
        if not self.source:
            raise PlanError("DCSweep needs a source element name")
        object.__setattr__(self, "source", str(self.source))
        object.__setattr__(self, "values", _float_tuple("DCSweep values", self.values))
        object.__setattr__(self, "temperature_k", _check_temperature(self.temperature_k))
        self._normalise_common()
        for element, attribute, _value in self.overrides:
            if element == self.source and attribute == "dc":
                raise PlanError(
                    f"DCSweep overrides its own swept source {self.source!r}.dc"
                )

    def validate(self, circuit: Circuit) -> None:
        super().validate(circuit)
        if not circuit.has_element(self.source):
            raise PlanError(f"DCSweep sweeps unknown element {self.source!r}")
        if not hasattr(circuit.element(self.source), "dc"):
            raise PlanError(f"{self.source} is not an independent source")


@dataclass(frozen=True)
class TempSweep(AnalysisPlan):
    """Solve the circuit across a temperature grid (paper Fig. 8 style)."""

    temperatures_k: Tuple[float, ...] = ()
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()
    options: Optional[SolverOptions] = None

    def __post_init__(self):
        grid = _float_tuple("TempSweep temperatures_k", self.temperatures_k)
        object.__setattr__(
            self, "temperatures_k", tuple(_check_temperature(t) for t in grid)
        )
        self._normalise_common()


@dataclass(frozen=True)
class ACSweep(AnalysisPlan):
    """Small-signal frequency sweep at each temperature's solved op.

    One warm-chained DC point per temperature, one complex
    ``(G + jwC) x = b`` sweep per point.
    """

    frequencies_hz: Tuple[float, ...] = ()
    temperatures_k: Tuple[float, ...] = (300.15,)
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()
    options: Optional[SolverOptions] = None

    def __post_init__(self):
        object.__setattr__(
            self,
            "frequencies_hz",
            _float_tuple("ACSweep frequencies_hz", self.frequencies_hz, minimum=0.0),
        )
        grid = _float_tuple("ACSweep temperatures_k", self.temperatures_k)
        object.__setattr__(
            self, "temperatures_k", tuple(_check_temperature(t) for t in grid)
        )
        self._normalise_common()


@dataclass(frozen=True)
class Transient(AnalysisPlan):
    """Time-domain integration over ``[t_start, t_stop]``."""

    t_stop: float = 0.0
    t_start: float = 0.0
    temperature_k: float = 300.15
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()
    options: Optional[TransientOptions] = None

    def __post_init__(self):
        t_stop, t_start = float(self.t_stop), float(self.t_start)
        if not (math.isfinite(t_start) and math.isfinite(t_stop)):
            raise PlanError("Transient window must be finite")
        if t_stop <= t_start:
            raise PlanError(
                f"t_stop must exceed t_start (got {t_start} .. {t_stop})"
            )
        object.__setattr__(self, "t_stop", t_stop)
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "temperature_k", _check_temperature(self.temperature_k))
        self._normalise_common()


@dataclass(frozen=True)
class MonteCarlo(AnalysisPlan):
    """Repeat an inner plan under per-trial parameter overrides.

    ``trials`` is one override-set per trial — fully declarative, so the
    planner can check every trial's elements/attributes (and conflicts
    against the inner plan's own overrides) before the first solve, and
    the whole lot can fan out across processes.

    ``policy`` (a :class:`~repro.resilience.RunPolicy`) makes the run
    degrade gracefully: each trial executes under supervision, failed
    trials land in ``MonteCarloResult.failed_trials`` with their exact
    trial index and captured exception (instead of one casualty
    aborting the whole population), and transient failures are retried
    per the policy.  ``None`` keeps the fail-fast legacy semantics.
    The policy must be picklable to fan out (leave its ``sleep`` hook
    unset).
    """

    inner: AnalysisPlan = None
    trials: Tuple[Overrides, ...] = ()
    overrides: Overrides = ()
    record: Tuple[str, ...] = ()
    policy: Optional["RunPolicy"] = None

    def __post_init__(self):
        if not isinstance(self.inner, AnalysisPlan):
            raise PlanError("MonteCarlo needs an inner AnalysisPlan")
        if isinstance(self.inner, MonteCarlo):
            raise PlanError("MonteCarlo plans do not nest")
        if not self.trials:
            raise PlanError("MonteCarlo trials grid is empty")
        if self.policy is not None:
            from ..resilience.policy import RunPolicy

            if not isinstance(self.policy, RunPolicy):
                raise PlanError(
                    f"MonteCarlo policy must be a RunPolicy, "
                    f"got {type(self.policy).__name__}"
                )
        object.__setattr__(
            self,
            "trials",
            tuple(_normalise_overrides(trial) for trial in self.trials),
        )
        self._normalise_common()
        # Construct every trial's effective inner plan right now: that
        # re-runs the inner plan's own __post_init__ on the merged
        # overrides, so conflicts AND plan-specific rules (a DCSweep
        # trial overriding its swept source, say) fail at construction
        # — never at trial k of n with k-1 solves already spent.
        for trial in self.trials:
            self.trial_plan(trial)

    def trial_plan(self, trial: Overrides) -> AnalysisPlan:
        """The inner plan of one trial, with the trial's (and this
        plan's own) overrides merged in — the executable unit both the
        serial executor and the fanned-payload rehydration run."""
        from dataclasses import replace

        merged = tuple(self.inner.overrides) + tuple(self.overrides) + tuple(trial)
        return replace(self.inner, overrides=merged)

    def validate(self, circuit: Circuit) -> None:
        super().validate(circuit)
        self.inner.validate(circuit)
        for trial in self.trials:
            for element, attribute, _value in trial:
                if not circuit.has_element(element):
                    raise PlanError(
                        f"MonteCarlo trial overrides unknown element {element!r}"
                    )
                if not hasattr(circuit.element(element), attribute):
                    raise PlanError(
                        f"element {element!r} has no attribute {attribute!r} to override"
                    )


__all__ = [
    "AnalysisPlan",
    "OP",
    "DCSweep",
    "TempSweep",
    "ACSweep",
    "Transient",
    "MonteCarlo",
    "Overrides",
    "PlanError",
]
