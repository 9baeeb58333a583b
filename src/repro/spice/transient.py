"""Time-domain transient analysis.

The engine integrates the circuit's DAE with either backward Euler or
the trapezoidal rule, re-solving the nonlinear system at every timestep
with the same damped-Newton machinery as the DC solver (warm-started
from the previous timepoint, with the DC fallback ladder available for
the initial operating point).  Charge-storage elements participate
through the companion-model contract of
:class:`repro.spice.elements.base.TransientContext`:

    i_n = alpha * (q_n - q_prev) - beta * i_prev

so the per-step system is just another ``F(x) = 0`` and element stamps
stay side-effect free — the integrator state only advances when a step
is *accepted*.

Step control is local-truncation-error driven: an explicit linear
predictor extrapolates the last two accepted points, and the difference
between predictor and corrector estimates the LTE.  Following SPICE
practice, the estimate is taken over the *charge-storage elements*
(each element's charge error divided by its
:meth:`~repro.spice.elements.base.Element.charge_scale`, i.e. in volts
across the element) rather than over every node: high-gain algebraic
loops — an op-amp macro snapping on during a supply ramp — would
otherwise ring the controller down to nanosecond steps even though no
state variable moves.  Steps whose estimate exceeds the tolerance band
are rejected and retried smaller; accepted steps grow the timestep with
the usual ``(tol/err)^(1/(order+1))`` rule, capped per step.  Newton
failures shrink the step harder — exactly what a stiff startup ramp
needs when the bandgap loop snaps on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..errors import ConvergenceError, NetlistError
from ..telemetry import tracer as _tele
from .analysis import OperatingPoint
from .elements.base import DynamicState, TransientContext
from .mna import MNASystem
from .netlist import Circuit
from .solver import NewtonWorkspace, RawSolution, SolverOptions, _newton

#: Integration order of each method (for the step-growth exponent).
_METHOD_ORDER = {"be": 1, "trap": 2}


@dataclass(frozen=True)
class TransientOptions:
    """Tunable knobs of the transient engine."""

    #: Integration rule: ``"trap"`` (trapezoidal, 2nd order) or ``"be"``
    #: (backward Euler, 1st order, heavily damped).
    method: str = "trap"
    #: Initial timestep [s]; ``None`` -> ``t_stop / 1000``.
    dt_init: Optional[float] = None
    #: Smallest allowed timestep [s] before the engine gives up; ``None``
    #: -> ``t_stop * 1e-9``.
    dt_min: Optional[float] = None
    #: Largest allowed timestep [s]; ``None`` -> ``t_stop / 50``.
    dt_max: Optional[float] = None
    #: ``False`` disables LTE control: fixed ``dt_init`` steps.
    adaptive: bool = True
    #: LTE tolerance band: ``tol = lte_abstol + lte_reltol * max|v|``.
    lte_reltol: float = 1e-3
    lte_abstol: float = 1e-6
    #: Per-accepted-step growth cap on the timestep.
    max_growth: float = 2.0
    #: Shrink factor on a Newton (non-)convergence failure.
    newton_shrink: float = 0.25
    #: Hard cap on total attempted steps (runaway guard).
    max_steps: int = 100000
    #: Newton options for the per-step solves and the initial DC point.
    newton: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.method not in _METHOD_ORDER:
            raise NetlistError(f"unknown integration method {self.method!r}")
        if self.lte_reltol <= 0.0 or self.lte_abstol <= 0.0:
            raise NetlistError("LTE tolerances must be positive")
        if self.max_growth <= 1.0:
            raise NetlistError("max_growth must exceed 1")
        if not 0.0 < self.newton_shrink < 1.0:
            raise NetlistError("newton_shrink must be in (0, 1)")


@dataclass
class TransientResult:
    """A completed transient run with named-node waveform accessors."""

    circuit: Circuit
    temperature_k: float
    method: str
    #: Accepted timepoints [s] (including t_start).
    times: np.ndarray
    #: Unknown vectors at each accepted timepoint, shape (n_times, size).
    states: np.ndarray
    #: Newton iterations of each accepted step (first entry: initial DC).
    step_iterations: List[int]
    #: Residual infinity-norm of each accepted step's converged iterate
    #: (first entry: initial DC) — the recorded evidence that every
    #: accepted step really was a converged solve.
    step_residuals: List[float]
    #: Strategy string of the initial DC solve (the fallback ladder).
    initial_strategy: str
    #: Steps rejected by the LTE controller.
    rejected_lte: int = 0
    #: Step-size retries forced by Newton non-convergence.
    newton_retries: int = 0
    #: Fresh LU factorizations spent on the whole run (excl. initial DC).
    factorizations: int = 0
    #: Newton iterations advanced on a reused (stale) factorization.
    lu_reuses: int = 0

    # -- waveforms -----------------------------------------------------
    def voltage(self, node: str) -> np.ndarray:
        """Waveform of a named node [V] over :attr:`times`."""
        index = self.circuit.node_index(node)
        if index < 0:
            return np.zeros(len(self.times))
        return self.states[:, index].copy()

    def branch_current(self, element_name: str) -> np.ndarray:
        """Waveform of a voltage-defined element's branch current [A]."""
        element = self.circuit.element(element_name)
        if element.branch_count == 0:
            raise NetlistError(
                f"{element_name} has no branch current (not voltage-defined)"
            )
        return self.states[:, element.branch_index()].copy()

    def voltage_at(self, node: str, time: float) -> float:
        """Linearly interpolated node voltage at an arbitrary time [V]."""
        return float(np.interp(time, self.times, self.voltage(node)))

    # -- scalar extractions --------------------------------------------
    def final_op(self) -> OperatingPoint:
        """The last accepted timepoint wrapped as an operating point."""
        return OperatingPoint(
            circuit=self.circuit,
            temperature_k=self.temperature_k,
            x=self.states[-1].copy(),
            iterations=self.step_iterations[-1],
            residual=self.step_residuals[-1],
            strategy=f"transient-{self.method}",
        )

    def settling_time(
        self,
        node: str,
        tolerance: float,
        final_value: Optional[float] = None,
    ) -> float:
        """First time after which the node stays within ``tolerance`` [V]
        of ``final_value`` (default: its last sample) for good.

        Returns the start time if the waveform never leaves the band,
        ``inf`` if it never settles into it.
        """
        wave = self.voltage(node)
        target = wave[-1] if final_value is None else final_value
        outside = np.abs(wave - target) > tolerance
        if not outside.any():
            return float(self.times[0])
        last_outside = int(np.nonzero(outside)[0][-1])
        if last_outside == len(wave) - 1:
            return float("inf")
        return float(self.times[last_outside + 1])

    def overshoot(self, node: str, final_value: Optional[float] = None) -> float:
        """Peak excursion of the node above its final value [V] (>= 0)."""
        wave = self.voltage(node)
        target = wave[-1] if final_value is None else final_value
        return max(0.0, float(np.max(wave) - target))

    @property
    def accepted_steps(self) -> int:
        """Number of accepted integration steps (excludes the t0 point)."""
        return len(self.times) - 1

    def __len__(self) -> int:
        return len(self.times)


def _resolve_steps(options: TransientOptions, span: float):
    explicit_init = options.dt_init is not None
    dt_init = options.dt_init if explicit_init else span / 1000.0
    dt_min = (
        options.dt_min
        if options.dt_min is not None
        else min(span * 1e-9, dt_init)
    )
    # Derived bounds must never contradict explicit ones: an explicit
    # dt_init overrides the span/50 default ceiling, and a derived
    # dt_init bends to whatever explicit dt_min/dt_max the caller set —
    # a run may only be rejected over bounds the user actually chose.
    dt_max = (
        options.dt_max
        if options.dt_max is not None
        else max(span / 50.0, min(dt_init, span), min(dt_min, span))
    )
    if not explicit_init:
        dt_init = min(max(dt_init, dt_min), dt_max)
    if not 0.0 < dt_min <= dt_init <= dt_max <= span:
        raise NetlistError(
            f"inconsistent timestep bounds: dt_min={dt_min}, "
            f"dt_init={dt_init}, dt_max={dt_max}, span={span}"
        )
    return dt_init, dt_min, dt_max


def _source_waveforms(circuit: Circuit):
    """All waveform-valued independent-source values in the circuit."""
    waves = (getattr(el, "waveform", None) for el in circuit.elements)
    return [wave for wave in waves if wave is not None]


def _collect_breakpoints(
    circuit: Circuit, t_start: float, t_stop: float, dt_min: float
):
    """Sorted waveform slope discontinuities in the window, merged so no
    two (and none against the window edges) are closer than ``dt_min``.

    Adaptive steps are clamped so a timepoint lands on each: the LTE
    estimate watches charge-storage elements only, so without this a
    grown step can leap straight over a narrow pulse and nobody notices.
    The merge matters too — a forced step below ``dt_min`` makes the
    companion conductance ``alpha = 2/dt`` stiff enough that charge
    roundoff alone exceeds the Newton tolerance.
    """
    points = set()
    for wave in _source_waveforms(circuit):
        points.update(wave.breakpoints(t_start, t_stop))
        if len(points) > 500_000:
            # The stepper must visit every breakpoint, so this run could
            # never finish inside any sane step budget anyway.
            raise NetlistError(
                f"waveform sources produce over {len(points)} breakpoints "
                f"in ({t_start:.3e}, {t_stop:.3e}) s — shrink the window "
                "or the source period"
            )
    merged = []
    for point in sorted(points):
        if point - t_start < dt_min or t_stop - point < dt_min:
            continue
        if merged and point - merged[-1] < dt_min:
            continue
        merged.append(point)
    return merged


def run_transient_system(
    circuit: Circuit,
    system: MNASystem,
    workspace: NewtonWorkspace,
    initial: RawSolution,
    t_stop: float,
    options: Optional[TransientOptions] = None,
    t_start: float = 0.0,
) -> TransientResult:
    """Integrate on a caller-owned system from a solved initial point.

    The engine-level entry the Session layer drives: the caller owns
    the :class:`MNASystem` (already at the run's temperature), the
    Newton ``workspace`` that will carry LU reuse across timesteps, and
    the solved DC point ``initial`` at ``t_start`` (waveform sources
    pinned there, capacitors open).  One workspace for the whole run:
    the LU from a previous timestep (or iteration) is reused while it
    still contracts the residual — across the many small steps of a
    settled waveform, most factorizations are redundant and the reuse
    guard keeps the stiff snap-on intervals on fresh Jacobians.
    """
    if t_stop <= t_start:
        raise NetlistError("t_stop must exceed t_start")
    options = options or TransientOptions()
    span = t_stop - t_start
    dt_init, dt_min, dt_max = _resolve_steps(options, span)
    # Smooth-but-fast sources (SIN) impose their own sampling ceiling.
    for wave in _source_waveforms(circuit):
        ceiling = wave.suggested_max_dt()
        if ceiling is not None:
            dt_max = min(dt_max, max(ceiling, dt_min))
    dt_init = min(dt_init, dt_max)
    breakpoints = _collect_breakpoints(circuit, t_start, t_stop, dt_min)
    order_exponent = 1.0 / (_METHOD_ORDER[options.method] + 1.0)

    temperature_k = system.temperature_k
    x = initial.x
    dynamic = [el for el in circuit.elements if el.is_dynamic]
    states: Dict[str, DynamicState] = {
        el.name: DynamicState(charge=el.charge_at(x), current=0.0) for el in dynamic
    }

    times = [t_start]
    solutions = [x.copy()]
    step_iterations = [initial.iterations]
    step_residuals = [initial.residual]
    counts = _StepCounts()

    trc = _tele.ACTIVE
    run_span = (
        trc.begin(
            "transient",
            method=options.method,
            t_start_s=t_start,
            t_stop_s=t_stop,
        )
        if trc is not None
        else None
    )
    detailed = trc is not None and trc.detailed
    try:
        _transient_loop(
            circuit, system, workspace, options, trc if detailed else None,
            span, dt_init, dt_min, dt_max, breakpoints, order_exponent,
            t_start, t_stop, x, dynamic, states, times, solutions,
            step_iterations, step_residuals, counts,
        )
    finally:
        if run_span is not None:
            run_span.attrs.update(
                accepted_steps=len(times) - 1,
                rejected_lte=counts.rejected_lte,
                newton_retries=counts.newton_retries,
            )
            trc.end(run_span)

    return TransientResult(
        circuit=circuit,
        temperature_k=temperature_k,
        method=options.method,
        times=np.asarray(times),
        states=np.asarray(solutions),
        step_iterations=step_iterations,
        step_residuals=step_residuals,
        initial_strategy=initial.strategy,
        rejected_lte=counts.rejected_lte,
        newton_retries=counts.newton_retries,
        factorizations=workspace.factorizations,
        lu_reuses=workspace.reuses,
    )


@dataclass
class _StepCounts:
    rejected_lte: int = 0
    newton_retries: int = 0


def _transient_loop(
    circuit, system, workspace, options, trc, span, dt_init, dt_min, dt_max,
    breakpoints, order_exponent, t_start, t_stop, x, dynamic, states, times,
    solutions, step_iterations, step_residuals, counts,
):
    """The attempt/accept/reject stepping loop of
    :func:`run_transient_system` (``trc`` is the detailed tracer or
    ``None``; ``times``/``solutions``/... are mutated in place so the
    caller can report partial progress even when a step raises)."""
    dt = min(dt_init, dt_max)
    next_breakpoint = 0  # index of the first breakpoint still ahead
    t = t_start
    attempts = 0
    just_rejected = False
    while t < t_stop - 1e-15 * span:
        if attempts >= options.max_steps:
            raise ConvergenceError(
                f"transient exceeded {options.max_steps} attempted steps "
                f"at t = {t:.3e} s for circuit {circuit.title!r}"
            )
        attempts += 1
        remaining = t_stop - t
        dt = min(dt, remaining)
        # Absorb a floating-point sliver at the end of the window into
        # the final step: a ~1e-21 s remainder would make the companion
        # conductance alpha = 2/dt astronomically stiff for no reason.
        # Never right after a rejection — re-inflating a just-rejected
        # step back to its rejected size would livelock the controller
        # when the remaining window sits just above dt_min.
        if (
            not just_rejected
            and remaining - dt < dt_min
            and remaining < 1.5 * dt
        ):
            dt = remaining
        # Land a timepoint on the next waveform corner instead of
        # stepping over it (and whatever it does to the circuit).  A
        # corner within dt_min of the current timepoint counts as
        # visited — clamping to it would force a sub-dt_min step, the
        # same stiffness hazard the breakpoint merge exists to prevent.
        while (
            next_breakpoint < len(breakpoints)
            and breakpoints[next_breakpoint] <= t + max(dt_min, 1e-12 * span)
        ):
            next_breakpoint += 1
        if (
            next_breakpoint < len(breakpoints)
            and t + dt > breakpoints[next_breakpoint]
        ):
            dt = breakpoints[next_breakpoint] - t
        t_new = t + dt
        ctx = TransientContext(dt=dt, method=options.method, states=states)
        step_span = (
            trc.begin("transient_step", t_s=t_new, dt_s=dt)
            if trc is not None
            else None
        )
        # Explicit linear predictor over the last two accepted points:
        # the LTE yardstick, and — when available — the Newton starting
        # point.  Warm-starting at the extrapolation instead of the
        # previous timepoint typically saves an iteration or two per
        # step (the SPICE convention); a bad extrapolation just fails
        # the step's Newton and retries smaller, like any hard step.
        predictor = None
        if len(times) >= 2:
            dt_prev = times[-1] - times[-2]
            predictor = solutions[-1] + (solutions[-1] - solutions[-2]) * (
                dt / dt_prev
            )
        start = predictor if predictor is not None else x
        solution = _newton(
            system,
            start,
            options.newton,
            gmin=options.newton.gmin,
            source_scale=1.0,
            time=t_new,
            transient=ctx,
            workspace=workspace,
        )
        if solution is None and predictor is not None:
            # The extrapolated start can overshoot a discontinuity the
            # previous timepoint survives; fall back before shrinking.
            solution = _newton(
                system,
                x,
                options.newton,
                gmin=options.newton.gmin,
                source_scale=1.0,
                time=t_new,
                transient=ctx,
                workspace=workspace,
            )
        if solution is None:
            counts.newton_retries += 1
            just_rejected = True
            if step_span is not None:
                step_span.attrs.update(accepted=False, reason="newton")
                trc.end(step_span)
            dt *= options.newton_shrink
            if dt < dt_min:
                raise ConvergenceError(
                    f"transient Newton failed below dt_min at t = {t:.3e} s "
                    f"for circuit {circuit.title!r}"
                )
            continue

        if options.adaptive and predictor is not None and dynamic:
            err = 0.0
            scale = 0.0
            for el in dynamic:
                c_scale = el.charge_scale()
                q_new = el.charge_at(solution.x)
                q_pred = el.charge_at(predictor)
                err = max(err, abs(q_new - q_pred) / c_scale)
                scale = max(scale, abs(q_new) / c_scale)
            tol = options.lte_abstol + options.lte_reltol * scale
            if err > tol and dt > dt_min:
                counts.rejected_lte += 1
                just_rejected = True
                if step_span is not None:
                    step_span.attrs.update(accepted=False, reason="lte")
                    trc.end(step_span)
                factor = 0.9 * (tol / err) ** order_exponent
                dt = max(dt * min(0.5, factor), dt_min)
                continue
            factor = 0.9 * (tol / max(err, 1e-300)) ** order_exponent
            next_dt = dt * min(options.max_growth, max(0.3, factor))
        elif options.adaptive:
            next_dt = dt * options.max_growth
        else:
            # Fixed-step mode returns to the requested grid step even
            # after a breakpoint clamp shortened this one.
            next_dt = dt_init

        # Accept: advance the integrator state of every dynamic element.
        # The current must be computed before the charge is overwritten
        # (it differences against the old charge).
        for el in dynamic:
            state = states[el.name]
            q_new = el.charge_at(solution.x)
            state.current = ctx.discretised_current(el, q_new)
            state.charge = q_new

        just_rejected = False
        t = t_new
        x = solution.x
        times.append(t)
        solutions.append(x.copy())
        step_iterations.append(solution.iterations)
        step_residuals.append(solution.residual)
        if step_span is not None:
            step_span.attrs["accepted"] = True
            trc.end(step_span)
        dt = float(min(max(next_dt, dt_min), dt_max))
