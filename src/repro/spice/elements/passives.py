"""Passive elements: resistor (with temperature coefficients), capacitor.

The paper's test cell is built around n-well diffusion resistors
(2 kOhm/square) whose value drifts with temperature; ``tc1``/``tc2`` model
that drift the same way SPICE does:

    R(T) = R0 * (1 + tc1*(T - tnom) + tc2*(T - tnom)**2)
"""

from __future__ import annotations

from ...constants import T_NOMINAL
from ...errors import NetlistError
from .base import Element, Stamp


def resistance_law(resistance, tc1, tc2, tnom, temperature_k):
    """SPICE polynomial resistance ``R0 * (1 + tc1*dT + tc2*dT**2)`` [ohm].

    Works on floats and on NumPy arrays alike: :meth:`Resistor.resistance_at`
    and the static pass's vectorized fill of every plain resistor share
    this one expression, so both round identically.
    """
    dt = temperature_k - tnom
    return resistance * (1.0 + tc1 * dt + tc2 * dt * dt)


class Resistor(Element):
    """Linear resistor between ``a`` and ``b``.

    ``tc1`` [1/K] and ``tc2`` [1/K^2] give the SPICE polynomial
    temperature dependence; n-well diffusion resistors like the paper's
    run a few 1000 ppm/K, which matters because the PTAT bias current of
    the test cell is set by exactly such resistors.
    """

    is_linear = True

    def __init__(
        self,
        name: str,
        a: str,
        b: str,
        resistance: float,
        tc1: float = 0.0,
        tc2: float = 0.0,
        tnom: float = T_NOMINAL,
    ):
        super().__init__(name, (a, b))
        if resistance <= 0.0:
            raise NetlistError(f"resistor {name}: non-positive value {resistance}")
        self.resistance = resistance
        self.tc1 = tc1
        self.tc2 = tc2
        self.tnom = tnom

    def resistance_at(self, temperature_k: float) -> float:
        """Temperature-adjusted resistance [ohm]."""
        value = resistance_law(
            self.resistance, self.tc1, self.tc2, self.tnom, temperature_k
        )
        if value <= 0.0:
            raise NetlistError(
                f"resistor {self.name}: temperature coefficients drive the "
                f"value non-positive at {temperature_k:.1f} K"
            )
        return value

    def stamp(self, stamp: Stamp) -> None:
        g = 1.0 / self.resistance_at(self.device_temperature(stamp))
        a, b = self._node_idx
        stamp.stamp_conductance(a, b, g)

    def power(self, stamp: Stamp) -> float:
        a, b = self._node_idx
        dv = stamp.v(a) - stamp.v(b)
        return dv * dv / self.resistance_at(self.device_temperature(stamp))


class Capacitor(Element):
    """Linear capacitor: open at DC, companion model in transient.

    At DC (``stamp.transient is None``) it registers its nodes but
    stamps nothing; a floating node created this way is kept solvable by
    the solver's gmin-to-ground.  During a transient step it stamps the
    discretised branch current

        i_n = alpha * (q(v_n) - q_prev) - beta * i_prev,  q(v) = C * v

    where ``alpha``/``beta`` come from the step's integration rule
    (backward Euler or trapezoidal — see
    :class:`repro.spice.elements.base.TransientContext`), giving the
    classic ``G_eq = alpha * C`` companion conductance in the Jacobian.
    """

    is_dynamic = True
    #: The companion model is affine in x: conductance alpha*C plus a
    #: residual offset from the (frozen-per-step) integrator state.
    is_linear = True

    def __init__(self, name: str, a: str, b: str, capacitance: float):
        super().__init__(name, (a, b))
        if capacitance <= 0.0:
            raise NetlistError(f"capacitor {name}: non-positive value {capacitance}")
        self.capacitance = capacitance

    def charge_at(self, x) -> float:
        """Stored charge ``C * (v(a) - v(b))`` at the unknowns ``x`` [C]."""
        a, b = self._node_idx
        va = float(x[a]) if a >= 0 else 0.0
        vb = float(x[b]) if b >= 0 else 0.0
        return self.capacitance * (va - vb)

    def charge_scale(self) -> float:
        return self.capacitance

    def capacitance_slots(self) -> int:
        return 4

    def ac_stamp(self, stamp) -> None:
        """Analytic ``dQ/dV``: the value itself, voltage-independent."""
        a, b = self._node_idx
        stamp.add_two_terminal_capacitance(a, b, self.capacitance)

    def stamp(self, stamp: Stamp) -> None:
        ctx = stamp.transient
        if ctx is None:
            return None  # open circuit at DC
        a, b = self._node_idx
        charge = self.capacitance * (stamp.v(a) - stamp.v(b))
        current = ctx.discretised_current(self, charge)
        g_eq = ctx.alpha * self.capacitance
        stamp.add_residual(a, current)
        stamp.add_residual(b, -current)
        stamp.add_jacobian(a, a, g_eq)
        stamp.add_jacobian(a, b, -g_eq)
        stamp.add_jacobian(b, a, -g_eq)
        stamp.add_jacobian(b, b, g_eq)
