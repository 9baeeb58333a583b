"""Op-amp macro-model.

A single-pole-free DC macro: the output is a voltage source whose value
is a soft-clamped amplification of the differential input,

    v(out) = center + swing * tanh(gain * (v(inp) - v(inn) + vos) / swing)

with ``center``/``swing`` derived from the supply rails.  The tanh gives
Newton a smooth, bounded branch equation (hard clamps are hostile to
convergence), ``gain`` is the finite open-loop gain and ``vos`` the input
offset voltage — the non-ideality the paper's section 4 names among the
causes of the sensor-vs-die temperature discrepancy, and that the
ADJ pads of the test cell exist to trim out.

``vos`` may be a plain float or a callable of device temperature
(kelvin).  The callable form is how :mod:`repro.circuits.trim` wires the
RadjA compensation: the drop of the replica substrate-leakage current
through RadjA appears in series with the amplifier input, i.e. as a
temperature-dependent offset.

When a ``supply`` node is given, the upper rail *tracks that node's
voltage* instead of the fixed ``rail_high`` — the hook the startup
experiments use: with VDD at 0 V the output is pinned near ``rail_low``
(the amplifier is off and the reference loop sits in its zero-current
state), and only as VDD ramps does the output window — and with it the
loop — open up.

Inputs draw no current (ideal input stage); the supply sense also draws
no current (the macro does not model quiescent supply current).
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from ...errors import NetlistError
from .base import Element, Stamp

OffsetValue = Union[float, Callable[[float], float]]

#: Minimum output swing [V] kept when the sensed supply collapses; a
#: hard zero swing would make the branch equation degenerate (output
#: exactly pinned with zero derivative everywhere), so the macro keeps a
#: millivolt-scale window — electrically "off" but smooth for Newton.
_MIN_SWING = 5e-4


class OpAmp(Element):
    """Op-amp with output branch (inp, inn, out[, supply])."""

    branch_count = 1
    is_nonlinear = True

    def jacobian_slots(self) -> int:
        # Output KCL pair, branch row vs out/inp/inn, optional rail term.
        return 6

    def __init__(
        self,
        name: str,
        inp: str,
        inn: str,
        out: str,
        gain: float = 1e4,
        vos: OffsetValue = 0.0,
        rail_low: float = 0.0,
        rail_high: float = 5.0,
        supply: Optional[str] = None,
        pole_hz: Optional[float] = None,
    ):
        nodes = (inp, inn, out) if supply is None else (inp, inn, out, supply)
        super().__init__(name, nodes)
        if gain <= 0.0:
            raise NetlistError(f"opamp {name}: gain must be positive")
        if rail_high <= rail_low:
            raise NetlistError(f"opamp {name}: rail_high must exceed rail_low")
        if pole_hz is not None and pole_hz <= 0.0:
            raise NetlistError(f"opamp {name}: pole frequency must be positive")
        self.gain = gain
        self.vos = vos
        self.rail_low = rail_low
        self.rail_high = rail_high
        self.supply = supply
        #: Open-loop pole of the small-signal model [Hz]; None keeps the
        #: macro frequency-flat in AC analyses (DC/transient behaviour is
        #: unaffected either way — the pole exists only in ``ac_stamp``).
        self.pole_hz = pole_hz
        #: Memo of a callable offset law at the last temperature — the
        #: law is re-evaluated every stamp but only depends on T.
        self._vos_cache = None
        #: One-deep memo of the last output evaluation (the solver
        #: stamps the same iterate twice back to back: residual probe,
        #: then Jacobian assembly).  Keyed on every input including the
        #: gain, which gain stepping mutates between stages.
        self._op_cache = None

    def offset_at(self, temperature_k: float) -> float:
        """Input offset voltage at temperature [V]."""
        vos = self.vos
        if callable(vos):
            cache = self._vos_cache
            if cache is not None and cache[0] is vos and cache[1] == temperature_k:
                return cache[2]
            value = float(vos(temperature_k))
            self._vos_cache = (vos, temperature_k, value)
            return value
        return float(vos)

    def output_value(
        self,
        vdiff: float,
        temperature_k: float = 300.15,
        supply_v: Optional[float] = None,
    ) -> float:
        """Clamped output voltage for a differential input [V]."""
        value, _ = self._output(vdiff, temperature_k, supply_v)
        return value

    def _effective_rail_high(self, supply_v: Optional[float]):
        """Upper rail and its sensitivity to the sensed supply voltage."""
        if supply_v is None:
            return self.rail_high, 0.0
        floor = self.rail_low + 2.0 * _MIN_SWING
        if supply_v <= floor:
            return floor, 0.0
        return supply_v, 1.0

    def _output(
        self,
        vdiff: float,
        temperature_k: float,
        supply_v: Optional[float] = None,
    ):
        """``(value, core)``: the output voltage plus what
        :meth:`_slopes` needs to complete the branch row's derivatives."""
        key = (vdiff, temperature_k, supply_v, self.gain, self.vos)
        cached = self._op_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        rail_high, drail = self._effective_rail_high(supply_v)
        center = 0.5 * (rail_high + self.rail_low)
        swing = 0.5 * (rail_high - self.rail_low)
        arg = self.gain * (vdiff + self.offset_at(temperature_k)) / swing
        th = math.tanh(arg)
        value = center + swing * th
        result = (value, (self.gain, drail, arg, th))
        self._op_cache = (key, result)
        return result

    @staticmethod
    def _slopes(core):
        """``(d value/d vdiff, d value/d rail_high)`` from an
        :meth:`_output` core."""
        gain, drail, arg, th = core
        slope = gain * (1.0 - th * th)
        # d value / d rail_high: the center and swing both move with the
        # rail, and the tanh argument shrinks as the window widens:
        #   value = c + s*th,  dc/dr = ds/dr = 1/2,  darg/dr = -arg/(2s)
        slope_rail = drail * 0.5 * (1.0 + th - arg * (1.0 - th * th))
        return slope, slope_rail

    def stamp(self, stamp: Stamp) -> None:
        if self.supply is None:
            inp, inn, out = self._node_idx
            vdd_idx = -1
            supply_v = None
        else:
            inp, inn, out, vdd_idx = self._node_idx
            supply_v = stamp.v(vdd_idx)
        k = self.branch_index()
        i = stamp.v(k)
        stamp.add_residual(out, i)
        vdiff = stamp.v(inp) - stamp.v(inn)
        value, core = self._output(vdiff, self.device_temperature(stamp), supply_v)
        stamp.add_residual(k, stamp.v(out) - value)
        if not stamp.wants_jacobian:
            return
        slope, slope_rail = self._slopes(core)
        stamp.add_jacobian(out, k, 1.0)
        stamp.add_jacobian(k, out, 1.0)
        stamp.add_jacobian(k, inp, -slope)
        stamp.add_jacobian(k, inn, slope)
        if slope_rail != 0.0:
            stamp.add_jacobian(k, vdd_idx, -slope_rail)

    # -- small-signal --------------------------------------------------
    def capacitance_slots(self) -> int:
        return 1 if self.pole_hz is not None else 0

    def ac_stamp(self, stamp) -> None:
        """Single-pole small-signal model.

        The linearised branch equation at the operating point is
        ``v_out - slope*vdiff - slope_rail*v_dd = 0`` (that is the DC
        Jacobian row, already in G).  Multiplying the gain by
        ``1/(1 + j w / w_pole)`` is algebraically the same as adding
        ``(j w / w_pole) * v_out`` to the branch residual — a single
        C-matrix entry of ``1 / (2 pi pole_hz)`` (seconds, since the
        branch row is in volts) at ``(row, out)``.  The supply-ripple
        path through ``slope_rail`` sees the same roll-off, as it
        should for an output-referred pole.
        """
        if self.pole_hz is None:
            return
        out = self._node_idx[2]
        stamp.add_capacitance(
            self.branch_index(), out, 1.0 / (2.0 * math.pi * self.pole_hz)
        )
