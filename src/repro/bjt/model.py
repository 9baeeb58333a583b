"""DC Gummel-Poon model: ``IS(T)``, ``IC(VBE)`` and its inversions.

Everything the extraction methods consume comes from here:

* :meth:`GummelPoonModel.is_at` — the SPICE temperature law, paper eq. 1;
* :meth:`GummelPoonModel.collector_current` — forward transport current
  with base-width modulation (``VAR``/``VAF`` through the normalised base
  charge ``qb``) and high-injection roll-off (``IKF``);
* :meth:`GummelPoonModel.vbe_for_ic` — the exact inversion used to
  synthesise ``VBE(T)`` characteristics at constant collector current;
* :meth:`GummelPoonModel.terminal_currents` — solves the series-resistance
  feedback so full Gummel plots (paper Fig. 5) show the realistic
  high-current roll-off.

Sign convention: the model works in *forward-junction* voltages (positive
``vbe`` forward-biases the emitter junction) regardless of NPN/PNP; the
circuit layer applies polarity.

The two inversions import :func:`scipy.optimize.brentq` when first
called, not at module import: the SPICE engine loads this module through
its BJT element, never calls them, and would otherwise pay the
``scipy.optimize`` import (about 0.15 s) on every cold start.
"""

from __future__ import annotations

import math
from typing import Tuple

from ..constants import K_BOLTZMANN_EV, thermal_voltage
from ..errors import ModelError
from .parameters import BJTParameters

#: Junction voltages are solved within [0, _VBE_MAX] volts.
_VBE_MAX = 1.5

#: Absolute tolerance on junction-voltage solves [V].
_V_TOL = 1e-13


class GummelPoonModel:
    """A DC Gummel-Poon transistor bound to a parameter set."""

    def __init__(self, params: BJTParameters):
        self.params = params

    # ------------------------------------------------------------------
    # Temperature updates of the card parameters
    # ------------------------------------------------------------------
    def vt(self, temperature_k: float) -> float:
        """Thermal voltage at ``temperature_k`` [V]."""
        return thermal_voltage(temperature_k)

    def is_at(self, temperature_k: float) -> float:
        """Saturation current at ``temperature_k`` (paper eq. 1) [A]."""
        p = self.params
        if temperature_k <= 0.0:
            raise ModelError("IS(T) requires a positive temperature")
        ratio = temperature_k / p.tnom
        exponent = (p.eg / K_BOLTZMANN_EV) * (1.0 / p.tnom - 1.0 / temperature_k)
        return p.is_ * ratio**p.xti * math.exp(exponent)

    def bf_at(self, temperature_k: float) -> float:
        """Forward beta at temperature (SPICE ``BF*(T/TNOM)**XTB``)."""
        p = self.params
        return p.bf * (temperature_k / p.tnom) ** p.xtb

    def ise_at(self, temperature_k: float) -> float:
        """B-E leakage saturation current at temperature.

        SPICE law: ``ISE(T) = ISE * (T/TNOM)**(XTI/NE - XTB)
        * exp(EG/(NE*k) * (1/TNOM - 1/T))``.
        """
        p = self.params
        ratio = temperature_k / p.tnom
        exponent = (p.eg / (p.ne * K_BOLTZMANN_EV)) * (1.0 / p.tnom - 1.0 / temperature_k)
        return p.ise * ratio ** (p.xti / p.ne - p.xtb) * math.exp(exponent)

    # ------------------------------------------------------------------
    # Junction-referred currents
    # ------------------------------------------------------------------
    def _qb(self, vbe: float, vbc: float, temperature_k: float) -> float:
        """Normalised base charge ``qb = q1/2 * (1 + sqrt(1 + 4*q2))``."""
        p = self.params
        denom = 1.0 - vbe / p.var - vbc / p.vaf
        if denom <= 0.0:
            raise ModelError(
                f"base charge collapsed (vbe={vbe:.3f} V against VAR={p.var} V)"
            )
        q1 = 1.0 / denom
        if math.isinf(p.ikf):
            q2 = 0.0
        else:
            nf_vt = p.nf * self.vt(temperature_k)
            q2 = (self.is_at(temperature_k) / p.ikf) * math.expm1(vbe / nf_vt)
        return 0.5 * q1 * (1.0 + math.sqrt(1.0 + 4.0 * max(q2, 0.0)))

    def collector_current(
        self, vbe: float, temperature_k: float, vbc: float = 0.0
    ) -> float:
        """Collector current for junction voltages ``vbe``/``vbc`` [A].

        ``IC = IS(T) * (exp(vbe/(NF*VT)) - exp(vbc/(NR*VT))) / qb`` — the
        forward transport current normalised by the base charge.  With
        ``vbc = 0`` this is the Gummel-plot configuration used throughout
        the paper's measurements.
        """
        p = self.params
        vt = self.vt(temperature_k)
        is_t = self.is_at(temperature_k)
        transport = math.expm1(vbe / (p.nf * vt)) - math.expm1(vbc / (p.nr * vt))
        return is_t * transport / self._qb(vbe, vbc, temperature_k)

    def base_current(self, vbe: float, temperature_k: float) -> float:
        """Base current: ideal ``IC-like/BF`` plus ``ISE`` leakage [A]."""
        p = self.params
        vt = self.vt(temperature_k)
        ideal = (
            self.is_at(temperature_k)
            * math.expm1(vbe / (p.nf * vt))
            / self.bf_at(temperature_k)
        )
        leakage = self.ise_at(temperature_k) * math.expm1(vbe / (p.ne * vt))
        return ideal + leakage

    # ------------------------------------------------------------------
    # Inversions
    # ------------------------------------------------------------------
    def vbe_for_ic(
        self, ic: float, temperature_k: float, vbc: float = 0.0
    ) -> float:
        """Junction ``VBE`` giving collector current ``ic`` at temperature.

        This synthesises the constant-current ``VBE(T)`` characteristics
        the classical extraction fits (paper eq. 13 data).  The inversion
        is exact (bracketing root solve on the monotone ``IC(VBE)``).
        """
        from scipy.optimize import brentq

        if ic <= 0.0:
            raise ModelError("vbe_for_ic requires a positive collector current")
        upper = min(_VBE_MAX, 0.95 * self.params.var)

        def residual(vbe: float) -> float:
            return self.collector_current(vbe, temperature_k, vbc) - ic

        if residual(upper) < 0.0:
            raise ModelError(
                f"collector current {ic:g} A unreachable below vbe={upper:.2f} V"
            )
        return brentq(residual, 0.0, upper, xtol=_V_TOL)

    def terminal_currents(
        self, vbe_applied: float, temperature_k: float
    ) -> Tuple[float, float]:
        """``(IC, IB)`` for a terminal B-E voltage, collector at ``vbc=0``.

        Solves the series-resistance feedback
        ``vbe_applied = vbe_j + IB*RB + (IC+IB)*RE`` for the internal
        junction voltage, then returns the terminal currents.  This is the
        measurement configuration of the paper's Fig. 5 and is what limits
        the top decade of the curves.
        """
        from scipy.optimize import brentq

        if vbe_applied <= 0.0:
            return 0.0, 0.0
        p = self.params

        def residual(vbe_j: float) -> float:
            ib = self.base_current(vbe_j, temperature_k)
            ic = self.collector_current(vbe_j, temperature_k)
            return vbe_j + ib * p.rb + (ic + ib) * p.re - vbe_applied

        upper = min(vbe_applied, _VBE_MAX, 0.95 * p.var)
        if residual(upper) <= 0.0:
            vbe_j = upper
        else:
            vbe_j = brentq(residual, 0.0, upper, xtol=_V_TOL)
        return (
            self.collector_current(vbe_j, temperature_k),
            self.base_current(vbe_j, temperature_k),
        )

    # ------------------------------------------------------------------
    # Convenience quantities used by analysis/experiments
    # ------------------------------------------------------------------
    def is_sensitivity_percent_per_kelvin(self, temperature_k: float) -> float:
        """``d(ln IS)/dT`` in %/K (the paper quotes ~20 %/K, section 3)."""
        p = self.params
        return 100.0 * (
            p.xti / temperature_k + p.eg / (K_BOLTZMANN_EV * temperature_k**2)
        )

    def vbe_temperature_slope(
        self, ic: float, temperature_k: float, delta_k: float = 0.05
    ) -> float:
        """Numerical ``dVBE/dT`` at constant ``IC`` [V/K] (~ -2 mV/K)."""
        lo = self.vbe_for_ic(ic, temperature_k - delta_k)
        hi = self.vbe_for_ic(ic, temperature_k + delta_k)
        return (hi - lo) / (2.0 * delta_k)
