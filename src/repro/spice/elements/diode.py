"""Junction diode with the SPICE temperature law.

The diode shares the saturation-current temperature model of paper eq. 1
(its own ``EG``/``XTI``), making it a minimal vehicle for testing the
temperature machinery of the solver independent of the full BJT.
"""

from __future__ import annotations

import math

from ...constants import K_BOLTZMANN_EV, T_NOMINAL, thermal_voltage
from ...errors import NetlistError
from .base import Element, Stamp, limited_exp


class Diode(Element):
    """Diode from ``anode`` to ``cathode``.

    ``i = IS(T) * (exp(vd/(n*VT)) - 1)`` with
    ``IS(T) = IS * (T/TNOM)**(XTI/n) * exp(EG/(n*k) * (1/TNOM - 1/T))``
    (the SPICE diode law; note the ideality factor divides both
    temperature exponents).
    """

    is_nonlinear = True

    @property
    def groupable(self) -> bool:
        """Grouped by :class:`repro.spice.groups.DiodeGroup` (the
        exponential is overflow-clamped identically on both paths)."""
        return True

    def jacobian_slots(self) -> int:
        # The 2x2 conductance block (gmin folded into g).
        return 4

    def __init__(
        self,
        name: str,
        anode: str,
        cathode: str,
        is_: float = 1e-15,
        n: float = 1.0,
        eg: float = 1.11,
        xti: float = 3.0,
        tnom: float = T_NOMINAL,
    ):
        super().__init__(name, (anode, cathode))
        if is_ <= 0.0:
            raise NetlistError(f"diode {name}: IS must be positive")
        if n <= 0.0:
            raise NetlistError(f"diode {name}: ideality must be positive")
        self.is_ = is_
        self.n = n
        self.eg = eg
        self.xti = xti
        self.tnom = tnom
        self._tcache = None

    def is_at(self, temperature_k: float) -> float:
        ratio = temperature_k / self.tnom
        exponent = (self.eg / (self.n * K_BOLTZMANN_EV)) * (
            1.0 / self.tnom - 1.0 / temperature_k
        )
        return self.is_ * ratio ** (self.xti / self.n) * math.exp(exponent)

    def _laws_at(self, temperature_k: float):
        """Memoised ``(IS(T), n*VT)``, keyed on every input the law
        reads: a plan override can set ``is_`` on a live diode."""
        key = (temperature_k, self.is_, self.n, self.eg, self.xti, self.tnom)
        cache = self._tcache
        if cache is not None and cache[0] == key:
            return cache[1]
        laws = (
            self.is_at(temperature_k),
            self.n * thermal_voltage(temperature_k),
        )
        self._tcache = (key, laws)
        return laws

    def _current(self, vd: float, temperature_k: float):
        """``(i(vd), core)`` with overflow-limited exponential; ``core``
        is what :meth:`_conductance` completes ``di/dvd`` from."""
        sat, nvt = self._laws_at(temperature_k)
        value, slope = limited_exp(vd / nvt)
        return sat * (value - 1.0), (sat, slope, nvt)

    @staticmethod
    def _conductance(core) -> float:
        """``di/dvd`` from a :meth:`_current` core."""
        sat, slope, nvt = core
        return sat * slope / nvt

    def current_and_conductance(self, vd: float, temperature_k: float):
        """``(i(vd), di/dvd)`` with overflow-limited exponential."""
        i, core = self._current(vd, temperature_k)
        return i, self._conductance(core)

    def stamp(self, stamp: Stamp) -> None:
        a, c = self._node_idx
        t = self.device_temperature(stamp)
        vd = stamp.v(a) - stamp.v(c)
        i, core = self._current(vd, t)
        # gmin in parallel with the junction keeps the Jacobian regular
        # at deep reverse bias / zero bias.
        i += stamp.gmin * vd
        stamp.add_residual(a, i)
        stamp.add_residual(c, -i)
        if not stamp.wants_jacobian:
            return
        g = self._conductance(core) + stamp.gmin
        stamp.add_jacobian(a, a, g)
        stamp.add_jacobian(a, c, -g)
        stamp.add_jacobian(c, a, -g)
        stamp.add_jacobian(c, c, g)

    def power(self, stamp: Stamp) -> float:
        a, c = self._node_idx
        vd = stamp.v(a) - stamp.v(c)
        i, _ = self._current(vd, self.device_temperature(stamp))
        return vd * i
