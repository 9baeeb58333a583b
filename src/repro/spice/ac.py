"""Frequency-domain small-signal (AC) analysis.

The third analysis next to DC (:mod:`repro.spice.solver`) and
transient (:mod:`repro.spice.transient`): linearise the circuit at a
solved operating point and sweep the complex system

    (G + j w C) x = b

over frequency.  :meth:`MNASystem.linearise` builds all three at the
operating point, in the system's own dense or sparse format:

* ``G`` is the DC Jacobian there — exactly what
  :meth:`MNASystem.assemble` produces, gmin regularisation included, so
  the AC system is singular precisely when the DC one would be;
* ``C`` holds the elements' ``dQ/dV`` from
  :meth:`~repro.spice.elements.base.Element.ac_stamp` — analytic for
  linear capacitors, BJT junction capacitances (one vectorized pass per
  device group) and the op-amp macro's single pole, with a
  finite-difference fallback on :meth:`charge_at` for dynamic elements
  that declare no analytic stamp;
* ``b`` is the independent sources' AC excitation
  (``ac_mag``/``ac_phase_deg``), the SPICE ``AC mag phase`` convention.

Each frequency point factors ``G + j w C`` through
:func:`repro.spice.solver.lu`, the routine the DC and transient Newton
loops use; a purely resistive circuit (``C`` empty, the matrix then
frequency-independent) takes ONE factorization for the whole sweep.  A
singular matrix or a failed back-substitution is a
:class:`~repro.errors.NetlistError` naming the frequency.  Counters land
in :data:`repro.spice.stats.STATS` (``ac_solves`` /
``ac_factorizations`` / ``ac_factor_reuses``) so ``--bench`` reports the
reuse rate.

Sweeps run through the Session API: ``Session.run(plans.ACSweep(...))``
solves one warm-chained operating point per temperature and builds one
:class:`ACSystem` at each.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import NetlistError
from ..telemetry import tracer as _tele
from .analysis import ACResult, OperatingPoint, _wrap_point
from .mna import MNASystem
from .netlist import Circuit
from .solver import LU, SolverOptions, lu, solve_dc_system
from .stats import STATS


def log_frequencies(
    f_start: float, f_stop: float, points_per_decade: int = 10
) -> np.ndarray:
    """Log-spaced frequency grid [Hz], endpoints included (SPICE ``DEC``)."""
    if f_start <= 0.0 or f_stop <= f_start:
        raise NetlistError(
            f"need 0 < f_start < f_stop, got ({f_start}, {f_stop})"
        )
    if points_per_decade < 1:
        raise NetlistError("points_per_decade must be at least 1")
    decades = np.log10(f_stop / f_start)
    n_points = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_start), np.log10(f_stop), n_points)


class ACSystem:
    """The linearised ``(G, C, b)`` of one circuit at one operating point.

    Build it with :meth:`from_circuit` (solves the DC point itself) or
    directly from a caller-owned :class:`MNASystem` plus a solved
    unknown vector — the path ``Session`` uses so one re-temperatured
    system serves a whole temperature grid.

    ``options`` supplies only ``gmin``, the one the DC point was solved
    under, so ``G`` is that solve's Jacobian.

    Attributes of interest to tests and diagnostics: ``G`` (real DC
    Jacobian at the operating point), ``C`` (real capacitance matrix,
    a dense ndarray or, when ``G`` is sparse, ``scipy.sparse.csc``),
    ``b`` (complex excitation vector), ``x_op`` (the operating
    point) and ``frequency_flat`` (True when every entry of ``C`` is
    zero, i.e. one factorization serves every frequency).
    """

    def __init__(
        self,
        system: MNASystem,
        x_op: np.ndarray,
        options: Optional[SolverOptions] = None,
        op: Optional[OperatingPoint] = None,
    ):
        options = options or SolverOptions()
        self.system = system
        self.circuit = system.circuit
        self.temperature_k = system.temperature_k
        self.x_op = np.asarray(x_op, dtype=float)
        if self.x_op.shape != (system.size,):
            raise NetlistError(
                f"operating point has {self.x_op.shape} unknowns, "
                f"system needs {system.size}"
            )
        self.op = op
        self.G, self.C, self.b = system.linearise(self.x_op, gmin=options.gmin)
        self.frequency_flat = not abs(self.C).max()
        self._lu: Optional[LU] = None
        self._omega_key: Optional[float] = None

    @classmethod
    def from_circuit(
        cls,
        circuit: Circuit,
        temperature_k: float = 300.15,
        options: Optional[SolverOptions] = None,
        x0: Optional[np.ndarray] = None,
    ) -> "ACSystem":
        """Solve the DC operating point, then linearise there."""
        options = options or SolverOptions()
        system = MNASystem(circuit, temperature_k=temperature_k)
        raw = solve_dc_system(system, options=options, x0=x0)
        return cls(
            system, raw.x, options=options,
            op=_wrap_point(circuit, temperature_k, raw),
        )

    # ------------------------------------------------------------------
    def _factor(self, omega: float) -> LU:
        """Factor ``G + j w C``, reusing across frequencies when legal.

        A purely resistive system (``frequency_flat``) keys every
        frequency to the same factorization; otherwise the key is the
        angular frequency itself, so repeated solves at one frequency
        (or a caller probing DC twice) still reuse.
        """
        omega_key = 0.0 if self.frequency_flat else omega
        if self._lu is not None and self._omega_key == omega_key:
            STATS.ac_factor_reuses += 1
            return self._lu
        STATS.ac_factorizations += 1
        factors = lu(self.G + 1j * omega_key * self.C)
        if factors is None:
            raise NetlistError(f"AC matrix is singular at {self._where(omega)}")
        self._lu, self._omega_key = factors, omega_key
        return factors

    def _where(self, omega: float) -> str:
        """The frequency and circuit an AC error names."""
        return f"{omega / (2.0 * np.pi):.4g} Hz for circuit {self.circuit.title!r}"

    def solve(self, frequencies_hz: Sequence[float]) -> ACResult:
        """Sweep the AC system over a frequency grid."""
        freqs = np.asarray(frequencies_hz, dtype=float)
        if freqs.ndim != 1 or len(freqs) == 0:
            raise NetlistError("AC analysis needs a 1-D, non-empty frequency grid")
        if np.any(freqs < 0.0):
            raise NetlistError("AC frequencies must be non-negative")
        trc = _tele.ACTIVE
        sweep = (
            trc.begin("ac_sweep", points=len(freqs)) if trc is not None else None
        )
        detailed = trc is not None and trc.detailed
        reused = 0
        try:
            solution = np.empty((len(freqs), self.system.size), dtype=complex)
            for index, frequency in enumerate(freqs):
                omega = 2.0 * np.pi * float(frequency)
                held = self._lu
                t0 = trc.clock() if detailed else 0.0
                factors = self._factor(omega)
                if factors is held:
                    reused += 1
                try:
                    solution[index] = factors.solve(self.b)
                except (ValueError, RuntimeError) as exc:
                    raise NetlistError(
                        f"AC back-substitution failed at {self._where(omega)}"
                    ) from exc
                STATS.ac_solves += 1
                if detailed:
                    trc.leaf(
                        "ac_point", t0,
                        frequency_hz=float(frequency),
                        factored=factors is not held,
                    )
        finally:
            if sweep is not None:
                sweep.attrs["reused_factor"] = reused
                trc.end(sweep)
        op = self.op
        if op is None:
            op = OperatingPoint(
                circuit=self.circuit,
                temperature_k=self.temperature_k,
                x=self.x_op,
                iterations=0,
                residual=float("nan"),
                strategy="external",
            )
        return ACResult(
            circuit=self.circuit,
            temperature_k=self.temperature_k,
            frequencies_hz=freqs,
            x=solution,
            op=op,
        )
