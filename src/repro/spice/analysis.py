"""Analysis result containers.

The result classes (:class:`OperatingPoint`, :class:`SweepResult`,
:class:`ACResult`) are the engine's shared containers — the Session API
(:mod:`repro.spice.session`) wraps them into its uniform
:class:`~repro.spice.session.AnalysisResult` hierarchy.  Analyses run
through :class:`~repro.spice.session.Session` with a plan from
:mod:`repro.spice.plans`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import NetlistError
from .netlist import Circuit
from .solver import RawSolution


@dataclass
class OperatingPoint:
    """A solved DC point with name-based accessors."""

    circuit: Circuit
    temperature_k: float
    x: np.ndarray
    iterations: int
    residual: float
    strategy: str

    def voltage(self, node: str) -> float:
        """Voltage at a named node [V] (0 for ground)."""
        index = self.circuit.node_index(node)
        return 0.0 if index < 0 else float(self.x[index])

    def branch_current(self, element_name: str) -> float:
        """Branch current of a voltage-defined element [A]."""
        element = self.circuit.element(element_name)
        if element.branch_count == 0:
            raise NetlistError(
                f"{element_name} has no branch current (not voltage-defined)"
            )
        return float(self.x[element.branch_index()])

    def voltages(self) -> Dict[str, float]:
        """All node voltages as a dict."""
        return {node: self.voltage(node) for node in self.circuit.nodes}


@dataclass
class SweepResult:
    """An ordered set of operating points over a swept parameter."""

    parameter: str
    values: np.ndarray
    points: List[OperatingPoint]

    def voltage(self, node: str) -> np.ndarray:
        return np.array([point.voltage(node) for point in self.points])

    def branch_current(self, element_name: str) -> np.ndarray:
        return np.array([point.branch_current(element_name) for point in self.points])

    def __len__(self) -> int:
        return len(self.points)


def _wrap_point(
    circuit: Circuit, temperature_k: float, raw: RawSolution
) -> OperatingPoint:
    return OperatingPoint(
        circuit=circuit,
        temperature_k=float(temperature_k),
        x=raw.x,
        iterations=raw.iterations,
        residual=raw.residual,
        strategy=raw.strategy,
    )


# ----------------------------------------------------------------------
# Frequency-domain results
# ----------------------------------------------------------------------

def _log_interp_crossing(
    frequencies_hz: np.ndarray, values: np.ndarray, target: float
) -> Optional[float]:
    """Frequency of the first crossing of ``values`` through ``target``.

    Interpolates linearly in (log f, value) between the bracketing grid
    points — the natural coordinates of a Bode plot, where magnitude in
    dB and unwrapped phase are both near-straight per decade.  Returns
    None when the curve never crosses.
    """
    shifted = values - target
    for i in range(len(shifted) - 1):
        a, b = shifted[i], shifted[i + 1]
        if a == 0.0:
            return float(frequencies_hz[i])
        if a * b < 0.0:
            fa, fb = float(frequencies_hz[i]), float(frequencies_hz[i + 1])
            frac = a / (a - b)
            if fa <= 0.0:
                # A 0 Hz grid point (the supported DC limit) has no log
                # coordinate; interpolate that interval linearly.
                return fa + frac * (fb - fa)
            return float(10.0 ** (np.log10(fa) + frac * (np.log10(fb) - np.log10(fa))))
    if shifted[-1] == 0.0:
        return float(frequencies_hz[-1])
    return None


@dataclass
class ACResult:
    """A small-signal frequency sweep: complex phasors per node.

    ``x`` holds one complex solution vector per frequency (shape
    ``(n_freq, size)``), each the response to the circuit's AC
    excitation (the ``ac_mag``/``ac_phase_deg`` of its independent
    sources).  With a single unit-magnitude excitation the node phasors
    ARE the transfer function to that node, which is how the PSRR /
    loop-gain / output-impedance experiments read it.
    """

    circuit: Circuit
    temperature_k: float
    frequencies_hz: np.ndarray
    x: np.ndarray
    #: The DC operating point the circuit was linearised at.
    op: OperatingPoint

    def phasor(self, node: str) -> np.ndarray:
        """Complex response at a named node, one entry per frequency."""
        index = self.circuit.node_index(node)
        if index < 0:
            return np.zeros(len(self.frequencies_hz), dtype=complex)
        return self.x[:, index]

    def magnitude_db(self, node: str) -> np.ndarray:
        """``20 log10 |H|`` at a node, floored to keep log finite."""
        magnitude = np.abs(self.phasor(node))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-300))

    def phase_deg(self, node: str, unwrap: bool = True) -> np.ndarray:
        """Phase at a node [deg]; unwrapped across the sweep by default."""
        angles = np.angle(self.phasor(node))
        if unwrap:
            angles = np.unwrap(angles)
        return np.degrees(angles)

    def bode(self, node: str):
        """``(frequencies_hz, magnitude_db, phase_deg)`` for plotting."""
        return self.frequencies_hz, self.magnitude_db(node), self.phase_deg(node)

    def corner_frequency(self, node: str, drop_db: float = 3.0) -> Optional[float]:
        """First frequency where |H| falls ``drop_db`` below its value at
        the sweep's lowest frequency (the classic -3 dB corner); None if
        the response never drops that far inside the sweep."""
        magnitude = self.magnitude_db(node)
        return _log_interp_crossing(
            self.frequencies_hz, magnitude, float(magnitude[0]) - drop_db
        )

    def crossover_frequency(self, node: str) -> Optional[float]:
        """Unity-gain (0 dB) crossover of the node's response, if any."""
        return _log_interp_crossing(self.frequencies_hz, self.magnitude_db(node), 0.0)

    def _loop_phase_deg(self, node: str, sign: float) -> np.ndarray:
        angles = np.angle(sign * self.phasor(node))
        return np.degrees(np.unwrap(angles))

    def phase_margin(self, node: str, sign: float = -1.0) -> Optional[float]:
        """Phase margin [deg] treating the node's phasor as a loop gain.

        ``sign = -1`` (default) is the negative-feedback convention: the
        loop-gain experiment measures the *returned* signal, which for a
        stabilising loop comes back inverted at DC, so the return ratio
        whose phase starts at 0 deg is minus the measured phasor.  The
        margin is ``180 + arg L`` at the unity-magnitude crossover;
        None when the loop never crosses 0 dB inside the sweep.
        """
        crossover = self.crossover_frequency(node)
        if crossover is None or crossover <= 0.0:
            return None
        phase = self._loop_phase_deg(node, sign)
        positive = self.frequencies_hz > 0.0
        at_crossover = np.interp(
            np.log10(crossover),
            np.log10(self.frequencies_hz[positive]),
            phase[positive],
        )
        return float(180.0 + at_crossover)

    def gain_margin(self, node: str, sign: float = -1.0) -> Optional[float]:
        """Gain margin [dB]: ``-|L|`` in dB where the loop phase crosses
        -180 deg (same ``sign`` convention as :meth:`phase_margin`);
        None when the phase never reaches -180 inside the sweep."""
        phase = self._loop_phase_deg(node, sign)
        f180 = _log_interp_crossing(self.frequencies_hz, phase, -180.0)
        if f180 is None or f180 <= 0.0:
            return None
        positive = self.frequencies_hz > 0.0
        magnitude = np.interp(
            np.log10(f180),
            np.log10(self.frequencies_hz[positive]),
            self.magnitude_db(node)[positive],
        )
        return float(-magnitude)
