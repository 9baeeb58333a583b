"""The EG(XTI) "characteristic straight" (paper Fig. 6).

Because the two basis functions of eq. 13 are nearly collinear over any
finite temperature range, fixing XTI and fitting only EG yields an
almost equally good fit for *every* XTI — the resulting (XTI, EG)
couples fall on a straight line.  The paper plots three such lines: C1
from the best-fitting method, C2/C3 from the analytical method with
measured/computed temperatures.

The line's slope is analytic: from eq. 14,
``dEG/dXTI = (k/q) * T1*T3*ln(T3/T1)/(T3 - T1)`` — about 23 meV per
unit of XTI for the paper's temperature points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..constants import K_OVER_Q
from ..errors import ExtractionError
from ..measurement.dataset import VbeTemperatureCurve
from .vbe_fit import _design_rows


@dataclass(frozen=True)
class CharacteristicStraight:
    """A fitted EG(XTI) line with the couples it was built from."""

    xti_values: np.ndarray
    eg_values: np.ndarray
    slope: float
    intercept: float
    label: str = ""

    def eg_at(self, xti: float) -> float:
        """EG on the line for a given XTI [eV]."""
        return self.intercept + self.slope * xti

    def offset_from(self, other: "CharacteristicStraight", xti: float = 3.5) -> float:
        """Vertical EG distance to another straight at a given XTI [eV]."""
        return self.eg_at(xti) - other.eg_at(xti)


def theoretical_slope(t_low: float, t_high: float) -> float:
    """``dEG/dXTI`` implied by eq. 14 for a temperature pair [eV/XTI]."""
    if t_low <= 0.0 or t_high <= 0.0 or t_low == t_high:
        raise ExtractionError("need two distinct positive temperatures")
    return K_OVER_Q * t_low * t_high * math.log(t_high / t_low) / (t_high - t_low)


def characteristic_straight(
    curves: Sequence[VbeTemperatureCurve],
    xti_grid: Sequence[float] = None,
    reference_k: float = None,
    label: str = "",
) -> CharacteristicStraight:
    """Scan XTI, fit EG only, and fit the resulting line.

    ``xti_grid`` defaults to the paper's Fig. 6 x-axis (0.5 to 6.5).
    For each fixed XTI the one-parameter least squares over *all* curves
    (the paper fits "the complete set of VBE(T) characteristics measured
    on a range of current") gives the companion EG.
    """
    if not curves:
        raise ExtractionError("no curves supplied")
    if xti_grid is None:
        xti_grid = np.linspace(0.5, 6.5, 25)
    xti_grid = np.asarray(xti_grid, dtype=float)

    designs, targets = [], []
    for curve in curves:
        temps = np.asarray(curve.temperatures_k, float)
        vbes = np.asarray(curve.vbe_v, float)
        if reference_k is None:
            ref_idx = int(np.argmin(np.abs(temps - 298.15)))
        else:
            ref_idx = int(np.argmin(np.abs(temps - reference_k)))
        design, target, _, _ = _design_rows(temps, vbes, None, ref_idx)
        designs.append(design)
        targets.append(target)
    design = np.vstack(designs)
    target = np.concatenate(targets)

    a_col, b_col = design[:, 0], design[:, 1]
    a_dot_a = float(a_col @ a_col)
    if a_dot_a == 0.0:
        raise ExtractionError("degenerate data: no temperature spread")
    eg_values = np.array(
        [float(a_col @ (target - xti * b_col)) / a_dot_a for xti in xti_grid]
    )
    slope, intercept = np.polyfit(xti_grid, eg_values, 1)
    return CharacteristicStraight(
        xti_values=xti_grid,
        eg_values=eg_values,
        slope=float(slope),
        intercept=float(intercept),
        label=label,
    )


def straight_from_couples(
    couples: Sequence[tuple], label: str = ""
) -> CharacteristicStraight:
    """Build a straight from explicit (EG, XTI) couples.

    Used for C2/C3: the analytical method yields one couple per choice
    of temperature pair/current; plotting several traces the line.
    """
    if len(couples) < 2:
        raise ExtractionError("need at least two couples for a line")
    egs = np.array([c[0] for c in couples], dtype=float)
    xtis = np.array([c[1] for c in couples], dtype=float)
    slope, intercept = np.polyfit(xtis, egs, 1)
    return CharacteristicStraight(
        xti_values=xtis,
        eg_values=egs,
        slope=float(slope),
        intercept=float(intercept),
        label=label,
    )
