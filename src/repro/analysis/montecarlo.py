"""Monte-Carlo extraction statistics over process spread and noise.

Runs both extraction methods over a synthetic lot and summarises the
recovered couples: the quantitative version of the paper's comparison
between the classical and analytical approaches.

Chips are independent (each carries its own seed), so a chip's couple
does not depend on the rest of the lot.  The lot runs in-process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..extraction.pipeline import run_analytical_extraction
from ..measurement.campaign import MeasurementCampaign
from ..measurement.samples import ProcessSpread

#: The planted ground truth (see repro.bjt.parameters).
TRUE_EG, TRUE_XTI = 1.1324, 3.4616


@dataclass(frozen=True)
class MonteCarloSummary:
    """Statistics of extracted couples over a lot."""

    label: str
    eg_values: np.ndarray
    xti_values: np.ndarray

    @property
    def eg_mean(self) -> float:
        return float(self.eg_values.mean())

    @property
    def eg_std(self) -> float:
        return float(self.eg_values.std(ddof=1)) if self.eg_values.size > 1 else 0.0

    @property
    def xti_mean(self) -> float:
        return float(self.xti_values.mean())

    @property
    def xti_std(self) -> float:
        return float(self.xti_values.std(ddof=1)) if self.xti_values.size > 1 else 0.0

    @property
    def eg_bias_mev(self) -> float:
        """Mean EG error vs the planted truth [meV]."""
        return 1000.0 * (self.eg_mean - TRUE_EG)

    @property
    def xti_bias(self) -> float:
        return self.xti_mean - TRUE_XTI


def _extract_chip(task: Tuple) -> Tuple[float, float]:
    """Extract the couple of one chip."""
    sample, chip_seed, include_noise, corrected = task
    campaign = MeasurementCampaign(sample, include_noise=include_noise, seed=chip_seed)
    extraction = run_analytical_extraction(campaign, correct_offset=corrected)
    return extraction.couple_computed_t.eg, extraction.couple_computed_t.xti


def run_extraction_montecarlo(
    lot_size: int = 20,
    seed: int = 2002,
    include_noise: bool = True,
    corrected: bool = True,
    spread: Optional[ProcessSpread] = None,
) -> MonteCarloSummary:
    """Extract the couple on every chip of a synthetic lot.

    ``corrected`` chooses the full analytical method (pad-corrected
    offset + eqs. 19-20 current correction) versus the raw readout.
    """
    if lot_size < 2:
        raise ReproError("a Monte-Carlo lot needs at least two chips")
    samples = (spread or ProcessSpread()).generate(lot_size, seed=seed)
    tasks = [
        (sample, seed + index, include_noise, corrected)
        for index, sample in enumerate(samples)
    ]
    couples = [_extract_chip(task) for task in tasks]
    label = "analytical/corrected" if corrected else "analytical/raw"
    return MonteCarloSummary(
        label=label,
        eg_values=np.asarray([eg for eg, _ in couples]),
        xti_values=np.asarray([xti for _, xti in couples]),
    )
