"""Table 1: sensor vs computed temperatures on five samples.

Reproduces the paper's Table 1: for each of five chips of a diffusion
lot, the difference ``T_measured - T_computed`` at the chamber points
T1 = 247 K, T2 = 297 K (reference, zero by construction) and T3 = 348 K.

Shape criteria (DESIGN.md E4): every T1 delta negative in the -1.5..-6.5
K band, every T3 delta positive in the +1.5..+7.5 K band, T2 exactly
zero, and the lot-average hot-side discrepancy exceeding the cold side —
the signature the paper attributes to self-heating plus the
amplification-stage offset.
"""

from __future__ import annotations

import numpy as np

from ..extraction.pipeline import run_analytical_extraction
from ..measurement.campaign import MeasurementCampaign
from ..measurement.samples import paper_lot
from ..units import kelvin_to_celsius
from .registry import ExperimentResult, register

#: Chamber settings matching the paper's 247/297/348 K rows [C].
TABLE1_TEMPS_C = (-26.15, 23.85, 74.85)

#: The paper's published deltas, for side-by-side display.
PAPER_TABLE1 = {
    "T1": (-3.6, -4.53, -4.35, -4.61, -1.82),
    "T3": (6.61, 5.64, 3.99, 4.02, 7.28),
}


def _sample_deltas(index, sample):
    """One chip's extraction + temperature deltas."""
    sweep = sorted(set(TABLE1_TEMPS_C) | {-50.0, 50.0, 100.0})
    campaign = MeasurementCampaign(sample, include_noise=True, seed=10 + index)
    extraction = run_analytical_extraction(
        campaign, temps_c=sweep, point_temps_c=TABLE1_TEMPS_C
    )
    return sample.name, extraction.temperature_deltas_k


@register("table1")
def run() -> ExperimentResult:
    # Five chips, each with its own fixed seed.
    per_sample = [
        _sample_deltas(index, sample) for index, sample in enumerate(paper_lot())
    ]
    rows = []
    deltas_t1, deltas_t3 = [], []
    for name, (d1, d2, d3) in per_sample:
        deltas_t1.append(d1)
        deltas_t3.append(d3)
        rows.append((name, round(d1, 2), round(d2, 2), round(d3, 2)))

    deltas_t1 = np.asarray(deltas_t1)
    deltas_t3 = np.asarray(deltas_t3)
    checks = {
        "t1_deltas_all_negative": bool(np.all(deltas_t1 < 0.0)),
        "t1_deltas_in_band": bool(
            np.all((-6.5 < deltas_t1) & (deltas_t1 < -1.5))
        ),
        "t2_delta_exactly_zero_by_construction": all(r[2] == 0.0 for r in rows),
        "t3_deltas_all_positive": bool(np.all(deltas_t3 > 0.0)),
        "t3_deltas_in_band": bool(np.all((1.5 < deltas_t3) & (deltas_t3 < 7.5))),
        "hot_side_exceeds_cold_side_on_average": float(
            np.mean(np.abs(deltas_t3))
        )
        > float(np.mean(np.abs(deltas_t1))),
    }
    notes = (
        "Paper rows: T1 deltas "
        + ", ".join(f"{v:+.2f}" for v in PAPER_TABLE1["T1"])
        + " K; T3 deltas "
        + ", ".join(f"{v:+.2f}" for v in PAPER_TABLE1["T3"])
        + " K.  Reproduced deltas come from the same mechanisms the paper "
        "names: die self-heating, the amplification-stage offset in the "
        "dVBE readout (which modifies the apparent dVBE slope by ~8%), "
        "and the temperature drift of the QB/QA bias-current ratio."
    )
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1 — T_measured - T_computed for five samples",
        columns=["sample", "dT1 [K]", "dT2 [K]", "dT3 [K]"],
        rows=rows,
        checks=checks,
        notes=notes,
    )
