"""Extension experiment: the sub-1V reference the paper motivates.

The paper's introduction cites references "operating down to 600 mV" as
the reason EG/XTI accuracy matters; its conclusion offers the test
structure "to prototype the design of more accurate low voltage
reference circuit".  This experiment closes that loop: a current-mode
sub-1V reference built from the same devices, with the same parasitic,
predicted with (a) the standard model card and (b) the in-situ extracted
card — the in-situ card must track the "fabricated" behaviour, rise and
all, while the standard card misses it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..circuits.sub1v import Sub1VBandgap, Sub1VConfig
from ..extraction.pipeline import run_analytical_extraction, run_classical_extraction
from ..measurement.campaign import MeasurementCampaign
from ..measurement.samples import paper_lot
from ..units import celsius_to_kelvin
from .registry import ExperimentResult, register

TEMPS_C = tuple(range(-55, 146, 20))


@register("sub1v_extension")
def run() -> ExperimentResult:
    sample = paper_lot()[0]
    campaign = MeasurementCampaign(sample, include_noise=False)
    standard = run_classical_extraction(campaign).standard_card_couple
    extracted = run_analytical_extraction(
        campaign, correct_offset=True
    ).couple_computed_t.couple

    def config_for(couple, with_parasitic: bool) -> Sub1VConfig:
        params = replace(sample.bjt_params(), eg=couple[0], xti=couple[1])
        return Sub1VConfig(
            params=params,
            is_mismatch=sample.is_mismatch,
            substrate_unit=sample.substrate_unit() if with_parasitic else None,
        )

    true_couple = (sample.bjt_params().eg, sample.bjt_params().xti)
    temps_k = [celsius_to_kelvin(t) for t in TEMPS_C]
    # Three model-card variants over the same grid.
    variants = [
        config_for(true_couple, with_parasitic=True),
        config_for(standard, with_parasitic=False),
        config_for(extracted, with_parasitic=True),
    ]
    fab, std, insitu = (
        np.asarray([model.vref(temp_k) for temp_k in temps_k])
        for model in map(Sub1VBandgap, variants)
    )
    rows = [
        (temp_c, round(f, 5), round(s, 5), round(i, 5))
        for temp_c, f, s, i in zip(TEMPS_C, fab, std, insitu)
    ]

    # Scalability: the same design retargeted to 600 mV.
    at_600 = Sub1VBandgap(variants[0]).scaled_to(0.600)
    v600 = at_600.vref(celsius_to_kelvin(25.0))

    checks = {
        "output_below_1v": bool(np.all(fab < 1.0)),
        "fabricated_rises_at_hot_end": fab[-1] - fab[len(fab) // 2] > 5e-3,
        "standard_card_misses_the_rise": abs(std[-1] - fab[-1]) > 5e-3,
        "insitu_card_tracks_fabricated": bool(
            np.max(np.abs(insitu - fab)) < 2e-3
        ),
        "retargets_to_600mv": abs(v600 - 0.600) < 1e-3,
    }
    notes = (
        f"Sub-1V current-mode reference at {fab[len(fab)//2]:.3f} V nominal; "
        f"standard-card prediction error at 145 C: "
        f"{1000.0 * abs(std[-1] - fab[-1]):.1f} mV; in-situ card worst error: "
        f"{1000.0 * float(np.max(np.abs(insitu - fab))):.2f} mV; the same "
        f"design retargeted to 600 mV gives VREF(25 C) = {v600:.4f} V."
    )
    return ExperimentResult(
        experiment_id="sub1v_extension",
        title="Extension — sub-1V reference prototyped with the extracted card",
        columns=["T [C]", "fabricated [V]", "std card [V]", "in-situ card [V]"],
        rows=rows,
        checks=checks,
        notes=notes,
    )
