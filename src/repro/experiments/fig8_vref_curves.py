"""Fig. 8: VREF(T) — measured vs model cards, and the RadjA improvement.

The paper's closing comparison:

* **measured** — the real cell: true device couple, substrate-leakage
  parasitic active, ADJ-trimmed amplifier.  Rises anomalously at high
  temperature.
* **S0** — simulation with the *standard model card*: the best-fitting
  couple frozen at the handbook XTI, and no parasitic model (the
  foundry card "does not point out" the effect).  A bell-ish curve that
  misses the rise.
* **S1..S4** — simulation with the model card extracted in-situ by the
  test structure (pad-corrected analytical method, which recovers the
  true couple) plus the in-situ-characterised parasitic, for RadjA in
  {0, 1.8k, 2.5k, 2.7k}.  S1 matches the measured rise; increasing
  RadjA progressively flattens the curve.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..circuits.bandgap_cell import BandgapCellConfig
from ..circuits.reference import BehaviouralBandgap
from ..circuits.trim import PAPER_RADJA_SWEEP_OHM
from ..extraction.pipeline import run_analytical_extraction, run_classical_extraction
from ..measurement.campaign import MeasurementCampaign
from ..measurement.samples import paper_lot
from ..units import celsius_to_kelvin
from .registry import ExperimentResult, register

#: Fig. 8 x-axis [C].
FIG8_TEMPS_C = tuple(range(-80, 146, 15))


def _cell_config(sample, eg, xti, with_parasitic, radja=0.0) -> BandgapCellConfig:
    params = replace(sample.bjt_params(), eg=eg, xti=xti)
    return BandgapCellConfig(
        params=params,
        is_mismatch=sample.is_mismatch,
        substrate_unit=sample.substrate_unit() if with_parasitic else None,
        opamp_vos=0.0,  # ADJ-trimmed (the pads exist to null this)
        radja=radja,
    )


@register("fig8")
def run() -> ExperimentResult:
    sample = paper_lot()[0]
    campaign = MeasurementCampaign(sample, include_noise=False)

    standard = run_classical_extraction(campaign).standard_card_couple
    analytical = run_analytical_extraction(campaign, correct_offset=True)
    extracted = analytical.couple_computed_t.couple

    temps_k = [celsius_to_kelvin(t) for t in FIG8_TEMPS_C]
    true_couple = (sample.bjt_params().eg, sample.bjt_params().xti)

    # The six curve families: analytic sweeps over the same grid.
    configs = [
        _cell_config(sample, *true_couple, with_parasitic=True),
        _cell_config(sample, *standard, with_parasitic=False),
    ] + [
        _cell_config(sample, *extracted, with_parasitic=True, radja=radja)
        for radja in PAPER_RADJA_SWEEP_OHM
    ]
    curves = [_sweep(config, temps_k) for config in configs]
    measured, s0 = curves[0], curves[1]
    trimmed = dict(zip(PAPER_RADJA_SWEEP_OHM, curves[2:]))

    rows = []
    for i, temp_c in enumerate(FIG8_TEMPS_C):
        rows.append(
            (
                temp_c,
                round(measured[i], 5),
                round(s0[i], 5),
                round(trimmed[0.0][i], 5),
                round(trimmed[1.8e3][i], 5),
                round(trimmed[2.5e3][i], 5),
                round(trimmed[2.7e3][i], 5),
            )
        )

    hot = -1  # index of 145 C
    s1 = trimmed[0.0]
    spans = {r: v.max() - v.min() for r, v in trimmed.items()}
    checks = {
        "measured_rises_at_high_temperature": measured[hot] - measured[len(measured) // 2]
        > 10e-3,
        "s0_misses_the_rise": measured[hot] - s0[hot] > 10e-3,
        "s1_matches_measured_rise": bool(
            np.max(np.abs(np.asarray(s1) - np.asarray(measured))) < 5e-3
        ),
        "radja_progressively_flattens": spans[0.0]
        > spans[1.8e3]
        > spans[2.5e3]
        and spans[2.7e3] < spans[1.8e3],
        "radja_ordering_at_hot_end": s1[hot]
        > trimmed[1.8e3][hot]
        > trimmed[2.5e3][hot]
        > trimmed[2.7e3][hot],
        "vref_window_plausible": all(
            1.18 < v < 1.28 for row in rows for v in row[1:]
        ),
    }
    notes = (
        f"Standard card couple (C1 @ handbook XTI): EG={standard[0]:.4f}, "
        f"XTI={standard[1]:.2f}; analytical in-situ couple: "
        f"EG={extracted[0]:.4f}, XTI={extracted[1]:.3f} (true couple "
        f"EG={true_couple[0]:.4f}, XTI={true_couple[1]:.4f}).  "
        f"Measured-S0 gap at 145 C: "
        f"{1000.0 * (measured[hot] - s0[hot]):.1f} mV; max |S1-measured| = "
        f"{1000.0 * float(np.max(np.abs(np.asarray(s1) - np.asarray(measured)))):.2f} mV.  "
        "VREF spans per RadjA: "
        + ", ".join(f"{r/1e3:.1f}k: {1000.0*s:.1f} mV" for r, s in sorted(spans.items()))
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Fig. 8 — VREF(T): measured vs S0 and the RadjA sweep S1-S4",
        columns=[
            "T [C]",
            "measured [V]",
            "S0 std card [V]",
            "S1 RadjA=0 [V]",
            "S2 1.8k [V]",
            "S3 2.5k [V]",
            "S4 2.7k [V]",
        ],
        rows=rows,
        checks=checks,
        notes=notes,
    )


def _sweep(config: BandgapCellConfig, temps_k) -> np.ndarray:
    bandgap = BehaviouralBandgap(config)
    return np.array([bandgap.vref(t) for t in temps_k])
