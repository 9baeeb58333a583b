"""Ablation experiments: the paper's numbered robustness claims and the
library's own design-choice checks.

* ``ablation_sensitivity`` — E6 (1% VBE -> up to 8% EG), E7 (dT2 < 5 K
  harmless) and E9 (IS(T) ~20 %/K);
* ``ablation_current_ratio`` — E8: the correction coefficient
  ``A = (k*T2/q) ln X`` evaluated at the paper's own operating point
  (T1 = 0 C, T2 = 100 C), expected ~0.3 mV i.e. ~0.45% of dVBE;
* ``ablation_solver`` — the netlist MNA path against the behavioural
  closed-form path (DESIGN.md design decision 1).
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.sensitivity import (
    eg_error_from_vbe_gain_error,
    eg_error_worst_single_point,
    is_sensitivity_band,
    reference_temperature_robustness,
)
from ..circuits.bandgap_cell import BandgapCellConfig, build_bandgap_cell, measure_vref
from ..circuits.reference import BehaviouralBandgap
from ..constants import thermal_voltage
from ..extraction.temperature import a_coefficient, current_ratio_x
from ..measurement.samples import DeviceSample
from ..spice.plans import TempSweep
from ..spice.session import Session
from ..units import celsius_to_kelvin
from .registry import ExperimentResult, register


@register("ablation_sensitivity")
def run_sensitivity() -> ExperimentResult:
    gain_error = abs(eg_error_from_vbe_gain_error(0.01))
    worst_point = eg_error_worst_single_point(0.01)
    dt2 = reference_temperature_robustness((-5.0, -3.0, 3.0, 5.0))
    is_band = is_sensitivity_band()

    rows = [
        ("E6 gain error 1% -> |dEG|/EG", f"{100.0 * gain_error:.2f} %"),
        ("E6 worst single point 1% -> |dEG|/EG", f"{100.0 * worst_point:.1f} %"),
        ("E7 max |dEG|/EG for |dT2| <= 5 K", f"{100.0 * float(dt2[:, 0].max()):.2e} %"),
        ("E7 max |dXTI| for |dT2| <= 5 K", f"{float(dt2[:, 1].max()):.3f}"),
        ("E9 IS sensitivity band", f"{is_band[0]:.1f}..{is_band[1]:.1f} %/K"),
    ]
    checks = {
        "paper_8_percent_inside_error_bracket": gain_error < 0.08 < worst_point,
        "dt2_leaves_eg_invariant": float(dt2[:, 0].max()) < 1e-10,
        "dt2_xti_drift_small": float(dt2[:, 1].max()) < 0.08,
        "is_sensitivity_reaches_20_percent": is_band[1] > 18.0,
    }
    notes = (
        "Paper section 3 claims: 1% VBE error -> up to 8% EG error "
        "(bracketed by our coherent-gain and worst-single-point cases); "
        "dT2 < 5 K has no significant influence (EG exactly invariant "
        "under the coherent axis stretch, XTI drifts ~0.011/K); IS "
        "sensitivity around 20 %/K (ours peaks at the cold end)."
    )
    return ExperimentResult(
        experiment_id="ablation_sensitivity",
        title="Ablations E6/E7/E9 — error-propagation claims",
        columns=["quantity", "value"],
        rows=rows,
        checks=checks,
        notes=notes,
    )


@register("ablation_current_ratio")
def run_current_ratio() -> ExperimentResult:
    # The paper's own evaluation point: T1 = 0 C, T2 = 100 C, with the
    # on-chip bias whose QB/QA ratio drifts with temperature.
    t1 = celsius_to_kelvin(0.0)
    t2 = celsius_to_kelvin(100.0)
    sample = DeviceSample(current_ratio_drift_per_k=1.0e-4)
    ratio_law = sample.current_ratio_law(reference_k=t2)
    ia = sample.bias_current_a
    x = current_ratio_x(
        ic_a_t1=ia,
        ic_b_t1=ia * ratio_law(t1),
        ic_a_t2=ia,
        ic_b_t2=ia * ratio_law(t2),
    )
    a = a_coefficient(t2, x)
    dvbe_t2 = thermal_voltage(t2) * math.log(8.0)
    # The paper quotes dVBE(T2) = 70 mV (their pair runs a slightly
    # larger effective ratio); report against both.
    rows = [
        ("X (eq. 20)", f"{x:.5f}"),
        ("A = (k*T2/q) ln X", f"{1000.0 * abs(a):.3f} mV"),
        ("dVBE(T2) of a p=8 pair", f"{1000.0 * dvbe_t2:.1f} mV"),
        ("A / dVBE(T2)", f"{100.0 * abs(a) / dvbe_t2:.2f} %"),
        ("A / 70 mV (paper's dVBE)", f"{100.0 * abs(a) / 70e-3:.2f} %"),
    ]
    checks = {
        "a_in_fraction_of_mv_range": 0.05e-3 < abs(a) < 1.0e-3,
        "a_below_one_percent_of_dvbe": abs(a) / dvbe_t2 < 0.01,
    }
    notes = (
        "Paper section 4: A ~ 0.3 mV, i.e. 0.45% of dVBE(T2) = 70 mV for "
        "T1 = 0 C, T2 = 100 C — 'the temperature variation of IC has a "
        "weak influence on the values of T1 and T2'.  Our on-chip bias "
        "drift model lands in the same fraction-of-a-millivolt decade."
    )
    return ExperimentResult(
        experiment_id="ablation_current_ratio",
        title="Ablation E8 — the eq. 19-20 correction coefficient A",
        columns=["quantity", "value"],
        rows=rows,
        checks=checks,
        notes=notes,
    )


@register("ablation_solver")
def run_solver() -> ExperimentResult:
    # DESIGN.md decision 1: two simulation paths for the cell.
    temps_c = (-55.0, -5.0, 45.0, 95.0, 145.0)
    temps_k = tuple(celsius_to_kelvin(t) for t in temps_c)
    variants = (
        ("ideal", BandgapCellConfig(substrate_unit=None)),
        ("leaky", BandgapCellConfig()),
        ("trimmed", BandgapCellConfig(radja=2.5e3)),
    )
    # One session per configuration, each sweeping the same grid.
    sweep = TempSweep(temperatures_k=temps_k)
    sweeps = [
        Session(build_bandgap_cell, args=(config,)).run(sweep)
        for _label, config in variants
    ]
    rows = []
    worst = 0.0
    for (label, config), netlist in zip(variants, sweeps):
        behavioural = BehaviouralBandgap(config)
        for temp_c, point in zip(temps_c, netlist.points):
            difference = behavioural.vref(point.temperature_k) - measure_vref(point)
            worst = max(worst, abs(difference))
            rows.append((label, temp_c, round(measure_vref(point), 5),
                         round(1000.0 * difference, 3)))
    checks = {
        "paths_agree_below_5mv": worst < 5e-3,
    }
    notes = (
        f"Worst netlist-vs-behavioural VREF difference: {1000.0 * worst:.2f} mV "
        "(residual: finite op-amp gain equilibrium and base-current "
        "routing).  The behavioural path powers the Fig. 8 sweep and the "
        "Monte-Carlo; the MNA netlist validates it."
    )
    return ExperimentResult(
        experiment_id="ablation_solver",
        title="Ablation — netlist MNA vs behavioural bandgap",
        columns=["config", "T [C]", "VREF netlist [V]", "beh - netlist [mV]"],
        rows=rows,
        checks=checks,
        notes=notes,
    )
