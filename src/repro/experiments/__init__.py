"""Experiment runners: one module per paper artefact.

Every table and figure of the paper's evaluation has a runner that
regenerates its data and checks the shape criteria of DESIGN.md:

======================  =========================================
``fig1``                EG(T) model comparison (Fig. 1)
``fig5``                IC(VBE) family (Fig. 5)
``fig6``                characteristic straights C1/C2/C3 (Fig. 6)
``table1``              sensor vs computed temperatures (Table 1)
``fig8``                VREF(T): measured, S0, S1-S4 (Fig. 8)
``ablation_sensitivity``   E6/E7/E9 robustness claims
``ablation_current_ratio`` E8: the A = (kT2/q) ln X magnitude
``ablation_solver``        netlist vs behavioural cross-check
``startup_transient``      VDD-ramp startup of both reference cells
``psrr_vref``              PSRR(f) of the cell vs temperature (AC)
``loop_gain``              feedback-loop Bode plot with margins (AC)
``zout_vref``              output impedance vs frequency (AC)
``large_n``                1k+-unknown hierarchical netlists, sparse path
``service_warm_start``     HTTP service + persistent cache across restarts
======================  =========================================

Use :func:`run_experiment`/:func:`run_all` or ``python -m repro``.

Importing this package loads no runner module: the registry imports
them on the first read of :data:`EXPERIMENTS` (through
:func:`run_experiment`, :func:`run_all` or a lookup of its own), so
``import repro.experiments.ac_common`` loads that module alone and
``python -m repro --serve`` loads none.
"""

from .registry import EXPERIMENTS, ExperimentResult, run_all, run_experiment
from .report import render_result, render_summary

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "run_all",
    "render_result",
    "render_summary",
]
