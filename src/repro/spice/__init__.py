"""A small SPICE: modified nodal analysis with a damped Newton DC solver.

The paper's Fig. 8 curves are SPICE temperature sweeps of a bandgap cell
with different model cards; since no external simulator is available
offline, this package implements the needed subset from scratch:

* :mod:`repro.spice.netlist` — circuit container and node bookkeeping;
* :mod:`repro.spice.elements` — R, V/I sources, controlled sources,
  diode, Gummel-Poon BJT (with the parasitic substrate hook) and an
  op-amp macro-model;
* :mod:`repro.spice.mna` — residual/Jacobian assembly;
* :mod:`repro.spice.solver` — damped Newton-Raphson with gmin and
  source stepping;
* :mod:`repro.spice.analysis` — the result containers (operating
  points, sweeps, AC phasors);
* :mod:`repro.spice.transient` — time-domain transient analysis
  (backward Euler / trapezoidal with LTE-driven adaptive timestepping);
* :mod:`repro.spice.ac` — frequency-domain small-signal analysis
  (complex MNA ``(G + jwC) x = b`` at a solved operating point, the
  engine behind the PSRR / loop-gain / output-impedance experiments);
* :mod:`repro.spice.thermal` — the electro-thermal self-heating loop
  behind the paper's sensor-vs-die temperature discrepancy (Table 1);
* :mod:`repro.spice.parser` — a SPICE-flavoured netlist text parser
  (PULSE/PWL/SIN time-varying sources, and hierarchical
  ``.SUBCKT``/``X`` cards flattened recursively at parse time);
* :mod:`repro.spice.hierarchy` — generators for 1k-10k-unknown
  hierarchical benchmark netlists (arrayed bandgap cells, resistor
  ladders) that exercise the sparse assembly/``splu`` path;
* :mod:`repro.spice.plans` / :mod:`repro.spice.session` — the unified
  Session API: declarative analysis plans (``OP``, ``DCSweep``,
  ``TempSweep``, ``ACSweep``, ``Transient``, ``MonteCarlo``) run by a
  :class:`~repro.spice.session.Session` that owns one engine lifecycle
  per topology and a cross-analysis solved-point warm-start cache.
  It is the one entry point for every analysis; cross-topology batches
  go through :func:`~repro.spice.session.run_plans`.
"""

from .netlist import Circuit, GROUND
from .elements import (
    Capacitor,
    CurrentSource,
    Diode,
    OpAmp,
    Resistor,
    SpiceBJT,
    VCCS,
    VCVS,
    VoltageSource,
)
from .elements.sources import PWL, Pulse, Sin, Waveform
from .solver import SolverOptions, solve_dc, solve_dc_system
from .analysis import ACResult, OperatingPoint, SweepResult
from .ac import ACSystem, log_frequencies
from .transient import TransientOptions, TransientResult
from .plans import (
    ACSweep,
    AnalysisPlan,
    DCSweep,
    MonteCarlo,
    OP,
    PlanError,
    TempSweep,
    Transient,
)
from .session import (
    ACSweepResult,
    AnalysisResult,
    DCSweepResult,
    MonteCarloResult,
    OPResult,
    Session,
    SessionRecipe,
    TempSweepResult,
    TransientRunResult,
    run_plans,
)
from .thermal import ThermalSolution, solve_with_self_heating
from .parser import parse_netlist
from .hierarchy import bandgap_array, resistor_ladder

__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "SpiceBJT",
    "OpAmp",
    "Waveform",
    "Pulse",
    "PWL",
    "Sin",
    "SolverOptions",
    "solve_dc",
    "solve_dc_system",
    "OperatingPoint",
    "SweepResult",
    "ACResult",
    "ACSystem",
    "log_frequencies",
    "TransientOptions",
    "TransientResult",
    "AnalysisPlan",
    "OP",
    "DCSweep",
    "TempSweep",
    "ACSweep",
    "Transient",
    "MonteCarlo",
    "PlanError",
    "Session",
    "SessionRecipe",
    "run_plans",
    "AnalysisResult",
    "OPResult",
    "DCSweepResult",
    "TempSweepResult",
    "ACSweepResult",
    "TransientRunResult",
    "MonteCarloResult",
    "ThermalSolution",
    "solve_with_self_heating",
    "parse_netlist",
    "bandgap_array",
    "resistor_ladder",
]
