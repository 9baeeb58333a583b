"""repro — reproduction of "Test Structure for IC(VBE) Parameter
Determination of Low Voltage Applications" (Rahajandraibe et al., DATE 2002).

The library provides, bottom-up:

* :mod:`repro.physics` — silicon bandgap/intrinsic-carrier/mobility models
  and the Gummel-Poon ``IS(T)`` derivation (paper eqs. 2-12, Fig. 1);
* :mod:`repro.bjt` — the DC Gummel-Poon device model, Gummel sweeps
  (Fig. 5), the parasitic substrate PNP and the matched pair (Fig. 2);
* :mod:`repro.spice` — a modified-nodal-analysis nonlinear DC simulator
  with temperature sweeps and electro-thermal self-heating;
* :mod:`repro.circuits` — the programmable bandgap test cell (Fig. 3) and
  companions;
* :mod:`repro.measurement` — simulated lab: instruments, thermal chamber,
  process-spread samples, measurement campaigns;
* :mod:`repro.extraction` — the two extraction methods under comparison:
  classical ``VBE(T)`` best fitting (eq. 13, Fig. 6) and the analytical
  Meijer method with computed die temperatures (eqs. 14-20, Table 1);
* :mod:`repro.analysis` — sensitivity studies and Monte-Carlo;
* :mod:`repro.experiments` — regeneration of every figure and table.

Quickstart::

    from repro.bjt import BJTParameters, GummelPoonModel
    from repro.extraction import fit_vbe_characteristic

    model = GummelPoonModel(BJTParameters())
    temps = [248.15, 273.15, 298.15, 323.15, 348.15]
    vbe = [model.vbe_for_ic(1e-6, t) for t in temps]
    result = fit_vbe_characteristic(temps, vbe, ic=1e-6, reference_k=298.15)
    print(result.eg, result.xti)
"""

from .constants import (
    K_BOLTZMANN,
    K_BOLTZMANN_EV,
    K_OVER_Q,
    Q_ELECTRON,
    T_NOMINAL,
    ZERO_CELSIUS,
    thermal_voltage,
)
from .errors import (
    ConvergenceError,
    ExtractionError,
    FaultInjected,
    MeasurementError,
    ModelError,
    NetlistError,
    ReproError,
    WorkerCrash,
)
from .resilience import Outcome, RunPolicy

__version__ = "1.0.0"

__all__ = [
    "K_BOLTZMANN",
    "K_BOLTZMANN_EV",
    "K_OVER_Q",
    "Q_ELECTRON",
    "T_NOMINAL",
    "ZERO_CELSIUS",
    "thermal_voltage",
    "ReproError",
    "NetlistError",
    "ConvergenceError",
    "ExtractionError",
    "FaultInjected",
    "WorkerCrash",
    "Outcome",
    "RunPolicy",
    "MeasurementError",
    "ModelError",
    "__version__",
]
