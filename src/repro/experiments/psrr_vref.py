"""PSRR(f) of the bandgap test cell at several chamber temperatures.

Supply rejection is the first of the cell's headline behavioural
metrics that only a frequency-domain analysis can produce: a unit AC
excitation on the sensed VDD rail propagates into ``vref`` through the
amplifier macro's rail-tracking output window, attenuated by the loop
gain — so PSRR is flat at ``|slope_rail| / (1 + T0)`` up to the loop
bandwidth and then *improves* as the amplifier pole rolls the supply
path off faster than the loop gain falls.

Anchor check (the acceptance criterion of this experiment): at the
lowest swept frequency the AC transfer must equal the *DC line
regulation* slope ``dVREF/dVDD`` computed by central finite differences
over a two-point :class:`~repro.spice.plans.DCSweep` of the supply —
the frequency-domain engine and the DC engine must agree on the
w -> 0 limit to within 0.5 dB.
"""

from __future__ import annotations

import numpy as np

from ..spice.ac import log_frequencies
from ..spice.plans import ACSweep, DCSweep
from ..spice.session import Session
from ..circuits.bandgap_cell import measure_vref
from ..units import celsius_to_kelvin
from .ac_common import build_psrr_cell
from .registry import ExperimentResult, register

#: Chamber temperatures, matching Table 1's rows [C].
PSRR_TEMPS_C = (-26.15, 23.85, 74.85)

#: Swept band [Hz].
PSRR_F_START, PSRR_F_STOP = 10.0, 1e7


def dc_line_regulation_db(
    temperature_k: float,
    delta_v: float = 1e-3,
    session: Session = None,
) -> float:
    """``-20 log10 |dVREF/dVDD|`` by finite differences on DC solves.

    One ``DCSweep`` of the supply source: both probe points share the
    session's system and the second warm-starts off the first.  Passing
    the experiment's own ``session`` lets the probe points warm-start
    from the AC sweep's already-cached operating point (the supply
    nudge is well inside the cache's warm-start band), so the
    finite-difference anchor costs no fresh gain-stepping ladder.
    """
    session = session or Session(build_psrr_cell)
    vdd = float(session.circuit.element("VDD").dc)
    sweep = session.run(
        DCSweep(
            source="VDD",
            values=(vdd - delta_v, vdd + delta_v),
            temperature_k=temperature_k,
        )
    )
    low, high = (measure_vref(point) for point in sweep.points)
    slope = (high - low) / (2.0 * delta_v)
    return -20.0 * float(np.log10(abs(slope)))


@register("psrr_vref")
def run() -> ExperimentResult:
    temps_k = tuple(celsius_to_kelvin(t) for t in PSRR_TEMPS_C)
    frequencies = log_frequencies(PSRR_F_START, PSRR_F_STOP, points_per_decade=4)

    # ONE session for the whole experiment: the three temperatures
    # warm-chain inside one ACSweep plan, and the DC line-regulation
    # anchor below rides the same solved-point cache.
    session = Session(build_psrr_cell)
    ac = session.run(
        ACSweep(frequencies_hz=tuple(frequencies), temperatures_k=temps_k)
    )
    results = ac.ac_results
    psrr_db = [-result.magnitude_db("vref") for result in results]

    rows = [
        (
            float(f"{frequency:.6g}"),
            round(float(psrr_db[0][i]), 2),
            round(float(psrr_db[1][i]), 2),
            round(float(psrr_db[2][i]), 2),
        )
        for i, frequency in enumerate(frequencies)
    ]

    # The w -> 0 anchor at the middle (room) temperature.
    fd_db = dc_line_regulation_db(temps_k[1], session=session)
    ac_low_db = float(psrr_db[1][0])

    low_band = frequencies <= 1e3
    checks = {
        "low_frequency_psrr_matches_dc_line_regulation_within_0p5db": bool(
            abs(ac_low_db - fd_db) < 0.5
        ),
        "psrr_flat_through_the_loop_bandwidth": bool(
            all(
                float(np.ptp(curve[low_band])) < 1.0 for curve in psrr_db
            )
        ),
        "psrr_improves_beyond_the_loop_crossover": bool(
            all(float(curve[-1]) > float(curve[0]) + 20.0 for curve in psrr_db)
        ),
        "psrr_exceeds_40db_everywhere": bool(
            all(float(np.min(curve)) > 40.0 for curve in psrr_db)
        ),
        "worst_case_rejection_is_the_low_frequency_floor": bool(
            all(
                float(np.min(curve)) > float(curve[0]) - 1.0 for curve in psrr_db
            )
        ),
    }
    notes = (
        f"DC line regulation at {PSRR_TEMPS_C[1]:.2f} C by finite "
        f"differences: {fd_db:.2f} dB; AC value at "
        f"{frequencies[0]:.0f} Hz: {ac_low_db:.2f} dB "
        f"(delta {abs(ac_low_db - fd_db) * 1e3:.3f} mdB).  The flat floor "
        "is |slope_rail|/(1+T0) — supply ripple entering through the "
        "amplifier's rail-tracking window, divided down by the loop — "
        "and rejection improves past the loop bandwidth because the "
        "amplifier pole rolls off the supply path itself."
    )
    return ExperimentResult(
        experiment_id="psrr_vref",
        title="PSRR(f) of the bandgap cell vs temperature (AC analysis)",
        columns=["f [Hz]"]
        + [f"PSRR@{t:+.0f}C [dB]" for t in PSRR_TEMPS_C],
        rows=rows,
        checks=checks,
        notes=notes,
    )
