"""Session API tour: one engine lifecycle, declarative plans, and the
solved-point warm-start cache.

Builds ONE :class:`Session` for the paper's Fig. 3 bandgap test cell
and runs four analyses through it — an operating point, the Fig. 8
temperature sweep, a supply-regulation DC sweep and a Monte-Carlo
resistor-spread study — all as declarative plans.  Watch the cache
counters: only the FIRST analysis pays the cold-start gain-stepping
ladder; everything after warm-starts from the nearest already-solved
point (the temperature sweep even anchors its traversal at the cached
temperature and chains outward).

Run:  PYTHONPATH=src python examples/session_sweep.py
"""

import numpy as np

from repro.circuits.bandgap_cell import CellNodes, build_bandgap_cell
from repro.spice import CurrentSource, DCSweep, MonteCarlo, OP, Session, TempSweep
from repro.spice.stats import STATS
from repro.units import celsius_to_kelvin

FIG8_TEMPS_K = tuple(celsius_to_kelvin(t) for t in range(-80, 146, 15))


def build_probed_cell():
    """The Fig. 3 cell plus a 0 A load-probe source on the reference."""
    circuit = build_bandgap_cell()
    circuit.add(CurrentSource("ITEST", "0", CellNodes().vref, 0.0))
    return circuit


def cache_line(start) -> str:
    """The solved-point cache counters moved since the ``start`` snapshot."""
    moved = STATS.delta_since(start)
    return (f"[cache: {moved['op_cache_hits']} hits, "
            f"{moved['op_cache_warm_starts']} warm starts, "
            f"{moved['op_cache_misses']} cold]")


def main() -> None:
    start = STATS.snapshot()
    session = Session(build_probed_cell)
    print(f"session: {session.circuit.title}  "
          f"(fingerprint {session.fingerprint})")

    # 1. One operating point: the only cold solve of the whole script.
    op = session.run(OP(temperature_k=300.15))
    print(f"\n1. OP @ 300.15 K: VREF = {op.voltage('vref'):.6f} V "
          f"(strategy: {op.op.strategy})  {cache_line(start)}")

    # 2. The Fig. 8 grid: anchors at 25 C (nearest the cached point),
    #    warm-starts there, chains outward — no gain-stepping ladder.
    sweep = session.run(TempSweep(temperatures_k=FIG8_TEMPS_K))
    vref = sweep.voltage("vref")
    print(f"\n2. TempSweep over {len(FIG8_TEMPS_K)} points: "
          f"VREF spans {1e3 * float(np.ptp(vref)):.1f} mV  "
          f"{cache_line(start)}")
    for temp_k, v in list(zip(FIG8_TEMPS_K, vref))[::5]:
        print(f"     {temp_k - 273.15:6.1f} C: {v:.5f} V")

    # 3. Output resistance: +-1 uA load probes warm-start off the
    #    cached room-temperature point (value nudges inside the warm
    #    band never re-run the ladder).
    reg = session.run(DCSweep(source="ITEST", values=(-1e-6, 0.0, 1e-6)))
    slope = np.gradient(reg.voltage("vref"), reg.values)[1]
    print(f"\n3. DCSweep of the load probe: dVREF/dI = {abs(slope):.3g} ohm "
          f"(the ideal-amplifier drive makes it tiny)  {cache_line(start)}")

    # 4. Monte Carlo over branch-resistor spread, fully declarative:
    #    every trial is an override set the planner validated up front.
    rng = np.random.default_rng(2002)
    nominal = session.circuit.element("RX1").resistance
    trials = tuple(
        (("RX1", "resistance", float(nominal * factor)),)
        for factor in rng.normal(1.0, 0.01, size=8)
    )
    mc = session.run(MonteCarlo(inner=OP(temperature_k=300.15), trials=trials))
    spread = mc.voltage("vref")
    print(f"\n4. MonteCarlo over RX1 +-1%: VREF = {spread.mean():.5f} V "
          f"+- {spread.std() * 1e3:.3f} mV ({len(mc)} trials)  "
          f"{cache_line(start)}")

    # Everything above shares one MNASystem, one Newton workspace and
    # one solved-point cache; results export uniformly:
    print("\nexported:", session.run(OP(record=("vref",))).to_dict()["voltages"])


if __name__ == "__main__":
    main()
