"""The in-process workloads: ``cell_characterize`` and ``array_scale``.

Each workload is an endless, seeded generator of operations.  An
operation builds a fresh :class:`~repro.spice.Session` and runs one or
two plans through the public API; :meth:`check` then verifies the
returned points with invariants that need no oracle (KCL residual at
every returned point, sweep points equal to the operating point at the
same value, identical array cells agreeing, the paper's VREF window).

Generation and checking are untimed: :func:`run_loop` times only
``op.run``.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.circuits import (
    PAPER_RADJA_SWEEP_OHM,
    BandgapCellConfig,
    StartupRampConfig,
    build_bandgap_cell,
    build_startup_bandgap_cell,
)
from repro.experiments.ac_common import build_psrr_cell
from repro.experiments.fig8_vref_curves import FIG8_TEMPS_C
from repro.experiments.psrr_vref import dc_line_regulation_db
from repro.spice import (
    OP,
    ACSweep,
    DCSweep,
    Session,
    SolverOptions,
    TempSweep,
    Transient,
    bandgap_array,
    log_frequencies,
    resistor_ladder,
)
from repro.spice import parser as spice_parser
from repro.spice.mna import MNASystem
from repro.spice.transient import TransientOptions
from repro.units import celsius_to_kelvin

#: The Newton solver's KCL tolerance [A]: every returned DC point must
#: satisfy it when its residual is re-evaluated from scratch.
ABSTOL = SolverOptions().abstol
#: Two solves of the same conditions from different starting points
#: agree to far better than this [V or A].
SAME_POINT_TOL = 1e-6
#: The paper's plausible VREF window (the Fig. 8 experiment's check) [V].
VREF_WINDOW = (1.18, 1.28)

FIG8_TEMPS_K = tuple(celsius_to_kelvin(t) for t in FIG8_TEMPS_C)
#: Operating temperatures the supply and PSRR sweeps cycle through [K].
CELL_TEMPS_K = (260.0, 290.0, 320.0, 350.0)
PSRR_FREQS_HZ = tuple(log_frequencies(10.0, 1e7, points_per_decade=4))


def identity(builder: Callable) -> Callable:
    return builder


def _stratified(levels, slot: int, rng: random.Random, jitter: float = 2.0) -> float:
    """The ``slot``-th level of a fixed cycle plus a small seeded jitter.

    Seeds move values, not the shape of the mix: every measurement
    block holds the same levels whatever the seed, so runs with
    different seeds do comparable work.
    """
    return levels[slot % len(levels)] + rng.uniform(-jitter, jitter)


def _solves_its_check(slot: int) -> bool:
    """Whether this op's check may run a solve of its own.

    Such checks alternate by rounds of four occurrences, so every level
    of a stratified cycle is covered while their cost (run time outside
    the measurement) is halved; the solve-free invariants check every op.
    """
    return (slot // 4) % 2 == 0


def _kcl_worst(circuit, points, overrides=(), source=None) -> float:
    """Largest KCL residual [A] over DC ``points`` of ``circuit``,
    re-evaluated on a fresh system under the plan's overrides (and, for
    a DC sweep, with ``source`` set to each point's swept value).

    ``circuit`` belongs to a finished op and is mutated freely.
    """
    for name, attribute, value in overrides:
        setattr(circuit.element(name), attribute, value)
    system = MNASystem(circuit)
    worst = 0.0
    for value, point in points:
        if source is not None:
            circuit.element(source).dc = value
            system.invalidate()
        system.set_temperature(point.temperature_k)
        worst = max(worst, system.kcl_residual(point.x))
    return worst


# ----------------------------------------------------------------------
# cell_characterize: the paper's 17-20-unknown bandgap test cells
# ----------------------------------------------------------------------

class Fig8Sweep:
    """The Fig. 8 VREF(T) sweep of the bandgap cell (16 points,
    -80..145 C) at one of the paper's RadjA trims, with a seeded RB
    override."""

    kind = "fig8_tempsweep"

    def __init__(self, rng: random.Random, slot: int):
        self.radja = PAPER_RADJA_SWEEP_OHM[slot % len(PAPER_RADJA_SWEEP_OHM)]
        self.overrides = (("RB", "resistance", 6.0e3 * (1.0 + rng.uniform(-0.01, 0.01))),)

    def run(self, build):
        session = Session(build(build_bandgap_cell), args=(BandgapCellConfig(radja=self.radja),))
        return session.run(TempSweep(temperatures_k=FIG8_TEMPS_K, overrides=self.overrides))

    def check(self, result) -> Optional[str]:
        vref = result.voltage("vref")
        if not np.all((VREF_WINDOW[0] < vref) & (vref < VREF_WINDOW[1])):
            return f"VREF outside {VREF_WINDOW}: {vref.min():.4f}..{vref.max():.4f} V"
        worst = _kcl_worst(result.circuit, [(None, p) for p in result.points], self.overrides)
        if worst >= ABSTOL:
            return f"KCL residual {worst:.3g} A >= abstol"
        return None


class SupplySweep:
    """A DC sweep of the PSRR cell's supply around 5 V (seeded range)
    at one of four operating temperatures."""

    kind = "supply_dcsweep"

    def __init__(self, rng: random.Random, slot: int):
        low = 4.5 + rng.uniform(-0.3, 0.3)
        self.values = tuple(float(v) for v in np.linspace(low, low + 1.0, 11))
        self.temperature_k = _stratified(CELL_TEMPS_K, slot, rng)
        self.probe = rng.randrange(len(self.values))
        self.solve_check = _solves_its_check(slot)

    def run(self, build):
        session = Session(build(build_psrr_cell))
        return session.run(
            DCSweep(source="VDD", values=self.values, temperature_k=self.temperature_k)
        )

    def check(self, result) -> Optional[str]:
        worst = _kcl_worst(
            result.circuit, list(zip(self.values, result.points)), source="VDD"
        )
        if worst >= ABSTOL:
            return f"KCL residual {worst:.3g} A >= abstol"
        if not self.solve_check:
            return None
        value = self.values[self.probe]
        op = Session(build_psrr_cell).run(
            OP(temperature_k=self.temperature_k, overrides=(("VDD", "dc", value),))
        ).op
        gap = float(np.max(np.abs(op.x - result.points[self.probe].x)))
        if gap > SAME_POINT_TOL:
            return f"sweep point at VDD={value:.4f} differs from its OP by {gap:.3g}"
        return None


class PsrrSweep:
    """The PSRR ACSweep (10 Hz..10 MHz) of the cell at one of four
    operating temperatures."""

    kind = "psrr_acsweep"

    def __init__(self, rng: random.Random, slot: int):
        self.temperature_k = _stratified(CELL_TEMPS_K, slot, rng)
        self.solve_check = _solves_its_check(slot)

    def run(self, build):
        session = Session(build(build_psrr_cell))
        return session.run(
            ACSweep(frequencies_hz=PSRR_FREQS_HZ, temperatures_k=(self.temperature_k,))
        )

    def check(self, result) -> Optional[str]:
        psrr_db = -result.magnitude_db("vref")
        if float(np.min(psrr_db)) <= 40.0:
            return f"PSRR {np.min(psrr_db):.1f} dB <= 40 dB"
        op = result.result_at(0).op
        worst = _kcl_worst(result.circuit, [(None, op)])
        if worst >= ABSTOL:
            return f"KCL residual {worst:.3g} A >= abstol"
        if not self.solve_check:
            return None
        # The w -> 0 limit of the AC transfer is the DC line regulation.
        dc_db = dc_line_regulation_db(self.temperature_k)
        if abs(float(psrr_db[0]) - dc_db) >= 0.5:
            return f"low-frequency PSRR {psrr_db[0]:.2f} dB vs DC {dc_db:.2f} dB"
        return None


class StartupTransient:
    """The VDD-ramp startup transient of the cell (adaptive trapezoidal)
    with one of four ramp times, near room temperature."""

    kind = "startup_transient"

    def __init__(self, rng: random.Random, slot: int):
        ramp_s = (44e-6, 48e-6, 52e-6, 56e-6)[slot % 4] * (1.0 + rng.uniform(-0.02, 0.02))
        self.ramp = StartupRampConfig(ramp=ramp_s)
        self.temperature_k = 300.15 + rng.uniform(-5.0, 5.0)
        self.t_stop = self.ramp.t_on + 150e-6
        self.solve_check = _solves_its_check(slot)

    def run(self, build):
        session = Session(
            build(build_startup_bandgap_cell), args=(self.ramp,), temperature_k=self.temperature_k
        )
        options = TransientOptions(method="trap", adaptive=True)
        return session.run(
            Transient(t_stop=self.t_stop, temperature_k=self.temperature_k, options=options)
        ).result

    def check(self, result) -> Optional[str]:
        if max(result.step_residuals) >= 1e-6:
            return "a timestep was accepted on an unconverged iterate"
        if abs(result.voltage_at("vref", 0.5 * self.ramp.delay)) >= 5e-3:
            return "VREF is not dead before the supply ramps"
        settled = float(result.voltage("vref")[-1])
        if not VREF_WINDOW[0] < settled < VREF_WINDOW[1]:
            return f"settled VREF {settled:.4f} V outside {VREF_WINDOW}"
        if not self.solve_check:
            return None
        dc = Session(build_startup_bandgap_cell, args=(self.ramp,)).run(
            OP(temperature_k=self.temperature_k, time=self.t_stop)
        ).op
        if abs(settled - dc.voltage("vref")) >= 1e-3:
            return f"settled VREF {settled:.5f} V vs DC {dc.voltage('vref'):.5f} V"
        return None


CELL_MIX = (Fig8Sweep, SupplySweep, Fig8Sweep, PsrrSweep, StartupTransient)


def cell_ops(seed: int) -> Iterator:
    rng = random.Random(f"cell_characterize/{seed}")
    slots: Dict[type, int] = {}
    for index in itertools.count():
        kind = CELL_MIX[index % len(CELL_MIX)]
        slots[kind] = slots.get(kind, -1) + 1
        yield kind(rng, slots[kind])


# ----------------------------------------------------------------------
# array_scale: generated 500-2200-unknown sparse decks
# ----------------------------------------------------------------------

_CELL_RL = re.compile(r"^X\d+ vdd (o\d+) BGCELL rl=(\S+)$", re.MULTILINE)


class ArrayDeck:
    """Parse a generated deck, build a session, run ``OP`` then a
    3-point ``TempSweep`` centred on the OP's temperature (alternating
    280/330 K centres and 15/25 K steps, each with seeded jitter)."""

    def __init__(self, rng: random.Random, family: str, size: int, slot: int):
        self.kind = f"{family}_{size}"
        self.family = family
        if family == "bandgap_array":
            jitter = 0.0 if rng.random() < 1.0 / 3.0 else rng.uniform(0.05, 0.2)
            self.deck = bandgap_array(cells=size, vdd=rng.uniform(2.7, 3.3), jitter=jitter)
        else:
            self.deck = resistor_ladder(sections=size, vin=rng.uniform(0.5, 2.0))
        self.temperature_k = _stratified((280.0, 330.0), slot, rng)
        step = (15.0, 25.0)[slot % 2] + rng.uniform(-2.0, 2.0)
        self.temperatures_k = (
            self.temperature_k - step, self.temperature_k, self.temperature_k + step
        )

    def run(self, build):
        circuit = spice_parser.parse_netlist(self.deck)
        session = Session(circuit)
        op = session.run(OP(temperature_k=self.temperature_k)).op
        sweep = session.run(TempSweep(temperatures_k=self.temperatures_k))
        return session, op, sweep

    def check(self, result) -> Optional[str]:
        session, op, sweep = result
        gap = float(np.max(np.abs(sweep.points[1].x - op.x)))
        if gap > SAME_POINT_TOL:
            return f"sweep point at {self.temperature_k:.2f} K differs from its OP by {gap:.3g}"
        system = session.system
        # The system still sits at the last sweep temperature: start
        # there, so only two of the three checks re-temperature it.
        for point in (sweep.points[2], op, sweep.points[0]):
            system.set_temperature(point.temperature_k)
            residual = system.kcl_residual(point.x)
            if residual >= ABSTOL:
                return f"KCL residual {residual:.3g} A >= abstol at {point.temperature_k:.2f} K"
        if self.family == "bandgap_array":
            groups: Dict[str, List[float]] = {}
            for node, rl in _CELL_RL.findall(self.deck):
                groups.setdefault(rl, []).append(op.voltage(node))
            spread = max(max(v) - min(v) for v in groups.values())
            if spread > 1e-9:
                return f"identical cells disagree by {spread:.3g} V"
        return None


ARRAY_MIX = (
    ("bandgap_array", 60), ("resistor_ladder", 250),
    ("bandgap_array", 120), ("resistor_ladder", 500),
    ("bandgap_array", 180), ("resistor_ladder", 750),
    ("bandgap_array", 240), ("resistor_ladder", 1000),
)


def array_ops(seed: int) -> Iterator:
    rng = random.Random(f"array_scale/{seed}")
    for index in itertools.count():
        family, size = ARRAY_MIX[index % len(ARRAY_MIX)]
        yield ArrayDeck(rng, family, size, index // len(ARRAY_MIX))


GENERATORS = {"cell_characterize": cell_ops, "array_scale": array_ops}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

class LoopResult:
    def __init__(self):
        #: ``(elapsed_s, cpu_s, ok)`` of every op, in order.
        self.ops: List[Tuple[float, float, bool]] = []
        #: Host-speed references taken before the first op and right
        #: after every op, when the loop takes them.
        self.references: List[Tuple[float, float]] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failures: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


def run_loop(
    ops: Iterator,
    seconds: float,
    max_ops: Optional[int] = None,
    build: Callable = identity,
    check: bool = True,
    recorder=None,
    counters: Optional[Callable[[], Dict[str, float]]] = None,
    reference: Optional[Callable[[], Tuple[float, float]]] = None,
) -> LoopResult:
    """One client, closed loop: the next op starts when the last ends.

    Runs until ``seconds`` of op time have been spent (or ``max_ops``
    ops, when given).  Only ``op.run`` is timed; a failed or wrong op
    counts in ``failures`` keyed by error type, never in the latencies.
    ``recorder`` spans and the ``counters()`` delta cover ``op.run``
    only, not the checks' own solves.  ``reference()`` (see
    ``perfbench/calibrate.py``) runs before the first op and right
    after each op, outside the op's time.
    """
    out = LoopResult()
    if reference is not None:
        out.references.append(reference())
    while out.busy_s < seconds if max_ops is None else out.attempted < max_ops:
        op = next(ops)
        before = counters() if counters is not None else None
        if recorder is not None:
            recorder.active = True
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            result = op.run(build)
            error = None
        except Exception as exc:  # the loop must keep running; attribute it
            result, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if recorder is not None:
            recorder.active = False
        if reference is not None:
            out.references.append(reference())
        if before is not None:
            for key, value in counters().items():
                out.counters[key] = out.counters.get(key, 0) + value - before.get(key, 0)
        out.busy_s += elapsed
        out.attempted += 1
        if error is None and check:
            reason = op.check(result)
            error = None if reason is None else f"{op.kind}: wrong result: {reason}"
        if error is not None:
            out.fail(error)
        out.ops.append((elapsed, cpu, error is None))
    return out
