"""Tests for the unified Session analysis API.

Three contracts:

* **plan validation** — malformed plans raise a typed PlanError before
  any solve runs (empty grids, unknown nodes/elements, conflicting
  overrides, inconsistent windows);
* **solved-point cache** — exact hits skip the solve, nearby points
  warm-start it, and a temperature nudge / override change / direct
  mutation can never return a stale point;
* **Session-vs-engine equality** — a fresh session reproduces the
  engine-level solves across the whole circuit-family registry, on
  both device-evaluator paths, to 1e-12 of the solution scale.

Plans run in-process; process fan-out is ``supervised_map``'s job.  The
fanned tests map module-level tasks over a pool and pin that results
and solved points cross it intact.
"""

import gc
import inspect
import json
import os
import weakref

import numpy as np
import pytest

from repro.errors import NetlistError, PlanError
from repro.parallel import supervised_map
from repro.spice import (
    ACSweep,
    Capacitor,
    Circuit,
    CurrentSource,
    DCSweep,
    Diode,
    MonteCarlo,
    OP,
    Pulse,
    Resistor,
    Session,
    TempSweep,
    Transient,
    VoltageSource,
)
from repro.spice.hierarchy import bandgap_array
from repro.spice.mna import MNASystem
from repro.spice.parser import parse_netlist
from repro.spice.solver import (
    NewtonWorkspace,
    SecantChain,
    SolverOptions,
    secant_start,
    solve_dc_system,
)
from repro.spice.stats import STATS
from repro.telemetry.tracer import tracing

from families import CIRCUITS, assert_stamps_close


def diode_circuit():
    c = Circuit("diode under drive")
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


def bandgap_array_24():
    """A 24-cell generated array (~220 unknowns, sparse)."""
    return parse_netlist(bandgap_array(cells=24))


def rc_circuit():
    c = Circuit("rc")
    c.add(VoltageSource("V1", "in", "0", 1.0, ac_mag=1.0))
    c.add(Resistor("R1", "in", "out", 1e3))
    c.add(Capacitor("C1", "out", "0", 1e-9))
    return c


# Pool work functions live at module level, so they pickle.

def run_pair(item):
    """One ``(builder, args, plan)`` item on its own session."""
    builder, args, plan = item
    return Session(builder, args=args).run(plan)


def array_voltage(plan):
    """One plan on a fresh 24-cell array session: its ``o0`` reading."""
    return Session(bandgap_array_24).run(plan).voltage("o0")


def exported_points(plans):
    """Run ``plans`` on a fresh diode session; its solved points as
    plain data (the form a store persists)."""
    session = Session(diode_circuit)
    for plan in plans:
        session.run(plan)
    return session.cache.export()


def run_seeded(item):
    """Seed a fresh diode session with exported points, then run one plan."""
    exported, plan = item
    session = Session(diode_circuit)
    session.cache.merge(exported)
    return session.run(plan)


def fanned(func, items, workers=2):
    """Map ``func`` over a process pool; the values, each of which
    really crossed it."""
    outcomes = supervised_map(func, items, max_workers=workers)
    assert all(outcome.worker_pid != os.getpid() for outcome in outcomes)
    return [outcome.value for outcome in outcomes]


class TestPlanValidation:
    def test_empty_temperature_grid(self):
        with pytest.raises(PlanError):
            TempSweep(temperatures_k=())

    def test_empty_frequency_grid(self):
        with pytest.raises(PlanError):
            ACSweep(frequencies_hz=())

    def test_empty_dc_values(self):
        with pytest.raises(PlanError):
            DCSweep(source="V1", values=())

    def test_negative_frequency(self):
        with pytest.raises(PlanError):
            ACSweep(frequencies_hz=(10.0, -1.0))

    def test_non_positive_temperature(self):
        with pytest.raises(PlanError):
            OP(temperature_k=0.0)

    def test_inverted_transient_window(self):
        with pytest.raises(PlanError):
            Transient(t_stop=0.0, t_start=1.0)

    def test_conflicting_overrides(self):
        with pytest.raises(PlanError, match="conflicting"):
            OP(overrides=(("R1", "resistance", 1e3), ("R1", "resistance", 2e3)))

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), True],
        ids=["nan", "inf", "-inf", "bool"],
    )
    def test_override_value_must_be_a_finite_number(self, value):
        override = (("R1", "resistance", value),)
        with pytest.raises(PlanError, match=r"R1\.resistance"):
            OP(overrides=override)
        with pytest.raises(PlanError, match=r"R1\.resistance"):
            MonteCarlo(inner=OP(), trials=(override,))

    def test_identical_repeated_override_folds(self):
        plan = OP(overrides=(("R1", "resistance", 1e3), ("R1", "resistance", 1e3)))
        assert plan.overrides == (("R1", "resistance", 1e3),)

    def test_unknown_element_before_any_solve(self):
        session = Session(diode_circuit)
        STATS.reset()
        with pytest.raises(PlanError, match="unknown element"):
            session.run(OP(overrides=(("RX", "resistance", 1e3),)))
        assert STATS.newton_solves == 0  # validation, not a failed solve

    def test_unknown_attribute(self):
        session = Session(diode_circuit)
        with pytest.raises(PlanError, match="no attribute"):
            session.run(OP(overrides=(("R1", "resistivity", 1e3),)))

    def test_unknown_record_node(self):
        session = Session(diode_circuit)
        with pytest.raises(PlanError, match="unknown node"):
            session.run(OP(record=("nowhere",)))

    def test_dc_sweep_rejects_non_source(self):
        session = Session(diode_circuit)
        with pytest.raises(PlanError) as excinfo:
            session.run(DCSweep(source="R1", values=(1.0,)))
        # PlanError subclasses NetlistError: legacy callers keep working.
        assert isinstance(excinfo.value, NetlistError)

    def test_dc_sweep_rejects_unknown_source(self):
        session = Session(diode_circuit)
        with pytest.raises(PlanError, match="unknown element"):
            session.run(DCSweep(source="VX", values=(1.0,)))

    def test_dc_sweep_rejects_overriding_swept_source(self):
        with pytest.raises(PlanError, match="swept source"):
            DCSweep(source="V1", values=(1.0,), overrides=(("V1", "dc", 3.0),))

    def test_montecarlo_needs_inner_plan(self):
        with pytest.raises(PlanError):
            MonteCarlo(inner=None, trials=((("R1", "resistance", 1e3),),))

    def test_montecarlo_does_not_nest(self):
        inner = MonteCarlo(inner=OP(), trials=((("R1", "resistance", 1e3),),))
        with pytest.raises(PlanError, match="nest"):
            MonteCarlo(inner=inner, trials=((("R1", "resistance", 1e3),),))

    def test_montecarlo_empty_trials(self):
        with pytest.raises(PlanError):
            MonteCarlo(inner=OP(), trials=())

    def test_montecarlo_trial_conflicts_with_inner(self):
        with pytest.raises(PlanError, match="conflicting"):
            MonteCarlo(
                inner=OP(overrides=(("R1", "resistance", 1e3),)),
                trials=((("R1", "resistance", 2e3),),),
            )

    def test_montecarlo_trial_breaking_inner_plan_rule(self):
        # A trial override violating the INNER plan's own rules (here:
        # DCSweep's no-override-of-the-swept-source) must fail at
        # construction, not at trial k of n with k-1 solves spent.
        with pytest.raises(PlanError, match="swept source"):
            MonteCarlo(
                inner=DCSweep(source="V1", values=(1.0, 2.0)),
                trials=(
                    (("R1", "resistance", 2e3),),
                    (("V1", "dc", 3.0),),
                ),
            )

    def test_montecarlo_trial_conflicts_with_own_overrides(self):
        # The MonteCarlo plan's OWN overrides join the conflict check
        # too — at construction, not at trial k of n.
        with pytest.raises(PlanError, match="conflicting"):
            MonteCarlo(
                inner=OP(),
                overrides=(("R1", "resistance", 1e3),),
                trials=(
                    (("V1", "dc", 5.0),),
                    (("R1", "resistance", 2e3),),
                ),
            )

    def test_non_plan_rejected(self):
        session = Session(diode_circuit)
        with pytest.raises(PlanError, match="AnalysisPlan"):
            session.run("op")


class TestSolvedPointCache:
    @pytest.mark.parametrize("cache_points", [0, -1])
    def test_a_cache_with_no_room_is_refused_at_construction(self, cache_points):
        # Like CacheStore: refused up front, not a StopIteration from
        # the first insert after a finished solve.
        with pytest.raises(ValueError, match=f"max_points must be >= 1, got {cache_points}"):
            Session(diode_circuit, cache_points=cache_points)

    def test_exact_hit_skips_the_solve(self):
        session = Session(diode_circuit)
        first = session.run(OP())
        STATS.reset()
        second = session.run(OP())
        assert STATS.op_cache_hits == 1
        assert STATS.newton_solves == 0  # no Newton run at all
        np.testing.assert_array_equal(first.op.x, second.op.x)

    def test_nearby_temperature_warm_starts(self):
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))
        STATS.reset()
        warm = session.run(OP(temperature_k=310.0))
        assert STATS.op_cache_warm_starts == 1
        fresh = solve_dc_system(
            MNASystem(diode_circuit(), temperature_k=310.0),
            workspace=NewtonWorkspace(),
        )
        np.testing.assert_allclose(warm.op.x, fresh.x, rtol=1e-9, atol=1e-12)

    def test_temperature_nudge_is_never_stale(self):
        session = Session(diode_circuit)
        STATS.reset()
        base = session.run(OP(temperature_k=300.0))
        nudged = session.run(OP(temperature_k=300.01))
        # A different key: not an exact hit, and the answer moved.
        assert STATS.op_cache_hits == 0
        assert nudged.voltage("d") != base.voltage("d")
        fresh = solve_dc_system(
            MNASystem(diode_circuit(), temperature_k=300.01),
            workspace=NewtonWorkspace(),
        )
        np.testing.assert_allclose(
            nudged.op.x, fresh.x, rtol=1e-9, atol=1e-12
        )

    def test_override_change_is_never_stale(self):
        session = Session(diode_circuit)
        STATS.reset()
        base = session.run(OP())
        halved = session.run(OP(overrides=(("R1", "resistance", 500.0),)))
        assert STATS.op_cache_hits == 0
        assert halved.voltage("d") > base.voltage("d")  # more drive current
        # And the base point is restored (override rolled back + re-keyed).
        again = session.run(OP())
        assert again.voltage("d") == base.voltage("d")

    def test_diode_saturation_override_is_never_stale(self):
        # The scalar diode memoises its temperature law: a plan override
        # of ``is_`` at an unchanged temperature must still reach it.
        session = Session(diode_circuit)
        assert not session.system.vectorized
        base = session.run(OP())
        override = (("D1", "is_", 1e-14),)
        bumped = session.run(OP(overrides=override))
        fresh = Session(diode_circuit).run(OP(overrides=override))
        # The bumped point warm-starts off the base one: equal to solver
        # tolerance, not bitwise.
        np.testing.assert_allclose(bumped.op.x, fresh.op.x, rtol=0.0, atol=1e-9)
        # Ten times the saturation current: ~60 mV less junction drop.
        assert base.voltage("d") - bumped.voltage("d") > 0.05

    def test_time_keys_are_isolated(self):
        # A ramped source: the dead t=0 state must never answer (or
        # warm-start) the plain-DC solve.
        from repro.spice import Pulse

        def ramped():
            c = Circuit("ramp")
            c.add(
                VoltageSource(
                    "V1", "in", "0",
                    Pulse(v1=0.0, v2=5.0, delay=1e-6, rise=1e-6),
                )
            )
            c.add(Resistor("R1", "in", "d", 1e3))
            c.add(Diode("D1", "d", "0"))
            return c

        session = Session(ramped)
        dead = session.run(OP(time=0.0))
        assert abs(dead.voltage("d")) < 1e-6
        STATS.reset()
        powered = session.run(OP(time=1e-3))  # long after the ramp
        assert STATS.op_cache_hits == 0
        assert STATS.op_cache_warm_starts == 0  # different time key: cold
        assert powered.voltage("d") > 0.5

    def test_distant_temperature_does_not_warm_start(self):
        # 220 K away: a seeded plain Newton would just fail back onto
        # the ladder — slower than cold — so the cache must refuse and
        # the counters must report an honest miss.
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))
        STATS.reset()
        session.run(OP(temperature_k=80.0))
        assert STATS.op_cache_warm_starts == 0
        assert STATS.op_cache_misses == 1

    def test_large_value_change_does_not_warm_start(self):
        session = Session(diode_circuit)
        session.run(OP(overrides=(("V1", "dc", 0.0),)))  # dead supply
        STATS.reset()
        session.run(OP())  # powered: 5 V away, outside the warm band
        assert STATS.op_cache_warm_starts == 0
        assert STATS.op_cache_misses == 1

    def test_small_value_change_warm_starts(self):
        session = Session(diode_circuit)
        session.run(OP())
        STATS.reset()
        session.run(OP(overrides=(("V1", "dc", 5.0005),)))  # probe-scale
        assert STATS.op_cache_warm_starts == 1

    def test_invalidate_clears_the_cache(self):
        session = Session(diode_circuit)
        before = session.run(OP())
        # Out-of-band mutation + invalidate: the documented contract.
        session.circuit.element("R1").resistance = 500.0
        session.invalidate()
        assert len(session.cache) == 0
        STATS.reset()
        after = session.run(OP())
        assert STATS.op_cache_hits == 0
        assert after.voltage("d") > before.voltage("d")

    def test_dc_sweep_of_a_callable_valued_source(self):
        # A temperature-law source has a callable dc: sweeping it must
        # work (and restore the callable), with no cache coordinate.
        def lawful():
            c = Circuit("law")
            c.add(CurrentSource("I1", "0", "out", lambda t: 1e-6 * t))
            c.add(Resistor("R1", "out", "0", 1e3))
            return c

        session = Session(lawful)
        sweep = session.run(DCSweep(source="I1", values=(1e-3, 2e-3)))
        np.testing.assert_allclose(sweep.voltage("out"), [1.0, 2.0], rtol=1e-6)
        assert callable(session.circuit.element("I1").dc)  # restored

    def test_cache_capacity_bounded(self):
        session = Session(diode_circuit, cache_points=4)
        for temperature in (290.0, 295.0, 300.0, 305.0, 310.0, 315.0):
            session.run(OP(temperature_k=temperature))
        assert len(session.cache) == 4

    def test_anchored_sweep_amortises_the_ladder(self):
        from repro.circuits.bandgap_cell import build_bandgap_cell

        temps = tuple(np.linspace(253.15, 373.15, 9))
        plan = TempSweep(temperatures_k=temps)
        cold = Session(build_bandgap_cell)
        STATS.reset()
        cold_result = cold.run(plan)
        cold_factorizations = STATS.factorizations
        warm = Session(build_bandgap_cell)
        seed = warm.run(OP(temperature_k=300.15))  # seed: one solved point
        # The chain the anchor exists to beat: the same grid chained up
        # from the seed point, with no anchoring.  It starts 47 K away
        # from the seed and falls back onto the gain-stepping ladder
        # there.
        STATS.reset()
        naive = Session(build_bandgap_cell)
        chain = SecantChain()
        for temperature in temps:
            raw = naive.solve_raw(
                temperature,
                x0=seed.op.x if chain.x is None else chain.x,
                predicted=chain.start(temperature),
            )
            chain.push(temperature, raw.x)
        assert STATS.strategies.get("gain-stepping", 0) >= 1
        naive_factorizations = STATS.factorizations
        STATS.reset()
        warm_result = warm.run(plan)
        # The anchored traversal warm-started off the seed: no
        # gain-stepping ladder, far fewer factorizations...
        assert STATS.op_cache_warm_starts == 1
        assert "gain-stepping" not in STATS.strategies
        assert STATS.factorizations < 0.5 * naive_factorizations
        assert STATS.factorizations < cold_factorizations
        # ...and the same answer to solver tolerance.
        np.testing.assert_allclose(
            warm_result.voltage("vref"),
            cold_result.voltage("vref"),
            rtol=0.0,
            atol=1e-7,
        )

    def test_seeded_fig8_sweep_takes_one_warm_start(self):
        # The netlist Fig. 8 sweep, cold and then in a session holding
        # one 300.15 K point: off the 25 C grid point, so the anchored
        # traversal starts with a warm start, not an exact hit.
        from repro.circuits.bandgap_cell import build_bandgap_cell
        from repro.experiments.fig8_vref_curves import FIG8_TEMPS_C
        from repro.units import celsius_to_kelvin

        plan = TempSweep(
            temperatures_k=tuple(celsius_to_kelvin(t) for t in FIG8_TEMPS_C)
        )
        cold = Session(build_bandgap_cell).run(plan)
        seeded = Session(build_bandgap_cell)
        seeded.run(OP(temperature_k=300.15))
        STATS.reset()
        warm = seeded.run(plan)
        assert STATS.op_cache_warm_starts == 1
        for result in (cold, warm):
            vref = result.voltage("vref")
            assert np.all((1.15 < vref) & (vref < 1.30)), vref


@pytest.mark.usefixtures("device_eval_path")
class TestSessionMatchesEngine:
    """A fresh session reproduces the engine-level solves bit-for-bit
    (to the 1e-12-of-scale stamp contract) on every circuit family."""

    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_operating_point_equality(self, name):
        build = CIRCUITS[name]
        raw = solve_dc_system(MNASystem(build()), workspace=NewtonWorkspace())
        result = Session(build).run(OP())
        assert_stamps_close(result.op.x, raw.x)

    def test_temperature_sweep_equality(self):
        temps = (260.0, 300.0, 340.0)
        build = CIRCUITS["bandgap_cell"]
        system = MNASystem(build(), temperature_k=temps[0])
        workspace = NewtonWorkspace()
        expected = []
        for index, temperature in enumerate(temps):
            system.set_temperature(temperature)
            # The session's chain: each point from the previous one, with
            # the secant through the two before it as the predicted start.
            x_prev = expected[-1] if expected else None
            predicted = None
            if index >= 2:
                ratio = (temperature - temps[index - 1]) / (
                    temps[index - 1] - temps[index - 2]
                )
                predicted = expected[-1] + (expected[-1] - expected[-2]) * ratio
            raw = solve_dc_system(
                system, x0=x_prev, workspace=workspace, predicted=predicted
            )
            expected.append(raw.x)
        result = Session(build).run(TempSweep(temperatures_k=temps))
        for point, x in zip(result.points, expected):
            assert_stamps_close(point.x, x)

    def test_dc_sweep_equality(self):
        values = (1.0, 2.0, 4.0)
        circuit = diode_circuit()
        system = MNASystem(circuit)
        workspace = NewtonWorkspace()
        element = circuit.element("V1")
        expected = []
        x_prev = None
        for value in values:
            element.dc = value
            system.invalidate()
            raw = solve_dc_system(system, x0=x_prev, workspace=workspace)
            expected.append(raw.x)
            x_prev = raw.x
        element.dc = 5.0
        result = Session(diode_circuit).run(DCSweep(source="V1", values=values))
        for point, x in zip(result.points, expected):
            assert_stamps_close(point.x, x)
        # The swept source is restored on the session's own circuit too.
        assert result.circuit.element("V1").dc == 5.0

    def test_ac_equality(self):
        from repro.spice.ac import ACSystem

        freqs = (1e3, 1e5, 1e7)
        raw = solve_dc_system(MNASystem(rc_circuit()), workspace=NewtonWorkspace())
        system = MNASystem(rc_circuit())
        raw2 = solve_dc_system(system, workspace=NewtonWorkspace())
        expected = ACSystem(system, raw2.x).solve(freqs)
        result = Session(rc_circuit).run(ACSweep(frequencies_hz=freqs))
        assert_stamps_close(result.ac_results[0].x.real, expected.x.real)
        assert_stamps_close(result.ac_results[0].x.imag, expected.x.imag)
        assert_stamps_close(result.ac_results[0].op.x, raw.x)

    def test_transient_equality(self):
        from repro.spice.solver import solve_dc_system as _sds
        from repro.spice.transient import (
            TransientOptions,
            run_transient_system,
        )

        options = TransientOptions(dt_init=1e-7, adaptive=False)
        system = MNASystem(rc_circuit())
        initial = _sds(system, options=options.newton, time=0.0,
                       workspace=NewtonWorkspace())
        expected = run_transient_system(
            system.circuit, system, NewtonWorkspace(), initial, 2e-6,
            options=options,
        )
        result = Session(rc_circuit).run(
            Transient(t_stop=2e-6, options=options)
        )
        np.testing.assert_array_equal(result.times, expected.times)
        assert_stamps_close(result.result.states, expected.states)


def _dc_solve_phases(tracer):
    """Per ``dc_solve`` span: the ``(phase, converged)`` of each Newton
    run, in order."""

    def walk(span):
        yield span
        for child in span.children:
            yield from walk(child)

    return [
        [
            (run.attrs["phase"], run.attrs["converged"])
            for run in walk(solve)
            if run.name == "newton_solve"
        ]
        for root in tracer.roots
        for solve in walk(root)
        if solve.name == "dc_solve"
    ]


def _engine_supply_chain(build, source, values, temperature_k, predict, options=None):
    """The engine-level DC sweep: one system and workspace, a full
    ``invalidate()`` per point, each point from the previous one, and
    (``predict``) the secant through the two before it as the predicted
    start.  Returns the points and the ``linear_stamps`` spent."""
    circuit = build()
    system = MNASystem(circuit, temperature_k=temperature_k)
    workspace = NewtonWorkspace()
    element = circuit.element(source)
    chain = SecantChain()
    points = []
    STATS.reset()
    for value in values:
        element.dc = value
        system.invalidate()
        raw = solve_dc_system(
            system, options=options, x0=chain.x, workspace=workspace,
            predicted=chain.start(value) if predict else None,
        )
        points.append(raw)
        chain.push(value, raw.x)
    return points, STATS.linear_stamps


class TestSecantContinuation:
    """Chained sweeps start each point from the secant through the two
    solved points behind it, falling back to the previous point."""

    def test_secant_start_is_the_transient_predictor(self):
        rng = np.random.default_rng(7)
        x0, x1 = rng.normal(size=(2, 17))
        dt, dt_prev = 3.7e-7, 1.3e-7
        np.testing.assert_array_equal(
            secant_start(x0, x1, dt, dt_prev), x1 + (x1 - x0) * (dt / dt_prev)
        )
        # Fewer than two points, or a repeated parameter value: the last
        # point itself.
        assert secant_start(None, x1, dt, dt_prev) is x1
        assert secant_start(x0, x1, dt, 0.0) is x1

    def test_two_point_sweep_chains_zero_order(self):
        plan = DCSweep(source="V1", values=(4.999, 5.001))
        with tracing(detail="full") as tracer:
            result = Session(diode_circuit).run(plan)
        assert [phases[0][0] for phases in _dc_solve_phases(tracer)] == [
            "plain", "plain",
        ]
        expected, _ = _engine_supply_chain(
            diode_circuit, "V1", plan.values, plan.temperature_k, predict=False
        )
        for point, raw in zip(result.points, expected):
            np.testing.assert_array_equal(point.x, raw.x)

    def test_mid_anchored_sweep_legs_chain_zero_order(self):
        # One cached point mid-grid: each leg has one point past the
        # anchor, so no secant start exists anywhere.
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))
        with tracing(detail="full") as tracer:
            session.run(TempSweep(temperatures_k=(290.0, 300.5, 310.0)))
        phases = [run for solve in _dc_solve_phases(tracer) for run in solve]
        assert ("predicted", True) not in phases
        assert ("predicted", False) not in phases

    def test_failed_prediction_costs_one_plain_run(self):
        # The grid turns back sharply: 1 V down into reverse bias, then
        # 6 V up.  The secant carries the reverse-biased junction's unit
        # slope on and starts the last point with 5 V across the diode,
        # which 40 iterations of 0.5 V steps cannot walk back.  That run
        # fails, the previous point's plain run converges, and no ladder
        # strategy runs.
        options = SolverOptions(max_iterations=40)
        plan = DCSweep(source="V1", values=(0.0, -1.0, 5.0), options=options)
        STATS.reset()
        with tracing(detail="full") as tracer:
            result = Session(diode_circuit).run(plan)
        phases = _dc_solve_phases(tracer)
        assert phases[-1] == [("predicted", False), ("plain", True)]
        assert STATS.newton_failures == 1
        assert dict(STATS.strategies) == {"newton": 3}
        fresh = Session(diode_circuit).run(OP(options=options))
        np.testing.assert_allclose(
            result.points[-1].x, fresh.op.x, rtol=0.0, atol=1e-9
        )

    @pytest.mark.parametrize(
        "temperature_k, first, last",
        [(230.0, 5.0, 1.0), (300.15, 1.5, 3.5), (400.0, 1.0, 5.0)],
        ids=["fold-230K", "mid-300K", "rise-400K"],
    )
    def test_supply_sweeps_keep_the_zero_order_branch(self, temperature_k, first, last):
        # PSRR-cell supply sweeps in 0.25 V steps, the 230 K one down
        # through the fold where VREF collapses to ~0.92 V: every point
        # takes the zero-order chain's strategy and lands on its branch.
        from repro.experiments.ac_common import build_psrr_cell

        count = int(round(abs(last - first) / 0.25)) + 1
        values = tuple(float(v) for v in np.linspace(first, last, count))
        expected, _ = _engine_supply_chain(
            build_psrr_cell, "VDD", values, temperature_k, predict=False
        )
        result = Session(build_psrr_cell).run(
            DCSweep(source="VDD", values=values, temperature_k=temperature_k)
        )
        assert [p.strategy for p in result.points] == [r.strategy for r in expected]
        vref = result.circuit.node_index("vref")
        gaps = [abs(p.x[vref] - r.x[vref]) for p, r in zip(result.points, expected)]
        assert max(gaps) <= 1e-8


class TestDCSweepSourceRefresh:
    """A DC-sweep point re-stamps only the static residual."""

    def test_points_match_a_full_invalidate_chain_bitwise(self):
        from repro.experiments.ac_common import build_psrr_cell

        values = tuple(float(v) for v in np.linspace(4.5, 5.5, 6))
        expected, linear_stamps = _engine_supply_chain(
            build_psrr_cell, "VDD", values, 300.15, predict=True
        )
        STATS.reset()
        result = Session(build_psrr_cell).run(DCSweep(source="VDD", values=values))
        for point, raw in zip(result.points, expected):
            np.testing.assert_array_equal(point.x, raw.x)
        # Each point's residual pass stamps the same elements a full
        # static pass does.
        assert STATS.linear_stamps == linear_stamps

    def test_resistor_override_in_the_plan_is_honoured(self):
        values = (1.0, 2.0, 4.0)

        def halved():
            circuit = diode_circuit()
            circuit.element("R1").resistance = 500.0
            return circuit

        expected, _ = _engine_supply_chain(halved, "V1", values, 300.15, predict=True)
        session = Session(diode_circuit)
        result = session.run(
            DCSweep(source="V1", values=values, overrides=(("R1", "resistance", 500.0),))
        )
        for point, raw in zip(result.points, expected):
            np.testing.assert_array_equal(point.x, raw.x)
        # The override and the swept value are both rolled back.
        again = session.run(OP(overrides=(("V1", "dc", 4.0),)))
        np.testing.assert_allclose(
            again.op.x,
            Session(diode_circuit).run(OP(overrides=(("V1", "dc", 4.0),))).op.x,
            rtol=0.0,
            atol=1e-12,
        )
        assert session.circuit.element("V1").dc == 5.0


class TestRepeatsAreLookups:
    """A point the session already holds on a sweep's branch costs one
    cache lookup, chained sweep points included, and a hit keeps its
    point cached."""

    @pytest.mark.parametrize("kind", ["temp_sweep", "dc_sweep", "ac_sweep"])
    def test_rerun_takes_one_hit_per_point_and_no_newton(self, kind):
        from repro.circuits.bandgap_cell import build_bandgap_cell
        from repro.experiments.ac_common import VDD_DC, build_psrr_cell

        builder, plan, points = {
            "temp_sweep": (
                build_bandgap_cell,
                TempSweep(temperatures_k=tuple(np.linspace(250.0, 350.0, 5))),
                5,
            ),
            "dc_sweep": (
                build_psrr_cell,
                DCSweep(source="VDD", values=(VDD_DC - 0.5, VDD_DC, VDD_DC + 0.5)),
                3,
            ),
            "ac_sweep": (
                build_psrr_cell,
                ACSweep(
                    frequencies_hz=(10.0, 1e3, 1e5), temperatures_k=(250.0, 300.0)
                ),
                2,
            ),
        }[kind]
        session = Session(builder)
        first = session.run(plan)
        STATS.reset()
        with tracing(detail="plans") as tracer:
            again = session.run(plan)
        assert STATS.op_cache_hits == points
        assert STATS.op_cache_warm_starts == STATS.op_cache_misses == 0
        assert STATS.newton_solves == 0
        assert STATS.factorizations == 0
        (root,) = tracer.roots
        caches = [span.attrs["cache"] for span in root.children if span.name == "solve"]
        assert caches == ["hit"] * points
        assert again.to_dict() == first.to_dict()

    def test_a_miss_still_starts_from_the_chained_point(self):
        # Only the exact key skips the solve: a sweep whose points are
        # new chains them as before, one "seeded" solve after the first.
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))
        plan = TempSweep(temperatures_k=(300.0, 310.0, 320.0))
        STATS.reset()
        with tracing(detail="plans") as tracer:
            session.run(plan)
        (root,) = tracer.roots
        caches = [span.attrs["cache"] for span in root.children if span.name == "solve"]
        assert caches == ["hit", "seeded", "seeded"]
        assert STATS.op_cache_hits == 1
        assert STATS.newton_solves == 2

    def test_a_hit_point_outlives_the_points_inserted_after_it(self):
        k = 4
        session = Session(diode_circuit, cache_points=k)
        session.run(OP(temperature_k=300.0))  # hit after every insert
        session.run(OP(temperature_k=301.0))  # never hit again
        for step in range(k):
            session.run(OP(temperature_k=310.0 + step))
            STATS.reset()
            session.run(OP(temperature_k=300.0))
            assert (STATS.op_cache_hits, STATS.newton_solves) == (1, 0), step
        assert len(session.cache) == k
        STATS.reset()
        session.run(OP(temperature_k=301.0))
        assert STATS.op_cache_hits == 0

    def test_eviction_drops_the_least_recently_used_point(self):
        session = Session(diode_circuit, cache_points=3)
        for temperature in (300.0, 301.0, 302.0):
            session.run(OP(temperature_k=temperature))
        session.run(OP(temperature_k=300.0))  # hit: now the most recent
        session.run(OP(temperature_k=303.0))  # evicts 301 K, not 300 K
        cached = sorted(key[4] for key, _value in session.cache.export())
        assert cached == [300.0, 302.0, 303.0]

    def test_a_chained_point_hits_only_a_point_from_its_own_start(self):
        # The first run anchors at the cached 310 K point and chains out
        # from it; the rerun anchors at 300 K, so its chained points
        # start elsewhere and solve again.  From then on every start
        # matches the cached one.
        session = Session(diode_circuit)
        session.run(OP(temperature_k=310.0))
        plan = TempSweep(temperatures_k=(300.0, 310.0, 320.0))
        runs = []
        for _ in range(3):
            with tracing(detail="plans") as tracer:
                session.run(plan)
            (root,) = tracer.roots
            runs.append([span.attrs["cache"] for span in root.children])
        assert runs == [
            ["hit", "seeded", "seeded"],
            ["hit", "seeded", "seeded"],
            ["hit", "hit", "hit"],
        ]

    def test_a_sweep_keeps_its_branch_past_a_cold_point_at_its_key(self):
        # At 230 K the PSRR cell's cold OP at VDD = 1 V lands on
        # VREF ~0.505 V, while the 5 -> 1 V supply sweep comes down
        # through the fold to ~0.92 V.  Both points share one cache key;
        # the sweep's last point must not take the cold one.
        from repro.experiments.ac_common import build_psrr_cell

        values = tuple(float(v) for v in np.linspace(5.0, 1.0, 17))
        plan = DCSweep(source="VDD", values=values, temperature_k=230.0)
        fresh = Session(build_psrr_cell).run(plan)
        session = Session(build_psrr_cell)
        cold = session.run(OP(temperature_k=230.0, overrides=(("VDD", "dc", 1.0),)))
        mixed = session.run(plan)
        vref = session.circuit.node_index("vref")
        assert abs(cold.op.x[vref] - fresh.points[-1].x[vref]) > 0.3
        assert mixed.to_dict() == fresh.to_dict()

    def test_a_loaded_point_serves_no_chained_lookup(self, tmp_path):
        # A stored point does not record the start it was solved from,
        # so after a reload only unchained lookups take it.
        from repro.experiments.ac_common import build_psrr_cell

        path = tmp_path / "op.jsonl"
        with Session(build_psrr_cell, store=path) as session:
            session.run(OP(temperature_k=230.0, overrides=(("VDD", "dc", 1.0),)))
        values = tuple(float(v) for v in np.linspace(5.0, 1.0, 17))
        plan = DCSweep(source="VDD", values=values, temperature_k=230.0)
        reloaded = Session(build_psrr_cell, store=path)
        assert len(reloaded.cache) == 1
        STATS.reset()
        result = reloaded.run(plan)
        assert STATS.op_cache_hits == 0
        assert result.to_dict() == Session(build_psrr_cell).run(plan).to_dict()


class TestOneRunPath:
    """``Session.run(plan)`` is the one way to run an analysis."""

    def test_run_takes_exactly_a_plan(self):
        assert list(inspect.signature(Session.run).parameters) == ["self", "plan"]
        session = Session(diode_circuit)
        seed = Session(diode_circuit).run(OP()).op.x
        with pytest.raises(TypeError):
            session.run(OP(), x0=seed)

    def test_batch_entry_points_are_gone(self):
        import repro.spice
        from repro.spice import session, solver

        for module in (repro.spice, session, solver):
            for name in ("run_plans", "SessionRecipe", "solve_dc"):
                assert not hasattr(module, name), (module.__name__, name)
        assert not hasattr(Session, "run_many")

    def test_sweep_anchors_on_an_exact_cached_point(self):
        # The anchor search runs whenever the cache holds a point: the
        # sweep starts at the grid point the cached OP sits on, an exact
        # hit, and chains outward from it.
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))
        plan = TempSweep(temperatures_k=(280.0, 290.0, 300.0, 310.0))
        STATS.reset()
        with tracing(detail="plans") as tracer:
            warm = session.run(plan)
        assert STATS.op_cache_hits == 1
        assert STATS.op_cache_warm_starts == 0
        assert STATS.op_cache_misses == 0
        (root,) = tracer.roots
        solves = [
            span.attrs["temperature_k"] for span in root.children if span.name == "solve"
        ]
        assert solves == [300.0, 290.0, 280.0, 310.0]
        cold = Session(diode_circuit).run(plan)
        np.testing.assert_allclose(
            warm.voltage("d"), cold.voltage("d"), rtol=0.0, atol=1e-9
        )


class TestRunManyAndRunPlans:
    def test_run_many_shares_the_cache(self):
        session = Session(diode_circuit)
        STATS.reset()
        results = [session.run(plan) for plan in (OP(), OP(temperature_k=305.0))]
        assert STATS.op_cache_misses == 1  # only the first was cold
        assert STATS.op_cache_warm_starts == 1
        assert len(results) == 2

    def test_montecarlo_trials(self):
        trials = tuple(
            (("R1", "resistance", resistance),)
            for resistance in (500.0, 1e3, 2e3)
        )
        session = Session(diode_circuit)
        result = session.run(MonteCarlo(inner=OP(), trials=trials))
        assert len(result) == 3
        voltages = result.voltage("d")
        # More series resistance -> less diode drive -> lower drop.
        assert voltages[0] > voltages[1] > voltages[2]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_run_many_fanned_matches_serial_on_an_array(self, workers):
        # Serial plans warm-start off each other in one cache; fanned
        # plans solve cold, each on its own worker session.  Both
        # converge to the same points within the Newton tolerances.
        plans = [
            OP(temperature_k=t, record=("o0",))
            for t in np.linspace(260.15, 340.15, 8)
        ]
        session = Session(bandgap_array_24)
        serial = [session.run(plan) for plan in plans]
        voltages = fanned(array_voltage, plans, workers=workers)
        assert len(voltages) == len(plans)
        np.testing.assert_allclose(
            voltages,
            [result.voltage("o0") for result in serial],
            rtol=0.0,
            atol=1e-7,
        )

    def test_run_plans_serial_vs_fanned_identical(self):
        pairs = [
            (diode_circuit, (), TempSweep(temperatures_k=(280.0, 320.0))),
            (rc_circuit, (), OP()),
        ]
        serial = [run_pair(pair) for pair in pairs]
        pooled = fanned(run_pair, pairs)
        np.testing.assert_array_equal(serial[1].op.x, pooled[1].op.x)
        np.testing.assert_array_equal(
            np.stack([p.x for p in serial[0].points]),
            np.stack([p.x for p in pooled[0].points]),
        )

    def test_montecarlo_fanned_results_match_serial(self):
        trials = tuple(
            (("R1", "resistance", resistance),)
            for resistance in (500.0, 2e3)
        )
        plan = MonteCarlo(inner=OP(), trials=trials)
        serial = Session(diode_circuit).run(plan)
        pooled, _ = fanned(
            run_pair,
            [(diode_circuit, (), plan), (rc_circuit, (), OP())],
        )
        np.testing.assert_array_equal(serial.voltage("d"), pooled.voltage("d"))
        # Each trial result carries the merged per-trial plan on BOTH
        # sides of the pool: the exported artifact says which overrides ran.
        assert serial.to_dict() == pooled.to_dict()
        exported = pooled.to_dict()["trials"][0]["plan"]["overrides"]
        assert exported == [["R1", "resistance", 500.0]]

    def test_fanned_cache_merges_back(self):
        exported, _ = fanned(exported_points, [[OP(), OP(temperature_k=305.0)], [OP()]])
        session = Session(diode_circuit)
        session.cache.merge(exported)
        # Worker-solved points serve exact hits where they land.
        STATS.reset()
        session.run(OP())
        session.run(OP(temperature_k=305.0))
        assert STATS.op_cache_hits == 2
        assert STATS.newton_solves == 0

    def test_fanned_workers_seeded_with_parent_cache(self):
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))  # the one cold solve
        exported = session.cache.export()
        STATS.reset()
        results = fanned(
            run_seeded,
            [(exported, OP(temperature_k=305.0)), (exported, OP(temperature_k=310.0))],
        )
        assert len(results) == 2
        # Both fanned plans warm-started off the shipped parent points
        # (worker counters merge into this process's STATS) instead of
        # paying their own cold solves.
        assert STATS.op_cache_warm_starts == 2
        assert STATS.op_cache_misses == 0
        for result in results:
            np.testing.assert_allclose(
                result.voltage("d"),
                session.run(OP(temperature_k=result.temperature_k)).voltage("d"),
                rtol=0.0,
                atol=1e-9,
            )


def diode_rc_circuit(title="diode rc"):
    """Nonlinear, reactive and driven: every analysis kind has work."""
    c = Circuit(title)
    c.add(VoltageSource("V1", "in", "0", 2.0, ac_mag=1.0))
    c.add(VoltageSource("V2", "drv", "0", Pulse(0.0, 1.0, delay=1e-7, rise=1e-7)))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Resistor("R2", "drv", "d", 2e3))
    c.add(Diode("D1", "d", "0"))
    c.add(Capacitor("C1", "d", "0", 1e-9))
    return c


def run_titled(item):
    """Pool work: one plan on a fresh ``diode_rc_circuit`` session."""
    title, plan = item
    return Session(diode_rc_circuit, args=(title,)).run(plan)


def _raw_arrays(result):
    """Every solution array a result holds, nested trials included."""
    if hasattr(result, "op"):
        return [result.op.x]
    if hasattr(result, "sweep"):
        return [point.x for point in result.points]
    if hasattr(result, "ac_results"):
        return [a for r in result.ac_results for a in (r.x, r.op.x)]
    if hasattr(result, "result"):
        return [result.result.times, result.result.states]
    return [a for trial in result.results for a in _raw_arrays(trial)]


def _circuits(result):
    """Every circuit reference a result holds, nested trials included."""
    refs = [result.circuit]
    if hasattr(result, "op"):
        refs.append(result.op.circuit)
    elif hasattr(result, "sweep"):
        refs += [point.circuit for point in result.points]
    elif hasattr(result, "ac_results"):
        refs += [c for r in result.ac_results for c in (r.circuit, r.op.circuit)]
    elif hasattr(result, "result"):
        refs.append(result.result.circuit)
    else:
        refs += [c for trial in result.results for c in _circuits(trial)]
    return refs


class TestFannedEqualsSerialEveryKind:
    """Results cross the pool by plain pickle, their circuit with them;
    every result kind must come back as the serial run produced it,
    every nested reference bound to the one circuit that came along."""

    TRIALS = tuple((("R1", "resistance", r),) for r in (500.0, 1e3, 2e3))

    @pytest.mark.parametrize(
        "plan",
        [
            pytest.param(OP(temperature_k=310.0), id="op"),
            pytest.param(DCSweep(source="V1", values=(0.5, 1.0, 2.0)), id="dc_sweep"),
            pytest.param(TempSweep(temperatures_k=(260.0, 300.0, 340.0)), id="temp_sweep"),
            pytest.param(
                ACSweep(frequencies_hz=(1e3, 1e5, 1e7), temperatures_k=(280.0, 320.0)),
                id="ac_sweep",
            ),
            pytest.param(Transient(t_stop=1e-6), id="transient"),
            pytest.param(MonteCarlo(inner=OP(), trials=TRIALS), id="montecarlo"),
        ],
    )
    def test_round_trip(self, plan):
        items = [(title, plan) for title in ("diode rc a", "diode rc b")]
        serial = [outcome.value for outcome in supervised_map(run_titled, items)]
        for ours, theirs in zip(fanned(run_titled, items), serial):
            assert type(ours) is type(theirs)
            assert ours.to_dict() == theirs.to_dict()
            ours_raw, theirs_raw = _raw_arrays(ours), _raw_arrays(theirs)
            assert len(ours_raw) == len(theirs_raw) > 0
            for a, b in zip(ours_raw, theirs_raw):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()
            assert ours.circuit is not theirs.circuit
            assert ours.circuit.title == theirs.circuit.title
            assert all(circuit is ours.circuit for circuit in _circuits(ours))
            np.testing.assert_array_equal(ours.voltage("d"), theirs.voltage("d"))


class TestResults:
    def test_uniform_accessors(self):
        session = Session(diode_circuit)
        op = session.run(OP())
        sweep = session.run(TempSweep(temperatures_k=(280.0, 320.0)))
        assert isinstance(op.voltage("d"), float)
        assert sweep.voltage("d").shape == (2,)
        assert isinstance(op.branch_current("V1"), float)
        assert sweep.branch_current("V1").shape == (2,)

    def test_to_dict_json_ready(self, tmp_path):
        session = Session(rc_circuit)
        for plan in (
            OP(),
            DCSweep(source="V1", values=(0.5, 1.0)),
            TempSweep(temperatures_k=(290.0, 310.0)),
            ACSweep(frequencies_hz=(1e3, 1e6)),
            Transient(t_stop=1e-6),
        ):
            result = session.run(plan)
            payload = result.to_dict()
            text = json.dumps(payload)  # must not raise
            assert payload["analysis"] == result.kind
            assert payload["plan"]["analysis"] == type(plan).__name__
            written = result.export(tmp_path / result.kind)
            assert written.suffix == ".json"
            assert json.loads(written.read_text()) == json.loads(text)

    def test_record_limits_exported_nodes(self):
        session = Session(diode_circuit)
        result = session.run(OP(record=("d",)))
        assert list(result.to_dict()["voltages"]) == ["d"]
        # The accessor is not limited by record — only the export is.
        assert result.voltage("in") == pytest.approx(5.0, rel=1e-6)

    def test_montecarlo_to_dict(self):
        session = Session(diode_circuit)
        result = session.run(
            MonteCarlo(inner=OP(), trials=((("R1", "resistance", 2e3),),))
        )
        payload = result.to_dict()
        json.dumps(payload)
        assert len(payload["trials"]) == 1
        # Each trial result carries its merged per-trial plan: the
        # exported artifact says which overrides ran.
        assert payload["trials"][0]["plan"]["overrides"] == [["R1", "resistance", 2e3]]
        assert sorted(payload["plan"]) == [
            "analysis", "inner", "overrides", "record", "trials",
        ]


class TestLifetime:
    def test_dropped_session_frees_its_system_without_collection(self):
        # Reference counting alone must free a dropped session's
        # system: a cycle through it would keep every matrix it built
        # alive until the next collection.
        gc.disable()
        try:
            session = Session(parse_netlist(bandgap_array(cells=12)))
            session.run(OP())
            session.run(TempSweep(temperatures_k=(280.15, 320.15)))
            system = weakref.ref(session.system)
            del session
            assert system() is None
        finally:
            gc.enable()
