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
"""

import json

import numpy as np
import pytest

from repro.errors import NetlistError, PlanError
from repro.spice import (
    ACSweep,
    Capacitor,
    Circuit,
    CurrentSource,
    DCSweep,
    Diode,
    MonteCarlo,
    OP,
    Resistor,
    Session,
    SessionRecipe,
    TempSweep,
    Transient,
    VoltageSource,
    run_plans,
)
from repro.spice.mna import MNASystem
from repro.spice.solver import NewtonWorkspace, solve_dc_system
from repro.spice.stats import STATS

from families import CIRCUITS, assert_stamps_close


def diode_circuit():
    c = Circuit("diode under drive")
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


def rc_circuit():
    c = Circuit("rc")
    c.add(VoltageSource("V1", "in", "0", 1.0, ac_mag=1.0))
    c.add(Resistor("R1", "in", "out", 1e3))
    c.add(Capacitor("C1", "out", "0", 1e-9))
    return c


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
    def test_exact_hit_skips_the_solve(self):
        session = Session(diode_circuit)
        first = session.run(OP())
        STATS.reset()
        second = session.run(OP())
        assert session.cache_hits == 1
        assert STATS.op_cache_hits == 1
        assert STATS.newton_solves == 0  # no Newton run at all
        np.testing.assert_array_equal(first.op.x, second.op.x)

    def test_nearby_temperature_warm_starts(self):
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))
        STATS.reset()
        warm = session.run(OP(temperature_k=310.0))
        assert session.cache_warm_starts == 1
        assert STATS.op_cache_warm_starts == 1
        fresh = solve_dc_system(
            MNASystem(diode_circuit(), temperature_k=310.0),
            workspace=NewtonWorkspace(),
        )
        np.testing.assert_allclose(warm.op.x, fresh.x, rtol=1e-9, atol=1e-12)

    def test_temperature_nudge_is_never_stale(self):
        session = Session(diode_circuit)
        base = session.run(OP(temperature_k=300.0))
        nudged = session.run(OP(temperature_k=300.01))
        # A different key: not an exact hit, and the answer moved.
        assert session.cache_hits == 0
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
        base = session.run(OP())
        halved = session.run(OP(overrides=(("R1", "resistance", 500.0),)))
        assert session.cache_hits == 0
        assert halved.voltage("d") > base.voltage("d")  # more drive current
        # And the base point is restored (override rolled back + re-keyed).
        again = session.run(OP())
        assert again.voltage("d") == base.voltage("d")

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
        after = session.run(OP())
        assert session.cache_hits == 0
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
        cold = Session(build_bandgap_cell)
        STATS.reset()
        cold_result = cold.run(TempSweep(temperatures_k=temps))
        cold_factorizations = STATS.factorizations
        warm = Session(build_bandgap_cell)
        warm.run(OP(temperature_k=300.15))  # seed: one solved point
        STATS.reset()
        warm_result = warm.run(TempSweep(temperatures_k=temps))
        # The anchored traversal warm-started off the seed: no
        # gain-stepping ladder, far fewer factorizations...
        assert STATS.op_cache_warm_starts == 1
        assert "gain-stepping" not in STATS.strategies
        assert STATS.factorizations < 0.5 * cold_factorizations
        # ...and the same answer to solver tolerance.
        np.testing.assert_allclose(
            warm_result.voltage("vref"),
            cold_result.voltage("vref"),
            rtol=0.0,
            atol=1e-7,
        )


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
        x_prev = None
        expected = []
        for temperature in temps:
            system.set_temperature(temperature)
            raw = solve_dc_system(system, x0=x_prev, workspace=workspace)
            expected.append(raw.x)
            x_prev = raw.x
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


class TestRunManyAndRunPlans:
    def test_run_many_validates_everything_first(self):
        session = Session(diode_circuit)
        STATS.reset()
        with pytest.raises(PlanError):
            session.run_many([OP(), OP(overrides=(("RX", "resistance", 1.0),))])
        assert STATS.newton_solves == 0  # nothing ran

    def test_run_many_serial_shares_the_cache(self):
        session = Session(diode_circuit)
        results = session.run_many([OP(), OP(temperature_k=305.0)])
        assert session.cache_misses == 1  # only the first was cold
        assert session.cache_warm_starts == 1
        assert len(results) == 2

    def test_run_plans_serial_vs_fanned_identical(self):
        pairs = [
            (SessionRecipe(builder=diode_circuit), TempSweep(temperatures_k=(280.0, 320.0))),
            (SessionRecipe(builder=rc_circuit), OP()),
        ]
        serial = run_plans(pairs, workers=1)
        fanned = run_plans(pairs, workers=2)
        for a, b in zip(serial, fanned):
            if isinstance(a, type(serial[1])) and hasattr(a, "op"):
                np.testing.assert_array_equal(a.op.x, b.op.x)
        np.testing.assert_array_equal(
            np.stack([p.x for p in serial[0].points]),
            np.stack([p.x for p in fanned[0].points]),
        )

    def test_run_plans_groups_equal_recipes_onto_one_session(self):
        recipe = SessionRecipe(builder=diode_circuit)
        STATS.reset()
        run_plans(
            [(recipe, OP()), (recipe, OP(temperature_k=305.0))], workers=1
        )
        # Shared session: the second plan warm-started off the first.
        assert STATS.op_cache_warm_starts == 1

    def test_fanned_cache_merges_back(self):
        session = Session(diode_circuit)
        session.run_many([OP(), OP(temperature_k=305.0)], workers=2)
        # Worker-solved points are visible to the parent session now.
        STATS.reset()
        session.run(OP())
        assert session.cache_hits == 1

    def test_fanned_workers_seeded_with_parent_cache(self):
        session = Session(diode_circuit)
        session.run(OP(temperature_k=300.0))  # the one cold solve
        warm_before = session.cache_warm_starts
        misses_before = session.cache_misses
        results = session.run_many(
            [OP(temperature_k=305.0), OP(temperature_k=310.0)], workers=2
        )
        assert len(results) == 2
        # Both fanned plans warm-started off the shipped parent cache
        # snapshot (worker counters fold back into the parent mirrors),
        # instead of paying their own cold solves.
        assert session.cache_warm_starts - warm_before == 2
        assert session.cache_misses == misses_before

    def test_live_circuit_session_has_no_recipe(self):
        session = Session(diode_circuit())
        with pytest.raises(NetlistError, match="builder"):
            session.recipe()
        # run_many still works: it falls back to the serial path.
        results = session.run_many([OP(), OP(temperature_k=310.0)], workers=2)
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

    def test_montecarlo_fanned_results_match_serial(self):
        trials = tuple(
            (("R1", "resistance", resistance),)
            for resistance in (500.0, 2e3)
        )
        plan = MonteCarlo(inner=OP(), trials=trials)
        serial = Session(diode_circuit).run(plan)
        fanned = Session(diode_circuit).run_many([plan, OP()], workers=2)[0]
        np.testing.assert_array_equal(serial.voltage("d"), fanned.voltage("d"))
        # Each trial result carries the merged per-trial plan on BOTH
        # paths: the exported artifact must say which overrides ran.
        assert serial.to_dict() == fanned.to_dict()
        exported = fanned.to_dict()["trials"][0]["plan"]["overrides"]
        assert exported == [["R1", "resistance", 500.0]]


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
