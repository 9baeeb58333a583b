"""Transient engine: integration accuracy, step control, dynamic stamps."""

import math

import numpy as np
import pytest

#: Integration accuracy and step control must be identical on both
#: device-evaluator paths (the conftest fixture flips REPRO_VECTORIZED).
pytestmark = pytest.mark.usefixtures("device_eval_path")

from repro.errors import NetlistError
from repro.spice import (
    OP,
    Capacitor,
    Circuit,
    CurrentSource,
    OpAmp,
    PWL,
    Pulse,
    Resistor,
    Session,
    Sin,
    SolverOptions,
    Transient,
    TransientOptions,
    VoltageSource,
    solve_dc,
)


def rc_circuit(tau_r=1e3, tau_c=1e-9, delay=1e-6, rise=1e-7):
    circuit = Circuit("rc step")
    circuit.add(VoltageSource("V1", "in", "0", Pulse(0.0, 1.0, delay=delay, rise=rise)))
    circuit.add(Resistor("R1", "in", "out", tau_r))
    circuit.add(Capacitor("C1", "out", "0", tau_c))
    return circuit


class TestWaveforms:
    def test_pulse_shape(self):
        p = Pulse(0.0, 2.0, delay=1.0, rise=1.0, fall=1.0, width=2.0)
        assert p.value(0.5) == 0.0
        assert p.value(1.5) == pytest.approx(1.0)
        assert p.value(2.0) == pytest.approx(2.0)
        assert p.value(3.5) == pytest.approx(2.0)
        assert p.value(4.5) == pytest.approx(1.0)
        assert p.value(10.0) == 0.0

    def test_pulse_without_width_never_falls(self):
        p = Pulse(0.0, 5.0, delay=1e-6, rise=1e-6)
        assert p.value(1e-3) == pytest.approx(5.0)

    def test_pulse_periodic(self):
        p = Pulse(0.0, 1.0, rise=0.1, fall=0.1, width=0.3, period=1.0)
        assert p.value(0.2) == pytest.approx(1.0)
        assert p.value(1.2) == pytest.approx(1.0)
        assert p.value(2.7) == pytest.approx(0.0)

    def test_pulse_periodic_requires_width(self):
        with pytest.raises(NetlistError):
            Pulse(0.0, 1.0, rise=0.1, period=1.0)

    def test_pulse_rejects_degenerate_period(self):
        with pytest.raises(NetlistError):
            Pulse(0.0, 1.0, rise=0.1, width=0.3, period=0.0)

    def test_pulse_rejects_negative_width_and_delay(self):
        with pytest.raises(NetlistError):
            Pulse(0.0, 1.0, width=-5e-6)
        with pytest.raises(NetlistError):
            Pulse(0.0, 1.0, delay=-1e-6)

    def test_pulse_rejects_cycle_longer_than_period(self):
        # rise + width + fall > period: the fall ramp would never run.
        with pytest.raises(NetlistError):
            Pulse(0.0, 1.0, rise=1e-6, fall=1e-6, width=5e-6, period=4e-6)

    def test_pulse_breakpoints(self):
        p = Pulse(0.0, 1.0, delay=1.0, rise=0.5, fall=0.5, width=1.0, period=10.0)
        points = p.breakpoints(0.0, 15.0)
        assert 1.0 in points and 1.5 in points and 2.5 in points and 3.0 in points
        assert 11.0 in points  # second cycle
        assert all(0.0 < t < 15.0 for t in points)

    def test_pwl_breakpoints_are_the_knots(self):
        w = PWL([(1.0, 0.0), (2.0, 2.0), (4.0, 2.0)])
        assert w.breakpoints(0.0, 3.0) == (1.0, 2.0)

    def test_pwl_interpolates_and_holds(self):
        w = PWL([(1.0, 0.0), (2.0, 2.0), (4.0, 2.0)])
        assert w.value(0.0) == 0.0
        assert w.value(1.5) == pytest.approx(1.0)
        assert w.value(3.0) == pytest.approx(2.0)
        assert w.value(9.0) == pytest.approx(2.0)

    def test_pwl_validates(self):
        with pytest.raises(NetlistError):
            PWL([(0.0, 1.0)])
        with pytest.raises(NetlistError):
            PWL([(0.0, 1.0), (0.0, 2.0)])

    def test_sin(self):
        w = Sin(1.0, 0.5, frequency=1.0, delay=0.25)
        assert w.value(0.0) == pytest.approx(1.0)
        assert w.value(0.5) == pytest.approx(1.5)

    def test_sin_validates(self):
        with pytest.raises(NetlistError):
            Sin(0.0, 1.0, frequency=0.0)

    def test_waveform_source_reports_t0_value_at_dc(self):
        src = VoltageSource("V1", "a", "0", Pulse(0.25, 5.0, delay=1e-6))
        assert src.value_at(300.0) == pytest.approx(0.25)
        assert src.value_at(300.0, time=1e-3) == pytest.approx(5.0)


class TestCapacitorDC:
    """Regression: after the transient work, DC still sees caps as open."""

    def test_capacitor_is_open_at_dc(self):
        circuit = Circuit("divider with cap")
        circuit.add(VoltageSource("V1", "in", "0", 2.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Resistor("R2", "mid", "0", 1e3))
        # A capacitor shunting R2 must not change the DC division.
        circuit.add(Capacitor("C1", "mid", "0", 1e-6))
        op = Session(circuit).run(OP()).op
        assert op.voltage("mid") == pytest.approx(1.0, abs=1e-9)

    def test_floating_capacitor_node_stays_solvable(self):
        circuit = Circuit("floating cap node")
        circuit.add(VoltageSource("V1", "in", "0", 1.0))
        circuit.add(Resistor("R1", "in", "0", 1e3))
        # "float" connects to nothing but the capacitor: only the
        # solver's gmin-to-ground keeps the matrix non-singular.
        circuit.add(Capacitor("C1", "in", "float", 1e-9))
        op = Session(circuit).run(OP()).op
        assert math.isfinite(op.voltage("float"))
        assert op.iterations >= 1

    def test_capacitor_series_branch_blocks_dc(self):
        circuit = Circuit("series cap")
        circuit.add(VoltageSource("V1", "in", "0", 1.0))
        circuit.add(Capacitor("C1", "in", "mid", 1e-9))
        circuit.add(Resistor("R1", "mid", "0", 1e3))
        op = Session(circuit).run(OP()).op
        # No DC path: mid sits at ground via R1, no current anywhere.
        assert op.voltage("mid") == pytest.approx(0.0, abs=1e-6)


class TestRCAccuracy:
    def test_trapezoidal_matches_analytic(self):
        circuit = rc_circuit()
        result = Session(circuit).run(Transient(t_stop=10e-6)).result
        # After the 0.1us ramp (midpoint 1.05us) the response is the
        # textbook exponential with tau = 1us.
        for probe in (2e-6, 4e-6, 8e-6):
            analytic = 1.0 - math.exp(-(probe - 1.05e-6) / 1e-6)
            assert result.voltage_at("out", probe) == pytest.approx(
                analytic, abs=2e-3
            )

    def test_backward_euler_matches_analytic_coarsely(self):
        circuit = rc_circuit()
        result = Session(circuit).run(
            Transient(t_stop=10e-6, options=TransientOptions(method="be"))
        ).result
        analytic = 1.0 - math.exp(-(5e-6 - 1.05e-6) / 1e-6)
        assert result.voltage_at("out", 5e-6) == pytest.approx(analytic, abs=2e-2)

    def test_trap_beats_backward_euler(self):
        circuit = rc_circuit()
        fixed = dict(adaptive=False, dt_init=5e-8)
        probe = 3e-6
        analytic = 1.0 - math.exp(-(probe - 1.05e-6) / 1e-6)
        err = {}
        for method in ("trap", "be"):
            res = Session(circuit).run(
                Transient(
                    t_stop=10e-6,
                    options=TransientOptions(method=method, **fixed),
                )
            ).result
            err[method] = abs(res.voltage_at("out", probe) - analytic)
        assert err["trap"] < err["be"] / 5.0

    def test_fixed_step_count(self):
        circuit = rc_circuit()
        result = Session(circuit).run(
            Transient(
                t_stop=10e-6,
                options=TransientOptions(adaptive=False, dt_init=1e-7),
            )
        ).result
        assert result.accepted_steps == 100
        assert result.rejected_lte == 0

    def test_fixed_step_recovers_from_off_grid_breakpoint(self):
        # A pulse corner off the fixed grid shortens one step to land on
        # it; the following steps must return to the requested grid
        # step instead of inheriting the clamped size (and the final
        # float-sliver must be absorbed, not integrated with dt ~ 1e-21).
        circuit = rc_circuit(delay=1.05e-6)
        result = Session(circuit).run(
            Transient(
                t_stop=10e-6,
                options=TransientOptions(adaptive=False, dt_init=1e-7),
            )
        ).result
        assert result.times[-1] == pytest.approx(10e-6)
        # ~100 grid steps plus a couple of breakpoint landings.
        assert result.accepted_steps <= 105
        analytic = 1.0 - math.exp(-(5e-6 - 1.1e-6) / 1e-6)
        assert result.voltage_at("out", 5e-6) == pytest.approx(analytic, abs=5e-3)

    def test_breakpoints_closer_than_dt_min_are_merged(self):
        # Two PWL knots 1e-13 s apart (and one within roundoff of
        # t_stop) must not force a sub-dt_min step: alpha = 2/dt would
        # amplify charge roundoff above the Newton tolerance and kill a
        # trivially solvable RC circuit.
        circuit = Circuit("pathological knots")
        circuit.add(
            VoltageSource(
                "V1",
                "in",
                "0",
                PWL(
                    [
                        (0.0, 0.0),
                        (5e-4, 1.0),
                        (5e-4 + 1e-13, 1.0),
                        (1e-3 - 1e-13, 1.0),
                    ]
                ),
            )
        )
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        result = Session(circuit).run(Transient(t_stop=1e-3)).result
        assert result.times[-1] == pytest.approx(1e-3)
        assert result.voltage("out")[-1] == pytest.approx(1.0, abs=1e-3)

    def test_breakpoint_near_accepted_timepoint_never_forces_sub_dt_min_step(self):
        # A PWL corner 0.5*dt_min past a grid point: clamping to it
        # would integrate a step below dt_min (alpha = 2/dt exploding);
        # the corner must instead count as visited.
        dt_min = 1e-9
        circuit = Circuit("corner adjacent to timepoint")
        circuit.add(
            VoltageSource(
                "V1",
                "in",
                "0",
                PWL([(0.0, 0.0), (0.1 + 0.5 * dt_min, 0.0), (0.3, 1.0)]),
            )
        )
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        result = Session(circuit).run(
            Transient(
                t_stop=1.0,
                options=TransientOptions(adaptive=False, dt_init=0.1, dt_min=dt_min),
            )
        ).result
        assert float(np.diff(result.times).min()) >= dt_min

    def test_no_livelock_when_window_tail_is_near_dt_min(self):
        # Regression: with the remaining window between dt_min and
        # 2*dt_min, an LTE rejection used to shrink dt to dt_min only
        # for the sliver absorption to bump it straight back to the
        # rejected size — an infinite reject loop.  Tight tolerances
        # and a coarse dt_min floor reproduce it.
        circuit = Circuit("tail livelock")
        circuit.add(VoltageSource("V1", "in", "0", Sin(0.0, 1.0, frequency=2e5)))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        options = TransientOptions(
            dt_init=1.0e-6, dt_min=0.9e-6, dt_max=2e-6, lte_reltol=1e-7
        )
        result = Session(circuit).run(Transient(t_stop=10e-6, options=options)).result
        assert result.times[-1] == pytest.approx(10e-6)

    def test_dt_init_alone_may_exceed_derived_dt_max(self):
        # Only dt_init given: the span/50 default ceiling must yield to
        # it rather than reject bounds the user never set.
        circuit = rc_circuit()
        result = Session(circuit).run(
            Transient(
                t_stop=3e-6,
                options=TransientOptions(adaptive=False, dt_init=1e-7),
            )
        ).result
        assert result.accepted_steps == 30

    def test_explicit_bound_alone_bends_derived_dt_init(self):
        # Only dt_max (or only dt_min) given: the derived dt_init must
        # clamp into the explicit bound instead of raising.
        circuit = rc_circuit()
        low = Session(circuit).run(
            Transient(t_stop=1e-3, options=TransientOptions(dt_max=5e-7))
        ).result
        assert low.times[-1] == pytest.approx(1e-3)
        # dt_min above the span/50 default ceiling: the derived dt_max
        # must lift to honour it.
        high = Session(circuit).run(
            Transient(t_stop=1e-3, options=TransientOptions(dt_min=5e-5))
        ).result
        assert high.times[-1] == pytest.approx(1e-3)

    def test_current_source_charging_ramp(self):
        # I = C dV/dt: 1 uA stepped into 1 nF -> 1 V/ms, linear in time.
        # (The current must be a waveform that is zero at t=0: the
        # initial condition is the DC point, which would otherwise start
        # the capacitor fully charged through the leak resistor.)
        circuit = Circuit("current charge")
        circuit.add(CurrentSource("I1", "0", "top", Pulse(0.0, 1e-6, rise=1e-9)))
        circuit.add(Capacitor("C1", "top", "0", 1e-9))
        circuit.add(Resistor("Rleak", "top", "0", 1e9))
        result = Session(circuit).run(Transient(t_stop=1e-3)).result
        assert result.voltage("top")[0] == pytest.approx(0.0, abs=1e-9)
        assert result.voltage_at("top", 5e-4) == pytest.approx(0.5, rel=1e-2)
        assert result.voltage("top")[-1] == pytest.approx(1.0, rel=1e-2)


class TestStepControl:
    def test_adaptive_takes_fewer_steps_than_fixed_equivalent(self):
        circuit = rc_circuit()
        adaptive = Session(circuit).run(Transient(t_stop=50e-6)).result
        assert adaptive.accepted_steps < 1000
        # Flat tail: the controller must have grown dt well beyond init.
        dts = np.diff(adaptive.times)
        assert dts.max() > 10.0 * dts.min()

    def test_initial_point_is_dc_solution(self):
        circuit = rc_circuit(delay=1e-6)
        result = Session(circuit).run(Transient(t_stop=5e-6)).result
        # Source is 0 until 1us, so the t=0 point is the dead circuit.
        assert result.voltage("out")[0] == pytest.approx(0.0, abs=1e-9)
        assert result.times[0] == 0.0

    def test_warm_start_x0_is_accepted(self):
        circuit = rc_circuit()
        raw = solve_dc(circuit, time=0.0)
        result = Session(circuit).run(Transient(t_stop=2e-6), x0=raw.x).result
        assert result.accepted_steps > 0

    def test_rejects_bad_time_window(self):
        with pytest.raises(NetlistError):
            Session(rc_circuit()).run(Transient(t_stop=0.0))

    def test_rejects_unknown_method(self):
        with pytest.raises(NetlistError):
            TransientOptions(method="gear2")

    def test_rejects_non_shrinking_newton_shrink(self):
        with pytest.raises(NetlistError):
            TransientOptions(newton_shrink=1.0)

    def test_narrow_pulse_is_not_stepped_over(self):
        # A 10 ns pulse halfway through a 1 ms window: the grown step
        # would leap straight over it without breakpoint clamping (the
        # LTE estimate only watches the capacitor, which sees nothing).
        circuit = Circuit("narrow pulse")
        circuit.add(
            VoltageSource(
                "V1",
                "in",
                "0",
                Pulse(0.0, 5.0, delay=500e-6, rise=1e-9, fall=1e-9, width=10e-9),
            )
        )
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Capacitor("C1", "out", "0", 1e-9))
        result = Session(circuit).run(Transient(t_stop=1e-3)).result
        # Analytic peak: 5 * (1 - exp(-10n/1u)) ~ 49.8 mV; anything in
        # that ballpark proves the pulse was integrated, not skipped.
        assert 0.03 < result.voltage("out").max() < 0.08

    def test_sin_source_is_not_aliased(self):
        # Resistive divider (no dynamic elements): only the waveform's
        # own timestep ceiling keeps the sine sampled.
        circuit = Circuit("sin divider")
        circuit.add(VoltageSource("V1", "in", "0", Sin(0.0, 1.0, frequency=1e6)))
        circuit.add(Resistor("R1", "in", "out", 1e3))
        circuit.add(Resistor("R2", "out", "0", 1e3))
        result = Session(circuit).run(Transient(t_stop=5e-6)).result  # five cycles
        assert result.accepted_steps >= 75  # >= 15 points per cycle
        assert result.voltage("out").max() == pytest.approx(0.5, abs=0.02)

    def test_step_budget_enforced(self):
        from repro.errors import ConvergenceError

        options = TransientOptions(adaptive=False, dt_init=1e-9, max_steps=10)
        with pytest.raises(ConvergenceError):
            Session(rc_circuit()).run(Transient(t_stop=10e-6, options=options))


class TestTransientResult:
    def test_accessors(self):
        circuit = rc_circuit()
        result = Session(circuit).run(Transient(t_stop=20e-6)).result
        assert len(result) == result.accepted_steps + 1
        assert result.voltage("0").max() == 0.0
        current = result.branch_current("V1")
        assert current.shape == result.times.shape
        # Steady state (~19 tau after the step): no current flows.
        assert abs(current[-1]) < 1e-8
        with pytest.raises(NetlistError):
            result.branch_current("R1")

    def test_final_op_matches_dc_at_end(self):
        circuit = rc_circuit()
        result = Session(circuit).run(Transient(t_stop=20e-6)).result
        op = result.final_op()
        assert op.strategy == "transient-trap"
        assert op.voltage("out") == pytest.approx(1.0, abs=1e-4)

    def test_settling_time_and_overshoot(self):
        circuit = rc_circuit()
        result = Session(circuit).run(Transient(t_stop=20e-6)).result
        settle = result.settling_time("out", 0.01)
        # 1% band of the RC response: ~ 1.05us + tau*ln(100) = 5.65us.
        assert 4e-6 < settle < 8e-6
        assert result.overshoot("out") < 1e-6
        # A node that never leaves the band settles immediately.
        assert result.settling_time("0", 1e-3) == 0.0

    def test_settling_time_never_inside_band_is_inf(self):
        circuit = rc_circuit()
        result = Session(circuit).run(Transient(t_stop=2e-6)).result
        assert result.settling_time("out", 1e-3, final_value=10.0) == float("inf")


class TestSupplySensingOpAmp:
    def build(self):
        circuit = Circuit("supply follower")
        circuit.add(VoltageSource("VDD", "vdd", "0", Pulse(0.0, 3.0, rise=1e-5)))
        # Unity follower: out tied to inn, inp at 1.5 V reference.
        circuit.add(VoltageSource("VREFIN", "ref", "0", 1.5))
        circuit.add(OpAmp("A1", "ref", "out", "out", gain=1e4, supply="vdd"))
        circuit.add(Resistor("RL", "out", "0", 1e5))
        return circuit

    def test_output_clamped_by_ramping_supply(self):
        circuit = self.build()
        result = Session(circuit).run(Transient(t_stop=2e-5)).result
        # While vdd < 1.5 V the follower saturates at the (moving) rail;
        # afterwards it regulates at 1.5 V.
        early = result.voltage_at("out", 2e-6)
        assert early < 0.7
        assert result.voltage("out")[-1] == pytest.approx(1.5, abs=1e-3)

    def test_collapsed_supply_pins_output_near_rail_low(self):
        circuit = Circuit("dead opamp")
        circuit.add(VoltageSource("VDD", "vdd", "0", 0.0))
        circuit.add(VoltageSource("VIN", "in", "0", 1.0))
        circuit.add(OpAmp("A1", "in", "0", "out", gain=1e4, supply="vdd"))
        circuit.add(Resistor("RL", "out", "0", 1e5))
        op = Session(circuit).run(OP()).op
        assert 0.0 <= op.voltage("out") < 2e-3


class TestStartupExperimentCircuits:
    def test_bandgap_cell_startup_reaches_dc_point(self):
        from repro.circuits.startup import (
            StartupRampConfig,
            build_startup_bandgap_cell,
        )

        ramp = StartupRampConfig(delay=2e-6, ramp=20e-6)
        circuit = build_startup_bandgap_cell(ramp)
        t_end = ramp.t_on + 80e-6
        result = Session(circuit).run(Transient(t_stop=t_end)).result
        dc = solve_dc(circuit, time=t_end)
        vref_dc = float(dc.x[circuit.node_index("vref")])
        assert abs(result.voltage("vref")[-1] - vref_dc) < 1e-3
        # Every accepted step's recorded residual certifies convergence.
        assert len(result.step_residuals) == len(result.times)
        assert all(r < 1e-6 for r in result.step_residuals)

    def test_sub1v_startup_reaches_dc_point(self):
        from repro.circuits.startup import (
            Sub1VStartupConfig,
            build_startup_sub1v_cell,
        )

        ramp = Sub1VStartupConfig(delay=2e-6, ramp=20e-6)
        circuit = build_startup_sub1v_cell(ramp)
        t_end = ramp.t_on + 80e-6
        result = Session(circuit).run(Transient(t_stop=t_end)).result
        dc = solve_dc(circuit, time=t_end)
        vref_dc = float(dc.x[circuit.node_index("vref")])
        assert abs(result.voltage("vref")[-1] - vref_dc) < 1e-3
        assert result.voltage("vref")[-1] < 1.0

    def test_sub1v_netlist_matches_closed_form(self):
        from repro.circuits.sub1v import Sub1VBandgap, Sub1VConfig, build_sub1v_cell

        config = Sub1VConfig()
        circuit = build_sub1v_cell(config)
        op = Session(circuit).run(OP()).op
        closed_form = Sub1VBandgap(config).vref(300.15)
        assert op.voltage("vref") == pytest.approx(closed_form, abs=2e-3)

    def test_amp_rout_survives_node_named_amp_out(self):
        # The internal amplifier-output node must not collide with a
        # user-named cell node (a collision silently shorted ROUT).
        from repro.circuits.bandgap_cell import CellNodes, build_bandgap_cell

        circuit = build_bandgap_cell(
            nodes=CellNodes(vref="amp_out"), amp_output_resistance=1e4
        )
        rout = circuit.element("ROUT")
        assert rout.nodes[0] != rout.nodes[1]

    def test_sub1v_config_validates_netlist_knobs(self):
        from repro.circuits.sub1v import Sub1VConfig
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            Sub1VConfig(mirror_gm=-4e-5)
        with pytest.raises(ModelError):
            Sub1VConfig(opamp_gain=0.0)
