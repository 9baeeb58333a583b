"""Tests of nonlinear DC solving: diodes, BJTs, op-amps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bjt import BJTParameters, GummelPoonModel
from repro.constants import thermal_voltage
from repro.errors import ConvergenceError
from repro.spice import (
    OP,
    Circuit,
    CurrentSource,
    Diode,
    OpAmp,
    Resistor,
    Session,
    VoltageSource,
)
from repro.spice.elements.base import limited_exp
from repro.spice.elements.bjt import SpiceBJT, add_bjt


class TestLimitedExp:
    def test_identity_below_cap(self):
        value, slope = limited_exp(10.0)
        assert value == pytest.approx(math.exp(10.0), rel=1e-12)
        assert slope == pytest.approx(math.exp(10.0), rel=1e-12)

    def test_linear_continuation(self):
        edge_value, _ = limited_exp(120.0)
        value, slope = limited_exp(125.0)
        assert value == pytest.approx(edge_value * 6.0, rel=1e-12)
        assert slope == pytest.approx(edge_value, rel=1e-12)

    def test_continuity_at_cap(self):
        below, _ = limited_exp(119.999999)
        above, _ = limited_exp(120.000001)
        assert below == pytest.approx(above, rel=1e-5)

    @given(arg=st.floats(min_value=-50.0, max_value=200.0))
    def test_monotone_and_finite(self, arg):
        value, slope = limited_exp(arg)
        assert math.isfinite(value) and math.isfinite(slope)
        assert slope > 0.0

    def test_cap_clears_cold_junction_bias(self):
        # The cap must exceed the junction argument at the coldest paper
        # temperature (-80 C), where vbe/VT ~ 55-60 for these devices.
        assert limited_exp(60.0)[0] == math.exp(60.0)


class TestDiodeCircuits:
    def test_diode_resistor_consistency(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        diode = Diode("D1", "d", "0")
        c.add(diode)
        op = Session(c).run(OP()).op
        vd = op.voltage("d")
        i_r = (5.0 - vd) / 1e3
        i_d, _ = diode.current_and_conductance(vd, 300.15)
        assert i_d == pytest.approx(i_r, rel=1e-6)

    def test_reverse_biased_diode_blocks(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", -5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        op = Session(c).run(OP()).op
        # All of the supply appears across the diode.
        assert op.voltage("d") == pytest.approx(-5.0, abs=1e-3)

    def test_diode_forward_drop_temperature(self):
        def forward_drop(t):
            c = Circuit()
            c.add(CurrentSource("I1", "0", "d", 1e-4))
            c.add(Diode("D1", "d", "0"))
            return Session(c).run(OP(temperature_k=t)).voltage("d")

        # ~ -2 mV/K CTAT slope.
        slope = (forward_drop(310.0) - forward_drop(290.0)) / 20.0
        assert -2.6e-3 < slope < -1.4e-3

    @settings(max_examples=20, deadline=None)
    @given(i=st.floats(min_value=1e-6, max_value=1e-3))
    def test_current_driven_diode_matches_shockley(self, i):
        # Currents where the ~1e-12 A gmin leaks are negligible.
        c = Circuit()
        c.add(CurrentSource("I1", "0", "d", i))
        diode = Diode("D1", "d", "0")
        c.add(diode)
        op = Session(c).run(OP()).op
        expected = thermal_voltage(300.15) * math.log(i / diode.is_at(300.15) + 1.0)
        assert op.voltage("d") == pytest.approx(expected, rel=1e-6)


class TestBJTCircuits:
    def test_diode_connected_pnp_matches_device_model(self):
        # Junction-level: current-driven diode-connected PNP must agree
        # with GummelPoonModel.vbe_for_ic (same maths, two code paths).
        params = BJTParameters(rb=0.0, re=0.0, rc=0.0)
        c = Circuit()
        c.add(CurrentSource("I1", "0", "e", 1e-5))
        c.add(SpiceBJT("Q1", "0", "0", "e", params))
        op = Session(c).run(OP()).op
        # The forced current splits into collector and base current.
        model = GummelPoonModel(params)
        vbe = op.voltage("e")
        total = model.collector_current(vbe, 300.15) + model.base_current(vbe, 300.15)
        assert total == pytest.approx(1e-5, rel=1e-6)

    def test_npn_polarity(self):
        params = BJTParameters(polarity="npn", rb=0.0, re=0.0, rc=0.0)
        c = Circuit()
        # Diode-connected NPN pulled up by a resistor.
        c.add(VoltageSource("V1", "vdd", "0", 3.0))
        c.add(Resistor("R1", "vdd", "d", 100e3))
        c.add(SpiceBJT("Q1", "d", "d", "0", params))
        op = Session(c).run(OP()).op
        assert 0.4 < op.voltage("d") < 0.8

    def test_series_resistance_expansion(self):
        params = BJTParameters()  # rb=120, re=18, rc=45
        c = Circuit()
        c.add(CurrentSource("I1", "0", "e", 1e-5))
        add_bjt(c, "Q1", "0", "0", "e", params)
        assert c.has_element("Q1.rb")
        assert c.has_element("Q1.re")
        assert c.has_element("Q1.rc")
        op = Session(c).run(OP()).op
        # Emitter terminal voltage = junction + series drops > junction-only.
        junction = op.voltage("Q1#e")
        terminal = op.voltage("e")
        assert terminal > junction

    def test_common_emitter_amplifier(self):
        # NPN biased in forward active: IB ~ 2.2 uA, IC ~ BF*IB ~ 0.17 mA,
        # collector drop ~ 1.7 V.
        params = BJTParameters(polarity="npn", rb=0.0, re=0.0, rc=0.0)
        c = Circuit()
        c.add(VoltageSource("VCC", "vdd", "0", 5.0))
        c.add(Resistor("RB1", "vdd", "b", 2e6))
        c.add(Resistor("RC", "vdd", "cc", 10e3))
        c.add(SpiceBJT("Q1", "cc", "b", "0", params))
        op = Session(c).run(OP()).op
        # Collector sits between the rails (device in forward active).
        assert 1.0 < op.voltage("cc") < 4.5

    def test_matched_pair_delta_vbe_in_circuit(self):
        # Two current-driven PNPs with area ratio 8: dVBE = VT ln 8 plus
        # the base-current/qb corrections.
        params = BJTParameters(rb=0.0, re=0.0, rc=0.0)
        c = Circuit()
        c.add(CurrentSource("IA", "0", "ea", 1e-5))
        c.add(CurrentSource("IB", "0", "eb", 1e-5))
        c.add(SpiceBJT("QA", "0", "0", "ea", params))
        c.add(SpiceBJT("QB", "0", "0", "eb", params.scaled(8.0, name="QB")))
        op = Session(c).run(OP(temperature_k=297.0)).op
        dvbe = op.voltage("ea") - op.voltage("eb")
        ideal = thermal_voltage(297.0) * math.log(8.0)
        assert dvbe == pytest.approx(ideal, abs=5e-4)


class TestOpAmpCircuits:
    def test_unity_follower(self):
        c = Circuit()
        c.add(VoltageSource("V1", "ref", "0", 1.234))
        c.add(OpAmp("A1", "ref", "out", "out", gain=1e5))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(1.234, abs=1e-4)

    def test_noninverting_amplifier(self):
        c = Circuit()
        c.add(VoltageSource("V1", "ref", "0", 0.5))
        c.add(OpAmp("A1", "ref", "fb", "out", gain=1e5))
        c.add(Resistor("R2", "out", "fb", 3e3))
        c.add(Resistor("R1", "fb", "0", 1e3))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(2.0, abs=2e-4)

    def test_offset_voltage(self):
        c = Circuit()
        c.add(VoltageSource("V1", "ref", "0", 1.0))
        c.add(OpAmp("A1", "ref", "out", "out", gain=1e5, vos=5e-3))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(1.005, abs=1e-4)

    def test_output_clamped_to_rails(self):
        c = Circuit()
        c.add(VoltageSource("V1", "inp", "0", 1.0))
        c.add(OpAmp("A1", "inp", "0", "out", gain=1e5, rail_high=3.0))
        c.add(Resistor("RL", "out", "0", 1e4))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(3.0, abs=1e-3)

    def test_callable_offset(self):
        c = Circuit()
        c.add(VoltageSource("V1", "ref", "0", 1.0))
        c.add(OpAmp("A1", "ref", "out", "out", gain=1e5, vos=lambda t: 1e-5 * t))
        session = Session(c)
        assert session.run(OP(temperature_k=300.0)).voltage("out") == pytest.approx(1.003, abs=1e-4)
        assert session.run(OP(temperature_k=400.0)).voltage("out") == pytest.approx(1.004, abs=1e-4)


class TestConvergenceFailure:
    def test_singular_circuit_raises(self):
        # Two ideal voltage sources fighting across the same nodes.
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(VoltageSource("V2", "a", "0", 2.0))
        with pytest.raises(ConvergenceError):
            Session(c).run(OP())
