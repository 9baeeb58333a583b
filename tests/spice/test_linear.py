"""Tests of linear circuits: exact answers from circuit theory."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import NetlistError
from repro.spice import (
    OP,
    Circuit,
    CurrentSource,
    Resistor,
    Session,
    VCCS,
    VCVS,
    VoltageSource,
)


class TestVoltageDivider:
    def test_midpoint(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Resistor("R2", "out", "0", 1e3))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(5.0, rel=1e-9)

    @settings(max_examples=30)
    @given(
        r1=st.floats(min_value=10.0, max_value=1e6),
        r2=st.floats(min_value=10.0, max_value=1e6),
        v=st.floats(min_value=-100.0, max_value=100.0),
    )
    # A source below vtol: the cold start's zero vector already meets
    # every tolerance, but it is not the answer.
    @example(r1=10.0, r2=10.0, v=7.399368355671079e-09)
    def test_divider_property(self, r1, r2, v):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", v))
        c.add(Resistor("R1", "in", "out", r1))
        c.add(Resistor("R2", "out", "0", r2))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(v * r2 / (r1 + r2), rel=1e-6, abs=1e-9)

    def test_current_below_abstol_still_moves_the_node(self):
        # 0.5 pA into 1 MOhm: the zero start's KCL residual is under
        # abstol (1 pA), so a cold solve must still take a step.
        c = Circuit()
        c.add(CurrentSource("I1", "0", "out", 0.5e-12))
        c.add(Resistor("R1", "out", "0", 1e6))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(0.5e-6, rel=1e-5)

    def test_source_current_sign(self):
        # Delivering source: branch current (npos->nneg internal) negative.
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "0", 1e3))
        op = Session(c).run(OP()).op
        assert op.branch_current("V1") == pytest.approx(-10e-3, rel=1e-9)


class TestCurrentSource:
    def test_pushes_current_into_nneg(self):
        # rel 1e-8 allows for the solver's always-on gmin leak (1e-12 S).
        c = Circuit()
        c.add(CurrentSource("I1", "0", "out", 1e-3))
        c.add(Resistor("R1", "out", "0", 2e3))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(2.0, rel=1e-8)

    def test_temperature_dependent_value(self):
        c = Circuit()
        c.add(CurrentSource("I1", "0", "out", lambda t: 1e-6 * t))
        c.add(Resistor("R1", "out", "0", 1e3))
        session = Session(c)
        assert session.run(OP(temperature_k=300.0)).voltage("out") == pytest.approx(0.3, rel=1e-8)
        assert session.run(OP(temperature_k=400.0)).voltage("out") == pytest.approx(0.4, rel=1e-8)


class TestKirchhoff:
    @settings(max_examples=25)
    @given(
        r=st.floats(min_value=100.0, max_value=1e5),
        i=st.floats(min_value=1e-6, max_value=1e-2),
    )
    def test_kcl_residual_is_zero(self, r, i):
        # Conservation: the solved point satisfies KCL to solver tolerance.
        from repro.spice.mna import MNASystem


        c = Circuit()
        c.add(CurrentSource("I1", "0", "a", i))
        c.add(Resistor("R1", "a", "b", r))
        c.add(Resistor("R2", "b", "0", r))
        op = Session(c).run(OP()).op
        system = MNASystem(c)
        assert system.kcl_residual(op.x) < 1e-11

    def test_series_resistors_share_current(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 3.0))
        c.add(Resistor("R1", "in", "m", 1e3))
        c.add(Resistor("R2", "m", "0", 2e3))
        op = Session(c).run(OP()).op
        i1 = (op.voltage("in") - op.voltage("m")) / 1e3
        i2 = op.voltage("m") / 2e3
        # gmin at node m diverts ~2e-12 A of the ~1 mA branch current.
        assert i1 == pytest.approx(i2, rel=1e-8)


class TestControlledSources:
    def test_vcvs_gain(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 0.5))
        c.add(VCVS("E1", "out", "0", "in", "0", 10.0))
        c.add(Resistor("RL", "out", "0", 1e3))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(5.0, rel=1e-9)

    def test_vccs_transconductance(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 2.0))
        c.add(VCCS("G1", "0", "out", "in", "0", 1e-3))
        c.add(Resistor("RL", "out", "0", 1e3))
        op = Session(c).run(OP()).op
        # 2 mA pushed into 'out' through 1k.
        assert op.voltage("out") == pytest.approx(2.0, rel=1e-9)

    def test_vcvs_inverting(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 1.0))
        c.add(VCVS("E1", "out", "0", "0", "in", 4.0))
        c.add(Resistor("RL", "out", "0", 1e3))
        op = Session(c).run(OP()).op
        assert op.voltage("out") == pytest.approx(-4.0, rel=1e-9)


class TestResistorTemperature:
    def test_tc1_shifts_value(self):
        r = Resistor("R1", "a", "0", 1e3, tc1=1e-3, tnom=300.0)
        assert r.resistance_at(400.0) == pytest.approx(1.1e3)

    def test_tc2_quadratic(self):
        r = Resistor("R1", "a", "0", 1e3, tc2=1e-6, tnom=300.0)
        assert r.resistance_at(400.0) == pytest.approx(1e3 * 1.01)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(NetlistError):
            Resistor("R1", "a", "0", 0.0)

    def test_tc_driving_negative_rejected(self):
        r = Resistor("R1", "a", "0", 1e3, tc1=-0.01, tnom=300.0)
        with pytest.raises(NetlistError):
            r.resistance_at(500.0)

    def test_divider_with_matched_tc_is_temperature_flat(self):
        # The cell's ratio-metric trick: matched tempcos cancel.
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", 10.0))
        c.add(Resistor("R1", "in", "out", 1e3, tc1=2e-3))
        c.add(Resistor("R2", "out", "0", 1e3, tc1=2e-3))
        cold = Session(c).run(OP(temperature_k=250.0)).op.voltage("out")
        hot = Session(c).run(OP(temperature_k=400.0)).op.voltage("out")
        assert cold == pytest.approx(hot, rel=1e-9)


class TestBranchCurrentAccess:
    def test_no_branch_current_for_resistor(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(Resistor("R1", "a", "0", 1e3))
        op = Session(c).run(OP()).op
        with pytest.raises(NetlistError):
            op.branch_current("R1")

    def test_voltages_dict(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(Resistor("R1", "a", "b", 1e3))
        c.add(Resistor("R2", "b", "0", 1e3))
        voltages = Session(c).run(OP()).op.voltages()
        assert set(voltages) == {"a", "b"}
