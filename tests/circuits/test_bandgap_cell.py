"""Tests for the bandgap test cell netlist (paper Fig. 3)."""

import math

import numpy as np
import pytest

from repro.bjt.substrate import SubstratePNP
from repro.circuits.bandgap_cell import (
    BandgapCellConfig,
    CellNodes,
    build_bandgap_cell,
    measure_delta_vbe,
    measure_vbe_qin,
    measure_vref,
)
from repro.constants import thermal_voltage
from repro.errors import NetlistError
from repro.spice import OP, Session, TempSweep
from repro.units import celsius_to_kelvin

IDEAL = BandgapCellConfig(substrate_unit=None)


@pytest.fixture(scope="module")
def ideal_op():
    return Session(build_bandgap_cell(IDEAL)).run(OP(temperature_k=300.15)).op


class TestConfig:
    def test_qb_is_area_scaled(self):
        qb = BandgapCellConfig().qb_params()
        assert qb.is_ == pytest.approx(8.0 * BandgapCellConfig().params.is_)

    def test_mismatch_applied(self):
        qb = BandgapCellConfig(is_mismatch=1.02).qb_params()
        assert qb.is_ == pytest.approx(8.0 * 1.02 * BandgapCellConfig().params.is_)

    def test_rejects_bad_values(self):
        with pytest.raises(NetlistError):
            BandgapCellConfig(rb=0.0)
        with pytest.raises(NetlistError):
            BandgapCellConfig(area_ratio=1.0)
        with pytest.raises(NetlistError):
            BandgapCellConfig(radja=-1.0)
        with pytest.raises(NetlistError):
            BandgapCellConfig(substrate_drive=1.5)


class TestIdealCell:
    def test_vref_in_bandgap_window(self, ideal_op):
        assert 1.20 < measure_vref(ideal_op) < 1.26

    def test_branch_tops_equalised(self, ideal_op):
        # The op-amp forces p4 ~ nb to within vref/gain.
        assert abs(ideal_op.voltage("p4") - ideal_op.voltage("nb")) < 5e-4

    def test_delta_vbe_near_vt_ln8(self, ideal_op):
        dvbe = measure_delta_vbe(ideal_op)
        ideal = thermal_voltage(300.15) * math.log(8.0)
        # Series-RE asymmetry and loop offsets keep it within ~1 mV.
        assert dvbe == pytest.approx(ideal, abs=1.5e-3)

    def test_branch_currents_equal(self, ideal_op):
        cfg = IDEAL
        i_a = (measure_vref(ideal_op) - ideal_op.voltage("p4")) / cfg.rx1
        i_b = (measure_vref(ideal_op) - ideal_op.voltage("nb")) / cfg.rx2
        assert i_a == pytest.approx(i_b, rel=1e-2)
        assert 5e-6 < i_a < 15e-6

    def test_qin_vbe_plausible(self, ideal_op):
        assert 0.6 < measure_vbe_qin(ideal_op) < 0.8

    def test_p5_pad_equals_p5_without_offset(self, ideal_op):
        assert ideal_op.voltage("p5_pad") == pytest.approx(
            ideal_op.voltage("p5"), abs=1e-9
        )

    def test_vref_curve_is_flat_to_first_order(self):
        # The trimmed ideal cell: total VREF excursion over the paper's
        # window stays within ~25 mV (Fig. 8 y-axis spans 45 mV).
        temps = [celsius_to_kelvin(t) for t in (-55, -30, -5, 20, 45, 70, 95, 120)]
        sweep = Session(build_bandgap_cell(IDEAL)).run(TempSweep(temperatures_k=temps))
        vref = sweep.voltage("vref")
        assert vref.max() - vref.min() < 25e-3


class TestNonIdealities:
    def test_offset_lifts_vref_by_loop_gain(self):
        # dVREF/dvos = (RX1 + r_d)/RB where r_d = VT/I is QA's dynamic
        # resistance (~2.9 kOhm at ~9 uA) — the paper's "ADJ pads correct
        # the offset voltage of VREF" is about exactly this sensitivity.
        vos = 3e-3
        base = Session(build_bandgap_cell(IDEAL)).run(OP(temperature_k=300.15)).op
        shifted = Session(
            build_bandgap_cell(BandgapCellConfig(substrate_unit=None, opamp_vos=vos))
        ).run(OP(temperature_k=300.15)).op
        i_bias = (measure_vref(base) - base.voltage("p4")) / IDEAL.rx1
        r_dynamic = thermal_voltage(300.15) / i_bias
        gain = (IDEAL.rx1 + r_dynamic) / IDEAL.rb
        lift = measure_vref(shifted) - measure_vref(base)
        assert lift == pytest.approx(gain * vos, rel=0.20)

    def test_leakage_raises_hot_end_only(self):
        temps = [celsius_to_kelvin(t) for t in (-30, 25, 145)]
        plan = TempSweep(temperatures_k=temps)
        clean = Session(build_bandgap_cell(IDEAL)).run(plan).voltage("vref")
        leaky = Session(build_bandgap_cell(BandgapCellConfig())).run(plan).voltage("vref")
        assert leaky[0] == pytest.approx(clean[0], abs=1e-4)
        assert leaky[1] == pytest.approx(clean[1], abs=1e-3)
        assert leaky[2] - clean[2] > 10e-3

    def test_radja_flattens_hot_end(self):
        t_hot = celsius_to_kelvin(145.0)
        vref = {}
        for radja in (0.0, 1.8e3, 2.5e3, 2.7e3):
            op = Session(build_bandgap_cell(BandgapCellConfig(radja=radja))).run(
                OP(temperature_k=t_hot)
            ).op
            vref[radja] = measure_vref(op)
        # Monotone flattening with RadjA, exactly Fig. 8's S1..S4 ordering.
        assert vref[0.0] > vref[1.8e3] > vref[2.5e3] > vref[2.7e3]

    def test_radja_no_effect_at_room_temperature(self):
        t = celsius_to_kelvin(25.0)
        plan = OP(temperature_k=t)
        base = measure_vref(
            Session(build_bandgap_cell(BandgapCellConfig(radja=0.0))).run(plan).op
        )
        trimmed = measure_vref(
            Session(build_bandgap_cell(BandgapCellConfig(radja=2.7e3))).run(plan).op
        )
        assert trimmed == pytest.approx(base, abs=1e-3)

    def test_p5_tap_offset_shifts_measured_dvbe(self):
        offset = 4.5e-3
        cfg = BandgapCellConfig(substrate_unit=None, p5_tap_offset_v=offset)
        op = Session(build_bandgap_cell(cfg)).run(OP(temperature_k=300.15)).op
        base = Session(build_bandgap_cell(IDEAL)).run(OP(temperature_k=300.15)).op
        shift = measure_delta_vbe(op) - measure_delta_vbe(base)
        assert shift == pytest.approx(offset, abs=1e-5)

    def test_mismatch_shifts_dvbe(self):
        cfg = BandgapCellConfig(substrate_unit=None, is_mismatch=1.03)
        op = Session(build_bandgap_cell(cfg)).run(OP(temperature_k=300.15)).op
        base = Session(build_bandgap_cell(IDEAL)).run(OP(temperature_k=300.15)).op
        expected = thermal_voltage(300.15) * math.log(1.03)
        assert measure_delta_vbe(op) - measure_delta_vbe(base) == pytest.approx(
            expected, abs=2e-4
        )
