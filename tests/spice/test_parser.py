"""Tests for the netlist text parser."""

import pytest

from repro.errors import NetlistError
from repro.spice import OP, Session, Transient, parse_netlist
from repro.spice.elements import Capacitor, OpAmp, Resistor, VCCS, VCVS


class TestBasicParsing:
    def test_divider(self):
        circuit = parse_netlist(
            """
            * a comment
            V1 in 0 10
            R1 in out 1k
            R2 out 0 1k
            """
        )
        assert Session(circuit).run(OP()).voltage("out") == pytest.approx(5.0, rel=1e-9)

    def test_title_directive(self):
        circuit = parse_netlist(".title my circuit\nR1 a 0 1k")
        assert circuit.title == "my circuit"

    def test_continuation_lines(self):
        circuit = parse_netlist("R1 a 0\n+ 2k")
        assert circuit.element("R1").resistance == pytest.approx(2e3)

    def test_trailing_comments(self):
        circuit = parse_netlist("R1 a 0 1k ; load\nR2 a 0 1k $ another")
        assert len(circuit) == 2

    def test_spice_suffixes(self):
        circuit = parse_netlist("R1 a 0 2.5meg\nC1 a 0 10p")
        assert circuit.element("R1").resistance == pytest.approx(2.5e6)
        assert circuit.element("C1").capacitance == pytest.approx(1e-11)

    def test_resistor_tempco_kwargs(self):
        circuit = parse_netlist("R1 a 0 1k tc1=2e-3 tc2=1e-6")
        r = circuit.element("R1")
        assert r.tc1 == pytest.approx(2e-3)
        assert r.tc2 == pytest.approx(1e-6)

    def test_dc_keyword_skipped(self):
        circuit = parse_netlist("V1 a 0 dc 3\nR1 a 0 1k")
        assert Session(circuit).run(OP()).voltage("a") == pytest.approx(3.0, rel=1e-9)

    def test_end_directive_stops_parsing(self):
        circuit = parse_netlist("R1 a 0 1k\n.end\nR2 b 0 1k")
        assert len(circuit) == 1


class TestModels:
    def test_bjt_model_and_device(self):
        circuit = parse_netlist(
            """
            .model QM PNP (IS=1.2e-17 BF=80 EG=1.1324 XTI=3.4616 RB=120 RE=18 RC=45)
            I1 0 e 10u
            Q1 0 0 e QM
            """
        )
        vbe = Session(circuit).run(OP()).voltage("e")
        assert 0.6 < vbe < 0.8

    def test_model_defined_after_device(self):
        circuit = parse_netlist(
            """
            Q1 0 0 e QM
            I1 0 e 1u
            .model QM PNP (IS=1e-17 RB=0 RE=0 RC=0)
            """
        )
        assert 0.5 < Session(circuit).run(OP()).voltage("e") < 0.8

    def test_diode_model(self):
        circuit = parse_netlist(
            """
            .model DM D (IS=1e-15 N=1.0)
            V1 in 0 5
            R1 in d 1k
            D1 d 0 DM
            """
        )
        assert 0.6 < Session(circuit).run(OP()).voltage("d") < 0.9

    def test_unknown_model_parameter_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist(".model QM PNP (FOO=1)")

    def test_unknown_model_reference_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("Q1 c b e NOPE")

    def test_unsupported_model_kind_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist(".model M NMOS (VTO=0.5)")


class TestControlledAndOpamp:
    def test_vcvs(self):
        circuit = parse_netlist("V1 in 0 1\nE1 out 0 in 0 5\nRL out 0 1k")
        assert Session(circuit).run(OP()).voltage("out") == pytest.approx(5.0, rel=1e-6)

    def test_vccs(self):
        circuit = parse_netlist("V1 in 0 1\nG1 0 out in 0 2m\nRL out 0 1k")
        assert Session(circuit).run(OP()).voltage("out") == pytest.approx(2.0, rel=1e-6)

    def test_cccs(self):
        # V1 delivers 1 mA (branch current -1 mA); F1 gain -1 pushes
        # 1 mA into 'out'.
        circuit = parse_netlist(
            "V1 in 0 1\nR1 in 0 1k\nF1 0 out V1 -1\nRL out 0 1k"
        )
        assert Session(circuit).run(OP()).voltage("out") == pytest.approx(1.0, rel=1e-6)

    def test_ccvs(self):
        circuit = parse_netlist(
            "V1 in 0 1\nR1 in 0 1k\nH1 out 0 V1 500\nRL out 0 1k"
        )
        assert Session(circuit).run(OP()).voltage("out") == pytest.approx(-0.5, rel=1e-6)

    def test_sense_element_must_precede(self):
        with pytest.raises(NetlistError):
            parse_netlist("F1 0 out V1 1\nV1 in 0 1\nR1 in 0 1k")

    def test_sense_element_must_be_voltage_defined(self):
        with pytest.raises(NetlistError):
            parse_netlist("R9 a 0 1k\nF1 0 out R9 1")

    def test_opamp_with_kwargs(self):
        circuit = parse_netlist(
            "V1 ref 0 1.2\nA1 ref out out gain=1e5 vos=1m"
        )
        amp = circuit.element("A1")
        assert isinstance(amp, OpAmp)
        assert Session(circuit).run(OP()).voltage("out") == pytest.approx(1.201, abs=1e-4)


class TestErrors:
    def test_bad_element_type(self):
        with pytest.raises(NetlistError):
            parse_netlist("X1 a b c")

    def test_wrong_arity(self):
        with pytest.raises(NetlistError):
            parse_netlist("R1 a 0")

    def test_orphan_continuation(self):
        with pytest.raises(NetlistError):
            parse_netlist("+ 2k")

    def test_unsupported_directive(self):
        with pytest.raises(NetlistError):
            parse_netlist(".tran 1n 1u")

    def test_malformed_model(self):
        with pytest.raises(NetlistError):
            parse_netlist(".model ONLYNAME")


class TestWaveformSources:
    def test_pulse_voltage_source(self):
        from repro.spice.elements.sources import Pulse

        circuit = parse_netlist(
            """
            V1 vdd 0 PULSE(0 1.8 1u 50u 1u)
            R1 vdd 0 1k
            """
        )
        wave = circuit.element("V1").dc
        assert isinstance(wave, Pulse)
        assert wave.v1 == 0.0
        assert wave.v2 == pytest.approx(1.8)
        assert wave.delay == pytest.approx(1e-6)
        assert wave.rise == pytest.approx(50e-6)
        assert wave.fall == pytest.approx(1e-6)
        assert wave.width is None

    def test_pulse_with_suffixed_numbers_and_commas(self):
        circuit = parse_netlist("I1 0 out PULSE(0, 10u, 1u, 1n, 1n, 1m, 2m)\nR1 out 0 1k")
        wave = circuit.element("I1").dc
        assert wave.value(5e-4) == pytest.approx(10e-6)

    def test_pulse_split_across_tokens_with_spaces(self):
        circuit = parse_netlist("V1 a 0 PULSE (0 5 0 1u)\nR1 a 0 1k")
        assert circuit.element("V1").dc.v2 == pytest.approx(5.0)

    def test_sin_source(self):
        from repro.spice.elements.sources import Sin

        circuit = parse_netlist("V1 a 0 SIN(2.5 0.1 1meg)\nR1 a 0 1k")
        wave = circuit.element("V1").dc
        assert isinstance(wave, Sin)
        assert wave.offset == pytest.approx(2.5)
        assert wave.frequency == pytest.approx(1e6)

    def test_pwl_source(self):
        from repro.spice.elements.sources import PWL

        circuit = parse_netlist("V1 a 0 PWL(0 0 1u 1 2u 0.5)\nR1 a 0 1k")
        wave = circuit.element("V1").dc
        assert isinstance(wave, PWL)
        assert wave.value(1.5e-6) == pytest.approx(0.75)

    def test_waveform_source_transient_end_to_end(self):
        circuit = parse_netlist(
            """
            .title parsed rc
            V1 in 0 PULSE(0 1 1u 0.1u)
            R1 in out 1k
            C1 out 0 1n
            """
        )
        result = Session(circuit).run(Transient(t_stop=10e-6)).result
        assert result.voltage("out")[-1] == pytest.approx(1.0, abs=1e-3)

    def test_plain_dc_value_still_parses(self):
        circuit = parse_netlist("V1 a 0 dc 5\nR1 a 0 1k")
        assert circuit.element("V1").dc == pytest.approx(5.0)

    def test_opamp_supply_keyword(self):
        circuit = parse_netlist("A1 p n out supply=vdd\nR1 vdd 0 1k\nR2 out 0 1k")
        amp = circuit.element("A1")
        assert amp.supply == "vdd"
        assert amp.nodes == ("p", "n", "out", "vdd")

    def test_supply_keyword_rejected_on_other_elements(self):
        # supply= is an op-amp parameter; elsewhere it must still fail
        # loudly (as any non-numeric kwarg does), not be dropped.
        with pytest.raises(NetlistError):
            parse_netlist("R1 a b 1k supply=vdd")

    def test_malformed_pulse_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("V1 a 0 PULSE(1)\nR1 a 0 1k")

    def test_malformed_pwl_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("V1 a 0 PWL(0 0 1u)\nR1 a 0 1k")

    def test_garbage_source_value_rejected(self):
        with pytest.raises(NetlistError):
            parse_netlist("V1 a 0 5 extra\nR1 a 0 1k")

    def test_non_numeric_source_value_raises_netlist_error(self):
        # The parser's contract is NetlistError, never a raw ValueError.
        with pytest.raises(NetlistError):
            parse_netlist("V1 a 0 foo\nR1 a 0 1k")
        with pytest.raises(NetlistError):
            parse_netlist("V1 a 0 PULSE(0 abc)\nR1 a 0 1k")
