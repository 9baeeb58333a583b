"""Cross-validation: the Fig. 2 netlist against the closed-form pair."""

import pytest

from repro.bjt import BJTParameters, MatchedPair, SubstratePNP
from repro.circuits.bias_pair import BiasedPair, BiasPairConfig, build_bias_pair_circuit
from repro.spice import OP, Session


def make_biased(with_leakage=False, ratio=1.0):
    params = BJTParameters()
    substrate = SubstratePNP(area=1.0) if with_leakage else None
    pair = MatchedPair(
        base_params=params,
        substrate_a=substrate,
        substrate_b=None if substrate is None else substrate.scaled(8.0),
    )
    return BiasedPair(
        pair=pair,
        config=BiasPairConfig(current_ratio_b=ratio, vce_headroom=0.0),
    )


class TestNetlistAgreement:
    @pytest.mark.parametrize("t", [248.15, 298.15, 348.15])
    def test_clean_pair_matches_closed_form(self, t):
        biased = make_biased()
        circuit = build_bias_pair_circuit(biased, temperature_k=t)
        op = Session(circuit).run(OP(temperature_k=t)).op
        dvbe_netlist = op.voltage("pa") - op.voltage("pb")
        # Terminal voltages include the asymmetric series-RE drops; the
        # closed-form path is junction-level, so allow that margin.
        assert dvbe_netlist == pytest.approx(biased.true_delta_vbe(t), abs=3e-4)

    def test_leaky_pair_matches_closed_form_at_hot(self):
        t = 400.0
        biased = make_biased(with_leakage=True)
        circuit = build_bias_pair_circuit(biased, temperature_k=t)
        op = Session(circuit).run(OP(temperature_k=t)).op
        dvbe_netlist = op.voltage("pa") - op.voltage("pb")
        assert dvbe_netlist == pytest.approx(biased.true_delta_vbe(t), abs=4e-4)

    def test_leakage_sources_present_only_when_driven(self):
        saturated = make_biased(with_leakage=True)
        circuit = build_bias_pair_circuit(saturated)
        assert circuit.has_element("ILEAK_QB")

        relaxed = BiasedPair(
            pair=saturated.pair,
            config=BiasPairConfig(vce_headroom=1.0),
        )
        circuit = build_bias_pair_circuit(relaxed)
        assert not circuit.has_element("ILEAK_QB")

    def test_current_imbalance_propagates(self):
        t = 300.15
        balanced = make_biased(ratio=1.0)
        skewed = make_biased(ratio=1.1)
        op_b = Session(build_bias_pair_circuit(balanced, t)).run(OP(temperature_k=t)).op
        op_s = Session(build_bias_pair_circuit(skewed, t)).run(OP(temperature_k=t)).op
        dvbe_b = op_b.voltage("pa") - op_b.voltage("pb")
        dvbe_s = op_s.voltage("pa") - op_s.voltage("pb")
        # More current in QB lowers dVBE by ~VT ln(1.1) ~ 2.5 mV.
        assert dvbe_b - dvbe_s == pytest.approx(2.46e-3, abs=3e-4)
