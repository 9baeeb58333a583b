"""Hierarchical ``.SUBCKT`` netlists: flattening, errors, sparse routing.

Four concern groups:

* **Flattening equivalence** — an ``X``-instantiated deck must solve to
  the same voltages as its hand-flattened twin, to 1e-12, on both
  device-evaluator paths (the classes marked ``device_eval_path``).
* **Hierarchy semantics** — nested instances, per-instance parameter
  overrides, local-model shadowing, case-insensitive subckt/model
  names, ground-alias pass-through, hierarchical F/H sense references.
* **Error taxonomy** — the typed failures (unknown subckt, port arity,
  recursion, malformed blocks) raise their specific classes.
* **Sparse-path witness** — a generated >=200-unknown netlist must
  actually route through sparse assembly + splu with zero format
  conversions, and the sparse stale-LU policy must beat the dense one
  on a warm-started resweep of the 120-cell array, on both
  device-evaluator paths.
"""

import numpy as np
import pytest

from repro.errors import (
    NetlistError,
    SubcktArityError,
    SubcktError,
    SubcktRecursionError,
    UnknownSubcktError,
)
from repro.spice.hierarchy import bandgap_array, resistor_ladder
from repro.spice.mna import MNASystem
from repro.spice.parser import parse_netlist
from repro.spice.plans import OP
from repro.spice.session import Session
from repro.spice.solver import NewtonWorkspace, solve_dc_system
from repro.spice.stats import STATS


def _op(circuit):
    return Session(circuit).run(OP())


#: A two-resistor divider cell used by the equivalence tests.
DIVIDER_DECK = """
.SUBCKT DIV top out rt=1k rb=1k
R1 top out {rt}
R2 out 0 {rb}
.ENDS DIV
V1 in 0 2
X1 in mid DIV rt=2k rb=2k
X2 mid tap DIV
"""

DIVIDER_FLAT = """
V1 in 0 2
RX1A in mid 2k
RX1B mid 0 2k
RX2A mid tap 1k
RX2B tap 0 1k
"""

#: Nonlinear cell (diode + BJT with a subckt-local model).
NONLINEAR_DECK = """
.model QM NPN (IS=1e-16 BF=100)
.SUBCKT CELL vin vout rl=10k
.model DL D (IS=2e-15)
R1 vin a {rl}
D1 a 0 DL
Q1 vout a 0 QM
R2 vin vout 20k
.ENDS
V1 vdd 0 3
X1 vdd o1 CELL rl=5k
"""

NONLINEAR_FLAT = """
.model QM NPN (IS=1e-16 BF=100)
.model DL D (IS=2e-15)
V1 vdd 0 3
R1 vdd a 5k
D1 a 0 DL
Q1 o1 a 0 QM
R2 vdd o1 20k
"""


@pytest.mark.usefixtures("device_eval_path")
class TestFlatteningEquivalence:
    def test_linear_divider_matches_hand_flattened(self):
        hier = _op(parse_netlist(DIVIDER_DECK))
        flat = _op(parse_netlist(DIVIDER_FLAT))
        for node in ("in", "mid", "tap"):
            assert hier.voltage(node) == pytest.approx(
                flat.voltage(node), abs=1e-12
            )

    def test_nonlinear_cell_matches_hand_flattened(self):
        hier = _op(parse_netlist(NONLINEAR_DECK))
        flat = _op(parse_netlist(NONLINEAR_FLAT))
        assert hier.voltage("o1") == pytest.approx(
            flat.voltage("o1"), abs=1e-12
        )
        # Internal node: hierarchical name on the subckt side.
        assert hier.voltage("X1.a") == pytest.approx(
            flat.voltage("a"), abs=1e-12
        )


class TestHierarchySemantics:
    def test_nested_instances_flatten_recursively(self):
        deck = """
        .SUBCKT INNER a b
        R1 a b 1k
        .ENDS
        .SUBCKT OUTER p q
        X1 p m INNER
        X2 m q INNER
        .ENDS
        V1 t 0 1
        X9 t out OUTER
        RL out 0 1k
        """
        circuit = parse_netlist(deck)
        names = [el.name for el in circuit.elements]
        assert "X9.X1.R1" in names and "X9.X2.R1" in names
        assert "X9.m" in circuit.nodes
        # 2k series into 1k load from 1 V.
        assert _op(circuit).voltage("out") == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_parameter_defaults_and_overrides(self):
        deck = """
        .SUBCKT DIV top out rt=1k rb=1k
        R1 top out {rt}
        R2 out 0 {rb}
        .ENDS
        V1 in 0 2
        X1 in a DIV
        X2 in b DIV rb=3k
        """
        result = _op(parse_netlist(deck))
        # abs 1e-6: the gmin leak (1e-12 S per node) shifts a kilo-ohm
        # divider by ~5e-10 V, which is physics, not a flattening error.
        assert result.voltage("a") == pytest.approx(1.0, abs=1e-6)
        assert result.voltage("b") == pytest.approx(1.5, abs=1e-6)

    def test_subckt_and_model_names_are_case_insensitive(self):
        deck = """
        .subckt cell a b
        .model dm d (IS=1e-15)
        D1 a b DM
        .ends
        V1 p 0 1
        X1 p q CeLl
        R1 q 0 1k
        """
        circuit = parse_netlist(deck)
        assert circuit.has_element("X1.D1")
        assert _op(circuit).voltage("q") > 0.1

    def test_local_model_shadows_global(self):
        deck = """
        .model DM D (IS=1e-15)
        .SUBCKT S a
        .model DM D (IS=1e-12)
        D1 a 0 DM
        .ENDS
        I1 0 n1 1m
        X1 n1 S
        I2 0 n2 1m
        D2 n2 0 DM
        """
        result = _op(parse_netlist(deck))
        # The shadowed IS is 1000x larger, so the local diode drops
        # ~3 * ln(10) * Vt less at the same current.
        assert result.voltage("n2") - result.voltage("n1") > 0.15

    def test_ground_aliases_pass_through(self):
        deck = """
        .SUBCKT S a
        R1 a gnd 1k
        R2 a 0 1k
        .ENDS
        V1 n 0 1
        X1 n S
        """
        circuit = parse_netlist(deck)
        # Neither ground spelling became an X1.* internal node.
        assert all(not node.endswith(".gnd") for node in circuit.nodes)
        assert circuit.has_element("X1.R1")

    def test_sense_element_reference_stays_inside_instance(self):
        deck = """
        .SUBCKT S p q
        V1 p m 0
        R1 m q 1k
        F1 0 q V1 2
        .ENDS
        V9 in 0 1
        X1 in out S
        RL out 0 1k
        """
        circuit = parse_netlist(deck)
        sensed = circuit.element("X1.F1").sensed
        assert sensed.name == "X1.V1"

    def test_waveform_sources_inside_subckt(self):
        deck = """
        .SUBCKT S p
        V1 p 0 PULSE(0 1 1u 1u 1u)
        .ENDS
        X1 n S
        R1 n 0 1k
        """
        circuit = parse_netlist(deck)
        assert circuit.has_element("X1.V1")

    def test_opamp_supply_kwarg_node_is_remapped(self):
        deck = """
        .SUBCKT AMP inp inn out vdd
        A1 inp inn out supply=vdd
        .ENDS
        V1 vcc 0 5
        V2 p 0 1
        X1 p fb fb vcc AMP
        """
        circuit = parse_netlist(deck)
        amp = circuit.element("X1.A1")
        assert "vcc" in amp.nodes

    def test_title_and_model_spacing_variants(self):
        # The .model '=' spacing bugfix: all three spellings parse.
        for params in ("IS = 1e-16", "IS= 1e-16", "IS =1e-16"):
            deck = f"""
            .model QX NPN ({params} BF=50)
            V1 c 0 2
            I1 0 b 1u
            Q1 c b 0 QX
            """
            circuit = parse_netlist(deck)
            assert circuit.has_element("Q1")


class TestErrorTaxonomy:
    def test_unknown_subckt(self):
        with pytest.raises(UnknownSubcktError, match="NOPE"):
            parse_netlist("X1 a b NOPE")

    def test_port_arity(self):
        deck = ".SUBCKT S a b\nR1 a b 1k\n.ENDS\nX1 n1 S"
        with pytest.raises(SubcktArityError, match="2 port"):
            parse_netlist(deck)

    def test_direct_recursion(self):
        deck = ".SUBCKT S a\nX2 a S\n.ENDS\nV1 a 0 1\nX1 a S"
        with pytest.raises(SubcktRecursionError):
            parse_netlist(deck)

    def test_mutual_recursion(self):
        deck = """
        .SUBCKT A p
        X1 p B
        .ENDS
        .SUBCKT B p
        X1 p A
        .ENDS
        X9 n A
        """
        with pytest.raises(SubcktRecursionError):
            parse_netlist(deck)

    def test_unclosed_definition(self):
        with pytest.raises(SubcktError, match="never closed"):
            parse_netlist(".SUBCKT S a\nR1 a 0 1k\n")

    def test_stray_ends(self):
        with pytest.raises(SubcktError, match="without"):
            parse_netlist("R1 a 0 1k\n.ENDS\n")

    def test_mismatched_ends_name(self):
        with pytest.raises(SubcktError, match="does not close"):
            parse_netlist(".SUBCKT S a\nR1 a 0 1k\n.ENDS T\n")

    def test_nested_definition_rejected(self):
        deck = ".SUBCKT S a\n.SUBCKT T b\nR1 b 0 1\n.ENDS\n.ENDS\nX1 n S"
        with pytest.raises(SubcktError, match="nested"):
            parse_netlist(deck)

    def test_repeated_port_name(self):
        # Two ports of one name: one connection could never be reached.
        deck = ".SUBCKT BAD p p\nR1 p 0 1k\n.ENDS\nX1 a b BAD"
        with pytest.raises(SubcktError, match="port 'p' more than once"):
            parse_netlist(deck)

    def test_duplicate_definition(self):
        deck = ".SUBCKT S a\nR1 a 0 1\n.ENDS\n.SUBCKT s a\nR1 a 0 1\n.ENDS\n"
        with pytest.raises(SubcktError, match="duplicate"):
            parse_netlist(deck)

    def test_unknown_parameter_override(self):
        deck = ".SUBCKT S a\nR1 a 0 1k\n.ENDS\nX1 n S bogus=2"
        with pytest.raises(NetlistError, match="bogus"):
            parse_netlist(deck)

    def test_unknown_parameter_reference(self):
        deck = ".SUBCKT S a\nR1 a 0 {missing}\n.ENDS\nX1 n S"
        with pytest.raises(NetlistError, match="missing"):
            parse_netlist(deck)

    def test_taxonomy_is_netlist_error(self):
        # Callers written against the legacy hierarchy keep working.
        for exc in (UnknownSubcktError, SubcktArityError, SubcktRecursionError):
            assert issubclass(exc, SubcktError)
            assert issubclass(exc, NetlistError)


class TestModelCaseInsensitivity:
    """The parser model-lookup bugfix: SPICE decks are case-insensitive."""

    def test_bjt_model_lower_reference(self):
        deck = """
        .model QMOD NPN (IS=1e-16 BF=100)
        V1 c 0 2
        I1 0 b 1u
        Q1 c b 0 qmod
        """
        assert parse_netlist(deck).has_element("Q1")

    def test_bjt_model_lower_definition(self):
        deck = """
        .model qmod NPN (IS=1e-16 BF=100)
        V1 c 0 2
        I1 0 b 1u
        Q1 c b 0 QMOD
        """
        assert parse_netlist(deck).has_element("Q1")

    def test_diode_model_mixed_case(self):
        deck = """
        .model DMod D (IS=1e-15)
        I1 0 a 1m
        D1 a 0 dmOD
        """
        assert parse_netlist(deck).has_element("D1")

    def test_unknown_model_still_fails(self):
        deck = "I1 0 a 1m\nD1 a 0 NODEF\n"
        with pytest.raises(NetlistError, match="NODEF"):
            parse_netlist(deck)


@pytest.mark.usefixtures("device_eval_path")
class TestSparseRouting:
    """The >=200-unknown witness: generated hierarchy actually routes
    through sparse assembly and splu, conversion-free, on both
    device-evaluator paths."""

    @pytest.mark.parametrize("cells", [30, 120])
    def test_generated_array_routes_sparse(self, cells):
        circuit = parse_netlist(bandgap_array(cells=cells))
        session = Session(circuit)
        assert session.system.size >= 200
        before = STATS.snapshot()
        result = session.run(OP())
        delta = STATS.delta_since(before)
        assert delta["sparse_assemblies"] > 0
        assert delta["sparse_factorizations"] > 0
        assert delta["sparse_conversions"] == 0
        assert result.op.residual < 1e-9
        outputs = [result.voltage(f"o{i}") for i in range(cells)]
        assert max(outputs) - min(outputs) < 1e-9

    def test_sparse_reuse_policy_beats_the_dense_policy(self, monkeypatch):
        # The same warm-started 9-point resweep of the 120-cell array,
        # once under the sparse stale-LU policy (limit 16, contraction
        # 0.4) and once under the dense limits (4 / 0.1) applied to the
        # sparse factors: the sparse policy must spend no more
        # factorizations, reuse at least as often, and win on one.
        from repro.spice import solver

        def warm_resweep():
            system = MNASystem(parse_netlist(bandgap_array(cells=120)))
            workspace = NewtonWorkspace()
            before = STATS.snapshot()
            x = None
            for temperature in np.linspace(280.15, 320.15, 9):
                system.set_temperature(temperature)
                x = solve_dc_system(system, x0=x, workspace=workspace).x
            delta = STATS.delta_since(before)
            assert delta["sparse_conversions"] == 0
            return delta["factorizations"], delta["lu_reuses"]

        with monkeypatch.context() as patch:
            patch.setattr(solver, "SPARSE_REUSE_LIMIT", solver.REUSE_LIMIT)
            patch.setattr(solver, "SPARSE_REUSE_CONTRACTION", solver.REUSE_CONTRACTION)
            strict_factorizations, strict_reuses = warm_resweep()
        tuned_factorizations, tuned_reuses = warm_resweep()
        assert tuned_factorizations <= strict_factorizations
        assert tuned_reuses >= strict_reuses
        assert (
            tuned_factorizations < strict_factorizations
            or tuned_reuses > strict_reuses
        )

    def test_generated_ladder_factors_once(self):
        circuit = parse_netlist(resistor_ladder(sections=120))
        session = Session(circuit)
        assert session.system.size >= 200
        before = STATS.snapshot()
        session.run(OP())
        delta = STATS.delta_since(before)
        assert delta["factorizations"] == 1
        assert delta["sparse_factorizations"] == 1
        assert delta["sparse_conversions"] == 0

    def test_jitter_spreads_cell_outputs_deterministically(self):
        deck_a = bandgap_array(cells=8, jitter=0.2)
        deck_b = bandgap_array(cells=8, jitter=0.2)
        assert deck_a == deck_b  # no RNG anywhere
        result = _op(parse_netlist(deck_a))
        outputs = [result.voltage(f"o{i}") for i in range(8)]
        assert max(outputs) - min(outputs) > 1e-4
