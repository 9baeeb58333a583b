"""Differential flatten harness: templates vs whole-body text expansion.

:func:`repro.spice.parser.parse_netlist` compiles each ``.SUBCKT`` body
once into element templates; ``reference_flatten.reference_parse``
substitutes and parses the body text for every instance.  On every deck
below the two must agree on the whole circuit -- each element's class,
name, nodes, attribute values and sensed element, the node registration
order (which fixes the MNA unknown order) and the Session fingerprint --
or raise the same first error, type and message.

Decks: every ``.SUBCKT`` deck written in ``tests/spice`` and
``examples/subckt_array.py``, the generated arrays and ladders at
several sizes, hand-written decks for the lines that stay text per
instance, error-order cases, and a hypothesis family of bodies.
"""

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.spice.elements import Element
from repro.spice.hierarchy import bandgap_array, resistor_ladder
from repro.spice.parser import parse_netlist
from repro.spice.session import _fingerprint
from repro.spice.stats import STATS

from reference_flatten import reference_parse

_REPO = Path(__file__).resolve().parents[2]


def _canon(value):
    """A comparable form of an element attribute: elements by name,
    waveforms and model cards by their fields, NaN by a token."""
    if isinstance(value, Element):
        return ("element", value.name)
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    if isinstance(value, dict):
        return {key: _canon(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_canon(item) for item in value)
    if hasattr(value, "__dict__") and not callable(value):
        return (type(value).__name__, _canon(vars(value)))
    return value


def _snapshot(circuit):
    elements = [
        (
            type(el).__name__,
            el.name,
            el.nodes,
            _canon(vars(el)),
            getattr(getattr(el, "sensed", None), "name", None),
        )
        for el in circuit.elements
    ]
    return circuit.title, circuit.nodes, elements, _fingerprint(circuit)


def _outcome(parse, deck):
    try:
        circuit = parse(deck)
    except Exception as exc:  # the first error is part of the contract
        return ("raised", type(exc), str(exc))
    return ("parsed", _snapshot(circuit))


def assert_same_flattening(deck):
    assert _outcome(parse_netlist, deck) == _outcome(reference_parse, deck)


def _written_decks():
    """Every string literal in the other spice tests and the subcircuit
    example that holds a ``.SUBCKT`` or ``.ENDS`` card, keyed by
    file:line (docstrings and f-string fragments are not decks)."""
    files = sorted((_REPO / "tests" / "spice").glob("test_*.py"))
    files.remove(Path(__file__).resolve())
    files.append(_REPO / "examples" / "subckt_array.py")
    decks = {}
    for path in files:
        tree = ast.parse(path.read_text())
        not_decks = {
            id(part)
            for node in ast.walk(tree)
            for part in (
                node.values if isinstance(node, ast.JoinedStr)
                else [node.value] if isinstance(node, ast.Expr)
                else []
            )
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in not_decks
                and (".subckt" in node.value.lower() or ".ends" in node.value.lower())
                and node.value not in decks.values()
            ):
                decks[f"{path.name}:{node.lineno}"] = node.value
    return decks


WRITTEN_DECKS = _written_decks()


def test_written_deck_scan_finds_the_suites():
    names = {key.split(":")[0] for key in WRITTEN_DECKS}
    assert names == {"test_subckt.py", "subckt_array.py"}
    assert len(WRITTEN_DECKS) >= 20


@pytest.mark.parametrize("deck", list(WRITTEN_DECKS.values()), ids=list(WRITTEN_DECKS))
def test_written_decks(deck):
    assert_same_flattening(deck)


@pytest.mark.parametrize("jitter", [0.0, 0.1])
@pytest.mark.parametrize("cells", [1, 12, 60, 101, 120])
def test_generated_arrays(cells, jitter):
    assert_same_flattening(bandgap_array(cells=cells, jitter=jitter))


@pytest.mark.parametrize("sections", [1, 250, 1000])
def test_generated_ladders(sections):
    assert_same_flattening(resistor_ladder(sections=sections))


#: Lines the templates cannot express, each kept as text per instance,
#: and the node-slot corner cases.
HAND_DECKS = {
    "partial-value": """
        .SUBCKT S a b r=2
        R1 a b {r}k
        R2 b 0 1k tc1={r}m
        .ENDS
        V1 in 0 1
        X1 in o1 S
        X2 in o2 S r=3
    """,
    "param-in-node": """
        .SUBCKT S a p=1
        R1 a n{p} 1k
        R2 n{p} 0 1k
        R3 a {p} 2k
        .ENDS
        V1 in 0 1
        X1 in S
        X2 in S p=2
    """,
    "param-in-body-model": """
        .SUBCKT S a is=1e-15
        .model DL D (IS={is})
        R1 a m 1k
        D1 m 0 DL
        .ENDS
        I1 0 n1 1m
        X1 n1 S
        I2 0 n2 1m
        X2 n2 S is=1e-12
    """,
    "param-in-waveform": """
        .SUBCKT S p v=1
        V1 p 0 PULSE(0 {v} 1u)
        R1 p 0 1k
        .ENDS
        X1 n S
        X2 m S v=2
    """,
    "nested-override": """
        .SUBCKT INNER a b r=1k
        R1 a b {r}
        .ENDS
        .SUBCKT OUTER p q r=2k
        X1 p m INNER r={r}
        X2 m q INNER r={r}k
        X3 q 0 INNER
        .ENDS
        V1 t 0 1
        X9 t out OUTER r=5k
        X8 out 0 OUTER
    """,
    "every-kind": """
        .model QM NPN (IS=1e-16 BF=100 RB=10 RE=1)
        .SUBCKT AMP inp out vdd g=1e4 r=1k
        .model DM D (IS=1e-15)
        V1 vdd s 0
        R1 s inp {r} tc1=1m
        C1 inp 0 1p
        A1 inp out out gain={g} vos=1m supply=vdd
        E1 e 0 inp gnd 2
        G1 0 e inp 0 {g}
        F1 0 e V1 0.5
        H1 h 0 V1 {r}
        R2 h 0 1k
        D1 e 0 DM
        Q1 e inp 0 QM
        I1 0 e dc 1u
        .ENDS
        V9 vcc 0 5
        V8 in 0 1
        X1 in o1 vcc AMP
        X2 in o2 vcc AMP g=2e4 r=2k
    """,
    # MID's parametrized .model makes its scope per instance, so LEAF
    # compiles once per MID instance and D1 sees that instance's DL.
    "nested-under-parametrized-model": """
        .SUBCKT LEAF a b r=1k
        R1 a b {r}
        D1 b 0 DL
        .ENDS
        .SUBCKT MID p q is=1e-15 r=2k
        .model DL D (IS={is})
        X1 p m LEAF r={r}
        X2 m q LEAF
        .ENDS
        .model DL D (IS=1e-14)
        V1 t 0 1
        X9 t o MID is=1e-13
        X8 o 0 MID
    """,
    # A port spelled like a ground alias stays ground inside the body.
    "ground-named-port": """
        .SUBCKT S a gnd
        R1 a gnd 1k
        R2 a 0 2k
        .ENDS
        V1 in 0 1
        X1 in m S
        R9 m 0 1k
    """,
    # A sense name is always the instance's own element, even when a
    # port has the same name.
    "sense-named-like-a-port": """
        .SUBCKT S vs q
        vs vs m 0
        R1 m 0 1k
        F1 0 q vs 2
        .ENDS
        V1 in 0 1
        X1 in out S
        RL out 0 1k
    """,
}


@pytest.mark.parametrize("deck", list(HAND_DECKS.values()), ids=list(HAND_DECKS))
def test_hand_written_decks(deck):
    assert_same_flattening(deck)


#: The first error must be the whole-body expansion's, in its order.
ORDER_DECKS = {
    # Line 1 collides with a top-level name; line 3 has a bad value.
    "duplicate-before-bad-value": """
        .SUBCKT S a
        R1 a 0 1k
        R2 a m 1k
        R3 m 0 xyz
        .ENDS
        X1.R1 n 0 1k
        X1 n S
    """,
    # Every {param} is checked before the first element is added.
    "unknown-param-on-last-line": """
        .SUBCKT S a r=1k
        R1 a 0 {r}
        R2 a m 1k
        R3 m 0 {q}
        .ENDS
        X1 n S
    """,
    "recursion-after-an-element": """
        .SUBCKT S a
        R1 a 0 1k
        X2 a S
        .ENDS
        X1 n S
    """,
    "missing-sense-element": """
        .SUBCKT S p q
        R1 p q 1k
        F1 0 q VX 2
        .ENDS
        V1 in 0 1
        X1 in out S
    """,
    "unknown-subckt": "X1 a b NOPE",
    "bad-model-after-element": """
        .SUBCKT S a b=-1
        R1 a 0 1k
        .model QL NPN (BF={b})
        Q1 a a 0 QL
        .ENDS
        X1 n S
    """,
    "unphysical-value-per-instance": """
        .SUBCKT S a r=1k
        R1 a m 1k
        R2 m 0 {r}
        .ENDS
        X1 n S
        X2 n S r=-5
    """,
}


@pytest.mark.parametrize("deck", list(ORDER_DECKS.values()), ids=list(ORDER_DECKS))
def test_error_order_decks(deck):
    outcome = _outcome(parse_netlist, deck)
    assert outcome[0] == "raised"
    assert outcome == _outcome(reference_parse, deck)


class TestCompileCounter:
    """``SolverStats.subckt_compiles`` counts the text work left: one
    per body compile, plus one per line an instance keeps as text."""

    def _compiles(self, deck):
        before = STATS.subckt_compiles
        parse_netlist(deck)
        return STATS.subckt_compiles - before

    def test_generated_decks_compile_each_definition_once(self):
        assert self._compiles(bandgap_array(cells=120, jitter=0.1)) == 1
        assert self._compiles(resistor_ladder(sections=250)) == 1

    def test_nested_definitions_compile_once_per_scope(self):
        # OUTER once at top level, INNER once inside OUTER's scope.
        assert self._compiles(HAND_DECKS["nested-override"]) == 2 + 2

    def test_text_lines_count_per_instance(self):
        # One compile plus two text lines for each of two instances.
        assert self._compiles(HAND_DECKS["partial-value"]) == 1 + 2 * 2

    def test_parametrized_model_keeps_its_scope_per_instance(self):
        # The .model card and the D line that resolves against it.
        assert self._compiles(HAND_DECKS["param-in-body-model"]) == 1 + 2
        # MID once, LEAF once in each of MID's two instance scopes.
        assert self._compiles(HAND_DECKS["nested-under-parametrized-model"]) == 1 + 2


# -- hypothesis family -----------------------------------------------------

_VALUES = ["1k", "2.5", "47", "-1", "{r}", "{g}", "{R}", "{r}k", "1{g}", "{q}"]
_NODES = ["a", "b", "m", "n", "0", "gnd", "{g}", "n{r}"]

_nodes = st.sampled_from(_NODES)
_values = st.sampled_from(_VALUES)


@st.composite
def _body_line(draw, index):
    kind = draw(st.sampled_from("RCDQVEFHAX"))
    n = [draw(_nodes) for _ in range(4)]
    v = draw(_values)
    if kind == "R":
        tail = draw(st.sampled_from(["", f" tc1={draw(_values)}", " TC2=1u"]))
        return f"R{index} {n[0]} {n[1]} {v}{tail}"
    if kind == "C":
        return f"C{index} {n[0]} {n[1]} {v}"
    if kind == "D":
        return f"D{index} {n[0]} {n[1]} {draw(st.sampled_from(['DM', 'DL', 'dl']))}"
    if kind == "Q":
        return f"Q{index} {n[0]} {n[1]} {n[2]} {draw(st.sampled_from(['QM', 'qm', 'QX']))}"
    if kind == "V":
        value = draw(st.sampled_from([v, f"dc {v}", f"PULSE(0 {v} 1u)", "SIN(0 1 1k)"]))
        return f"V{index} {n[0]} {n[1]} {value}"
    if kind == "E":
        return f"E{index} {n[0]} {n[1]} {n[2]} {n[3]} {v}"
    if kind in "FH":
        return f"{kind}{index} {n[0]} {n[1]} V{draw(st.integers(0, 5))} {v}"
    if kind == "A":
        supply = draw(st.sampled_from(["", f" supply={n[2]}", " supply={g}"]))
        return f"A{index} {n[0]} {n[1]} {n[3]} gain={v}{supply}"
    override = draw(st.sampled_from(["", f" rr={v}", " RR={g}"]))
    return f"X{index} {n[0]} {n[1]} LEAF{override}"


_MODELS = ["", ".model DL D (IS=2e-15)", ".model DL D (IS=1e-15 N={g})"]


@st.composite
def _decks(draw):
    count = draw(st.integers(1, 6))
    body = [draw(_body_line(i)) for i in range(count)]
    model = draw(st.sampled_from(_MODELS))
    if model:
        body.insert(draw(st.integers(0, len(body))), model)
    override = repr(draw(st.floats(-10.0, 1e6, allow_nan=False)))
    return "\n".join(
        [
            ".model QM NPN (IS=1e-16 BF=100 RB=5)",
            ".model DM D (IS=1e-15)",
            ".SUBCKT LEAF p q rr=1k",
            "R1 p q {rr}",
            "R2 q 0 1k",
            ".ENDS",
            ".SUBCKT CELL a b r=1k g=2",
            *body,
            ".ENDS",
            "V9 in 0 1",
            "X1 in out CELL",
            f"X2 out mid CELL r={override}",
            "X3 mid 0 CELL g=3",
            "R9 mid 0 1k",
        ]
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(deck=_decks())
def test_hypothesis_bodies(deck):
    assert_same_flattening(deck)
