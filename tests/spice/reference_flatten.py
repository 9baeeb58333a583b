"""Whole-body per-instance ``.SUBCKT`` expansion: the flattening oracle.

Production flattening (:mod:`repro.spice.parser`) compiles each
definition once into element templates and instantiates them per ``X``
card.  :func:`reference_parse` instead does the text work for every
instance: it substitutes ``{param}`` references into every body line,
registers the body's ``.model`` cards in a fresh child scope, then
re-tokenises, remaps and parses each element line.  It reuses the
parser's per-line helpers and dispatches nested ``X`` cards to itself,
so no template is ever involved.  ``test_flatten_equivalence.py``
measures the production parser against it: same circuits, same first
error.
"""

from typing import FrozenSet, List

from repro.errors import (
    NetlistError,
    SubcktArityError,
    SubcktError,
    SubcktRecursionError,
    UnknownSubcktError,
)
from repro.spice import parser
from repro.spice.netlist import Circuit


def reference_parse(text: str, title: str = "") -> Circuit:
    """:func:`repro.spice.parser.parse_netlist`, flattening each
    instance from its definition's body text."""
    lines = parser._join_continuations(text)
    lines, subckts = parser._extract_subckts(lines)
    circuit = Circuit(title=title)
    scope = parser._Scope({}, {}, subckts)
    deferred: List[List[str]] = []
    for line in lines:
        lower = line.lower()
        if lower.startswith(".model"):
            scope.register_model(line)
        elif lower.startswith(".title"):
            circuit.title = line[len(".title"):].strip()
        elif lower.startswith(".end"):
            break
        elif lower.startswith("."):
            raise NetlistError(f"unsupported directive: {line.split()[0]!r}")
        else:
            deferred.append(line.split())
    for tokens in deferred:
        _add(circuit, tokens, scope, frozenset())
    return circuit


def _add(circuit: Circuit, tokens: List[str], scope, active: FrozenSet[str]) -> None:
    kind = tokens[0].rsplit(".", 1)[-1][:1].upper()
    if kind == "X":
        _expand(circuit, tokens, scope, active)
    else:
        parser._add_element(circuit, tokens, scope, active)


def _expand(circuit: Circuit, tokens: List[str], scope, active: FrozenSet[str]) -> None:
    inst = tokens[0]
    pos = [t for t in tokens[1:] if "=" not in t]
    kw_tokens = [t for t in tokens[1:] if "=" in t]
    if not pos:
        raise SubcktError(
            f"subcircuit instance {inst}: expected 'X node... SUBCKT [param=v]'"
        )
    ref = pos[-1]
    conns = pos[:-1]
    sub = scope.subckts.get(ref.upper())
    if sub is None:
        raise UnknownSubcktError(
            f"subcircuit instance {inst}: unknown subcircuit {ref!r}"
        )
    if ref.upper() in active:
        chain = " -> ".join(sorted(active) + [sub.name])
        raise SubcktRecursionError(
            f"subcircuit instance {inst}: recursive instantiation of "
            f"{sub.name!r} ({chain})"
        )
    if len(conns) != len(sub.ports):
        raise SubcktArityError(
            f"subcircuit instance {inst}: {sub.name} has "
            f"{len(sub.ports)} port(s) {sub.ports}, got {len(conns)} "
            f"connection(s) {conns}"
        )
    params = dict(sub.params)
    _, overrides = parser._split_kwargs(kw_tokens)
    for key, value in overrides.items():
        if key not in params:
            raise NetlistError(
                f"subcircuit instance {inst}: unknown parameter {key!r} "
                f"for {sub.name} (declared: {sorted(params) or 'none'})"
            )
        params[key] = value
    node_map = dict(zip(sub.ports, conns))

    local = scope.child()
    body_elements: List[str] = []
    for line in sub.body:
        line = parser._substitute_params(line, params, inst)
        lower = line.lower()
        if lower.startswith(".model"):
            local.register_model(line)
        elif line.startswith("."):
            raise NetlistError(
                f"unsupported directive inside .SUBCKT {sub.name}: "
                f"{line.split()[0]!r}"
            )
        else:
            body_elements.append(line)

    next_active = active | {ref.upper()}
    for line in body_elements:
        remapped = parser._remap_instance_tokens(line.split(), inst, node_map)
        _add(circuit, remapped, local, next_active)
