"""SPICE-flavoured netlist text parser.

Supports the subset the library's circuits need::

    * comment lines and trailing comments ($ or ;)
    .title My circuit
    .model QMOD PNP (IS=1.2e-17 BF=80 EG=1.1324 XTI=3.4616)
    .model DMOD D (IS=1e-15 N=1)
    R1 a b 2k tc1=2e-3
    C1 a 0 10p
    V1 vdd 0 5
    V2 vdd 0 PULSE(0 1.8 1u 50u 1u)   ; time-varying (also PWL, SIN)
    I1 0 bias 10u
    E1 out 0 p n 1000
    G1 out 0 p n 1m
    F1 0 out V1 2      ; CCCS sensing V1's branch current
    H1 out 0 V1 500    ; CCVS sensing V1's branch current
    D1 a 0 DMOD
    Q1 c b e QMOD
    A1 inp inn out gain=1e4 vos=1m rail_high=5

Hierarchy::

    .SUBCKT CELL in out r={rval}     ; ports, then param defaults
    R1 in mid {rval}
    R2 mid out 1k
    .ENDS CELL
    X1 a b CELL rval=2k              ; nodes..., subckt name, overrides

``X`` cards are flattened recursively at parse time: element and
internal-node names gain an ``X1.`` instance prefix (``X1.R1``,
``X1.mid``), port nodes map to the connection nodes, ground aliases
pass through, and ``{param}`` references substitute the instance's
parameter values (declaration defaults overridden per instance).
Subcircuit-local ``.model`` cards shadow global ones for that instance
only.  Malformed hierarchy raises the typed taxonomy in
:mod:`repro.errors`: :class:`~repro.errors.UnknownSubcktError`,
:class:`~repro.errors.SubcktArityError` (port-count mismatch),
:class:`~repro.errors.SubcktRecursionError` (instantiation cycle) and
:class:`~repro.errors.SubcktError` for a malformed block (a port listed
twice, a nested definition, a missing ``.ENDS``).

Flattening compiles each definition once per :func:`parse_netlist`
call and enclosing model scope (:class:`_CompiledSubckt`): every body
element line becomes a template holding its kind, leaf name, node
slots, values parsed once and models resolved once, and each ``X``
card instantiates the templates by filling the slots from its
connections and parameter binding.  A line the templates cannot
express -- a ``{param}`` inside a larger token (``{r}k``), in a node or
element name, or in a body ``.model`` card -- is substituted and parsed
per instance at its position, as is a line whose compile fails, so the
flattened circuit (names, values, node order) and the first error are
those of substituting the whole body text per instance.

Model and subcircuit names are case-insensitive, like every SPICE name
(``.model QMOD NPN`` matches ``q1 c b e qmod``).  Node names remain
case-sensitive (as in the programmatic API), except for the ground
aliases.

Continuation lines start with ``+``.  Numbers accept SPICE suffixes
(``k``, ``meg``, ``u``, ``n``...).  ``Q`` lines expand series resistances
into internal nodes via :func:`repro.spice.elements.bjt.add_bjt`, exactly
like the programmatic API.

Every malformed card raises :class:`~repro.errors.NetlistError` (or a
subclass), never a raw ``ValueError`` or ``ModelError``; a bad number
in an element or ``.model`` card and an unphysical model value name the
card they come from.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Tuple

from ..bjt.parameters import BJTParameters
from ..errors import (
    ModelError,
    NetlistError,
    SubcktArityError,
    SubcktError,
    SubcktRecursionError,
    UnknownSubcktError,
)
from ..units import parse_si
from .elements import (
    CCCS,
    CCVS,
    Capacitor,
    CurrentSource,
    Diode,
    OpAmp,
    Resistor,
    VCCS,
    VCVS,
)
from .elements.bjt import add_bjt
from .elements.sources import PWL, Pulse, Sin, VoltageSource
from .netlist import Circuit, is_ground
from .stats import STATS

#: ``PULSE(...)`` / ``PWL(...)`` / ``SIN(...)`` source-value syntax.
_WAVEFORM_RE = re.compile(r"^(pulse|pwl|sin)\s*\((.*)\)$", re.IGNORECASE)

#: ``{param}`` references inside a .SUBCKT body.
_PARAM_RE = re.compile(r"\{([A-Za-z_]\w*)\}")

#: .model BJT keyword -> BJTParameters field.
_BJT_FIELDS = {
    "IS": "is_",
    "BF": "bf",
    "BR": "br",
    "NF": "nf",
    "NR": "nr",
    "ISE": "ise",
    "NE": "ne",
    "VAF": "vaf",
    "VAR": "var",
    "IKF": "ikf",
    "RB": "rb",
    "RE": "re",
    "RC": "rc",
    "EG": "eg",
    "XTI": "xti",
    "XTB": "xtb",
    "TNOM": "tnom",
    "AREA": "area",
}

_DIODE_FIELDS = {"IS": "is_", "N": "n", "EG": "eg", "XTI": "xti", "TNOM": "tnom"}


def _strip_comment(line: str) -> str:
    for marker in (";", "$"):
        if marker in line:
            line = line.split(marker, 1)[0]
    return line.strip()


def _join_continuations(text: str) -> List[str]:
    lines: List[str] = []
    for raw in text.splitlines():
        stripped = _strip_comment(raw)
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not lines:
                raise NetlistError("continuation line with nothing to continue")
            lines[-1] += " " + stripped[1:].strip()
        else:
            lines.append(stripped)
    return lines


#: key=value parameters whose value is a node name, not a number
#: (only honoured on the element kinds that declare them).
_OPAMP_STRING_KEYS = frozenset({"supply"})


def _split_kwargs(
    tokens: List[str], string_keys: frozenset = frozenset()
) -> Tuple[List[str], Dict[str, object]]:
    """Separate positional tokens from key=value tokens.

    Values parse as SI numbers except for keys in ``string_keys``,
    which keep their raw text (node-name parameters).
    """
    positional: List[str] = []
    keywords: Dict[str, object] = {}
    for token in tokens:
        if "=" in token:
            key, _, value = token.partition("=")
            if not key or not value:
                raise NetlistError(f"malformed parameter {token!r}")
            key = key.lower()
            if key in string_keys:
                keywords[key] = value
            else:
                try:
                    keywords[key] = parse_si(value)
                except ValueError:
                    raise NetlistError(
                        f"parameter {key}={value!r}: not a number"
                    ) from None
        else:
            positional.append(token)
    return positional, keywords


def _parse_model(line: str) -> Tuple[str, str, Dict[str, float]]:
    """Parse ``.model NAME KIND (K=V ...)`` -> (name, kind, params).

    The returned name is upper-cased: SPICE model names are
    case-insensitive, so definitions and references are both normalised
    at the parser boundary.
    """
    body = line[len(".model"):].strip()
    cleaned = body.replace("(", " ").replace(")", " ")
    tokens = cleaned.split()
    if len(tokens) < 2:
        raise NetlistError(f"malformed .model line: {line!r}")
    name, kind = tokens[0].upper(), tokens[1].upper()
    # Real decks put spaces around '=' ("IS = 1e-16", "IS= 1e-16",
    # "IS =1e-16"); re-join the parameter section so all three spellings
    # tokenize as K=V before the '=' check below.
    param_text = re.sub(r"\s*=\s*", "=", " ".join(tokens[2:]))
    params: Dict[str, float] = {}
    for token in param_text.split():
        if "=" not in token:
            raise NetlistError(f".model parameter without '=': {token!r}")
        key, _, value = token.partition("=")
        if not key or not value:
            raise NetlistError(f"malformed .model parameter {token!r}")
        try:
            params[key.upper()] = parse_si(value)
        except ValueError:
            raise NetlistError(
                f".model {name}: parameter {key}={value!r} is not a number"
            ) from None
    return name, kind, params


def _bjt_params_from_model(kind: str, raw: Dict[str, float], name: str) -> BJTParameters:
    fields = {"polarity": kind.lower(), "name": name}
    for key, value in raw.items():
        field = _BJT_FIELDS.get(key)
        if field is None:
            raise NetlistError(f"unknown BJT model parameter {key!r}")
        fields[field] = value
    try:
        return BJTParameters(**fields)
    except ModelError as exc:
        raise NetlistError(f".model {name}: {exc}") from None


def _number(card: str, token: str) -> float:
    """:func:`~repro.units.parse_si` under the parser's contract: an
    unparseable value is a :class:`NetlistError` naming ``card``."""
    try:
        return parse_si(token)
    except ValueError:
        raise NetlistError(f"{card}: bad numeric value {token!r}") from None


class _Scope:
    """Name environment for element dispatch: model cards (keyed by
    upper-cased name), subcircuit definitions, and the definitions
    compiled against this scope's models.  A subcircuit body expands in
    a :meth:`child` scope so its local ``.model`` cards shadow global
    ones without leaking back out."""

    def __init__(
        self,
        models_bjt: Dict[str, BJTParameters],
        models_diode: Dict[str, Dict[str, float]],
        subckts: Dict[str, "SubcktDef"],
    ):
        self.models_bjt = models_bjt
        self.models_diode = models_diode
        self.subckts = subckts
        #: Upper-cased definition name -> that body compiled for the
        #: instances expanding in this scope (lives as long as the scope,
        #: so for one parse_netlist call).
        self.compiled: Dict[str, "_CompiledSubckt"] = {}

    def child(self) -> "_Scope":
        return _Scope(dict(self.models_bjt), dict(self.models_diode), self.subckts)

    def register_model(self, line: str) -> None:
        name, kind, params = _parse_model(line)
        if kind in ("NPN", "PNP"):
            self.models_bjt[name] = _bjt_params_from_model(kind, params, name)
        elif kind == "D":
            fields = {}
            for key, value in params.items():
                field = _DIODE_FIELDS.get(key)
                if field is None:
                    raise NetlistError(f"unknown diode model parameter {key!r}")
                fields[field] = value
            self.models_diode[name] = fields
        else:
            raise NetlistError(f"unsupported model kind {kind!r}")


class SubcktDef:
    """A parsed ``.SUBCKT`` definition: ports (each listed once),
    parameter defaults and the raw body lines.  The body is compiled
    into templates on the first ``X`` instance of each model scope (see
    :class:`_CompiledSubckt`)."""

    def __init__(
        self,
        name: str,
        ports: List[str],
        params: Dict[str, float],
        body: List[str],
    ):
        self.name = name
        self.ports = ports
        self.params = params
        self.body = body

    def __repr__(self) -> str:
        return (
            f"SubcktDef({self.name!r}, ports={self.ports}, "
            f"params={sorted(self.params)}, {len(self.body)} lines)"
        )


def _extract_subckts(
    lines: List[str],
) -> Tuple[List[str], Dict[str, "SubcktDef"]]:
    """Split joined lines into top-level lines and ``.SUBCKT`` blocks.

    Definitions are keyed by upper-cased name (SPICE names are
    case-insensitive).  Nested *definitions* are rejected — nesting is
    expressed by an ``X`` card inside a body referencing another
    subcircuit, which flattening resolves recursively.
    """
    top: List[str] = []
    subckts: Dict[str, SubcktDef] = {}
    current: "SubcktDef | None" = None
    for line in lines:
        lower = line.lower()
        if lower.startswith(".subckt"):
            tokens = line.split()
            if current is not None:
                nested = tokens[1] if len(tokens) > 1 else "?"
                raise SubcktError(
                    f"nested .SUBCKT definition {nested!r} inside .SUBCKT "
                    f"{current.name!r}; instantiate with an X card instead"
                )
            if len(tokens) < 2:
                raise SubcktError(f"malformed .SUBCKT line: {line!r}")
            ports, params = _split_kwargs(tokens[2:])
            repeated = [port for i, port in enumerate(ports) if port in ports[:i]]
            if repeated:
                # Two ports of one name would leave one connection
                # dangling: the body could only ever reach one of them.
                raise SubcktError(
                    f".SUBCKT {tokens[1]!r} lists port {repeated[0]!r} "
                    "more than once"
                )
            current = SubcktDef(tokens[1], ports, params, [])
        elif lower.startswith(".ends"):
            if current is None:
                raise SubcktError(".ENDS without a matching .SUBCKT")
            tokens = line.split()
            if len(tokens) > 1 and tokens[1].upper() != current.name.upper():
                raise SubcktError(
                    f".ENDS {tokens[1]!r} does not close .SUBCKT {current.name!r}"
                )
            key = current.name.upper()
            if key in subckts:
                raise SubcktError(f"duplicate .SUBCKT definition {current.name!r}")
            subckts[key] = current
            current = None
        elif current is not None:
            current.body.append(line)
        else:
            top.append(line)
    if current is not None:
        raise SubcktError(f".SUBCKT {current.name!r} is never closed by .ENDS")
    return top, subckts


def parse_netlist(text: str, title: str = "") -> Circuit:
    """Parse netlist text into a flat :class:`Circuit`.

    ``.SUBCKT`` definitions are collected first, then every top-level
    ``X`` card is expanded recursively, so the returned circuit is
    always flat — downstream assembly and solving are hierarchy-blind.
    """
    lines = _join_continuations(text)
    lines, subckts = _extract_subckts(lines)
    circuit = Circuit(title=title)
    scope = _Scope({}, {}, subckts)
    deferred: List[List[str]] = []

    # First pass: collect models and directives so device lines can
    # reference models defined later in the file.  (.ends is consumed
    # by _extract_subckts above, so the .end check cannot shadow it.)
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
        _add_element(circuit, tokens, scope)
    return circuit


def _parse_source_value(name: str, tokens: List[str]):
    """Parse a V/I source value: a number or a PULSE/PWL/SIN waveform."""

    def to_number(token: str) -> float:
        return _number(f"source {name}", token)

    tokens = [t for t in tokens if t.lower() != "dc"]
    if not tokens:
        raise NetlistError(f"source {name}: missing value")
    joined = " ".join(tokens).strip()
    match = _WAVEFORM_RE.match(joined)
    if match is None:
        if len(tokens) != 1:
            raise NetlistError(f"source {name}: unrecognised value {joined!r}")
        return to_number(tokens[0])
    kind = match.group(1).lower()
    args = [to_number(tok) for tok in re.split(r"[\s,]+", match.group(2).strip()) if tok]
    if kind == "pulse":
        if not 2 <= len(args) <= 7:
            raise NetlistError(
                f"source {name}: PULSE takes v1 v2 [td tr tf pw per], "
                f"got {len(args)} values"
            )
        fields = dict(zip(("delay", "rise", "fall", "width", "period"), args[2:]))
        return Pulse(args[0], args[1], **fields)
    if kind == "sin":
        if not 3 <= len(args) <= 5:
            raise NetlistError(
                f"source {name}: SIN takes vo va freq [td theta], "
                f"got {len(args)} values"
            )
        fields = dict(zip(("delay", "damping"), args[3:]))
        return Sin(args[0], args[1], args[2], **fields)
    # PWL: alternating time/value pairs.
    if len(args) < 4 or len(args) % 2:
        raise NetlistError(
            f"source {name}: PWL takes t1 v1 t2 v2 ... (pairs), got {len(args)} values"
        )
    return PWL(list(zip(args[0::2], args[1::2])))


def _substitute_params(line: str, params: Dict[str, float], inst: str) -> str:
    """Replace ``{param}`` references with the instance's values."""

    def repl(match: "re.Match") -> str:
        key = match.group(1).lower()
        if key not in params:
            raise NetlistError(
                f"subcircuit instance {inst}: unknown parameter "
                f"{match.group(1)!r} in {line!r}"
            )
        return repr(params[key])

    return _PARAM_RE.sub(repl, line)


#: Leading positional tokens that are node names, per element kind.
#: F/H (node node SENSE value) and X (node... SUBCKT) need bespoke
#: handling in :func:`_remap_instance_tokens`.
_NODE_POSITIONALS = {
    "R": 2, "C": 2, "V": 2, "I": 2, "E": 4, "G": 4, "D": 2, "Q": 3, "A": 3,
}


def _remap_instance_tokens(
    tokens: List[str], inst: str, node_map: Dict[str, str]
) -> List[str]:
    """Rewrite one subcircuit-body element line for an instance.

    Element names gain the ``inst.`` prefix; node tokens map through
    the port connections, pass ground aliases unchanged, and become
    ``inst.node`` internal nodes otherwise.  CCCS/CCVS sense-element
    names and op-amp ``supply=`` nodes are rewritten too.
    """
    name = tokens[0]
    kind = name[0].upper()
    pos: List[str] = []
    kws: List[str] = []
    for token in tokens[1:]:
        (kws if "=" in token else pos).append(token)

    def mapped(node: str) -> str:
        if is_ground(node):
            return node
        return node_map.get(node, f"{inst}.{node}")

    out = list(pos)
    if kind == "X":
        for i in range(max(len(pos) - 1, 0)):
            out[i] = mapped(pos[i])
    elif kind in ("F", "H"):
        for i in range(min(2, len(pos))):
            out[i] = mapped(pos[i])
        if len(pos) > 2:
            # Branch-current sensing stays inside the instance: the
            # sensed element is the one this same expansion created.
            out[2] = f"{inst}.{pos[2]}"
    else:
        count = _NODE_POSITIONALS.get(kind)
        if count is None:
            raise NetlistError(
                f"unsupported element type {name!r} inside subcircuit"
            )
        for i in range(min(count, len(pos))):
            out[i] = mapped(pos[i])
    rewritten_kws = []
    for token in kws:
        key, _, value = token.partition("=")
        if kind == "A" and key.lower() == "supply":
            value = mapped(value)
        rewritten_kws.append(f"{key}={value}")
    return [f"{inst}.{name}"] + out + rewritten_kws


def _expand_subckt(
    circuit: Circuit,
    tokens: List[str],
    scope: _Scope,
    active: FrozenSet[str],
) -> None:
    """Flatten one ``X`` card, given as text tokens, into ``circuit``.

    ``active`` carries the upper-cased names of every definition on the
    current expansion path; re-entering one is a cycle.
    """
    inst = tokens[0]
    pos = [t for t in tokens[1:] if "=" not in t]
    kw_tokens = [t for t in tokens[1:] if "=" in t]
    if not pos:
        raise SubcktError(
            f"subcircuit instance {inst}: expected 'X node... SUBCKT [param=v]'"
        )
    conns = pos[:-1]
    sub = _lookup_subckt(inst, pos[-1], conns, scope, active)
    _, overrides = _split_kwargs(kw_tokens)
    _instantiate(circuit, inst, sub, conns, overrides, scope, active)


def _lookup_subckt(
    inst: str, ref: str, conns: List[str], scope: _Scope, active: FrozenSet[str]
) -> SubcktDef:
    """The definition an ``X`` card names, checked for existence, a
    cycle and its port count, in that order."""
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
    return sub


def _instantiate(
    circuit: Circuit,
    inst: str,
    sub: SubcktDef,
    conns: List[str],
    overrides: Dict[str, float],
    scope: _Scope,
    active: FrozenSet[str],
) -> None:
    """Bind one instance's parameters and expand ``sub``'s body as
    compiled against ``scope`` (compiled on the scope's first
    instance)."""
    params = dict(sub.params)
    for key, value in overrides.items():
        if key not in params:
            raise NetlistError(
                f"subcircuit instance {inst}: unknown parameter {key!r} "
                f"for {sub.name} (declared: {sorted(params) or 'none'})"
            )
        params[key] = value
    key = sub.name.upper()
    compiled = scope.compiled.get(key)
    if compiled is None:
        compiled = scope.compiled[key] = _CompiledSubckt(sub, scope)
    compiled.expand(circuit, inst, conns, params, active | {key})


def _body_directive(
    line: str, params: Dict[str, float], inst: str, scope: _Scope, sub: SubcktDef
) -> None:
    """One body line's directive pass for one instance: substitute its
    parameters (an unknown one raises), then register a ``.model`` card
    in ``scope`` or reject any other directive."""
    line = _substitute_params(line, params, inst)
    if line.lower().startswith(".model"):
        scope.register_model(line)
    elif line.startswith("."):
        raise NetlistError(
            f"unsupported directive inside .SUBCKT {sub.name}: "
            f"{line.split()[0]!r}"
        )


class _PerLine(Exception):
    """A body line the element templates cannot express."""


class _CompiledSubckt:
    """A ``.SUBCKT`` body compiled against one enclosing model scope.

    Compiling runs the body's directive pass once: ``{param}``
    references are checked against the declared names, and local
    ``.model`` cards are registered in one child scope that every
    instance shares.  Each element line then becomes one step:

    * an :class:`_ElementTemplate` or :class:`_InstanceTemplate`, whose
      node slots hold a ground alias as written or index the
      instance's node table ``conns + [inst.n for n in internals]``;
    * a :class:`_LineStep` for a line the templates cannot express or
      whose compile fails: its text is substituted, remapped and parsed
      per instance, at its position.

    ``prelude`` holds the directive-pass lines that run per instance:
    every ``.model`` card when one of them takes a ``{param}``, or the
    first line that fails for every binding.  In the first case the
    model scope is per instance too: ``D`` and ``Q`` lines stay text
    and a nested ``X`` compiles its definition per instance.  Either
    way each ``{param}`` reference is checked before an instance's
    first element is added, and the first error is the whole-body
    expansion's.
    """

    def __init__(self, sub: SubcktDef, scope: _Scope):
        STATS.subckt_compiles += 1
        self.sub = sub
        self.parent = scope
        self.prelude: List[str] = []
        self.steps: list = []
        self.internals: List[str] = []
        self._ports = {port: i for i, port in enumerate(sub.ports)}
        self._internal_slots: Dict[str, int] = {}
        per_instance = any(
            line.lower().startswith(".model") and _PARAM_RE.search(line)
            for line in sub.body
        )
        self.scope = None if per_instance else scope.child()
        elements: List[str] = []
        for line in sub.body:
            unknown = any(
                ref.lower() not in sub.params for ref in _PARAM_RE.findall(line)
            )
            is_model = line.lower().startswith(".model")
            if unknown or (line.startswith(".") and not is_model):
                self.prelude.append(line)  # raises for every binding
                return
            if not is_model:
                elements.append(line)
            elif self.scope is None:
                self.prelude.append(line)
            else:
                try:
                    self.scope.register_model(line)
                except NetlistError:
                    self.prelude.append(line)
                    return
        for line in elements:
            try:
                step = self._compile(line)
            except (_PerLine, NetlistError, ValueError):
                step = _LineStep(line, sub.ports)
            self.steps.append(step)

    def expand(
        self,
        circuit: Circuit,
        inst: str,
        conns: List[str],
        params: Dict[str, float],
        active: FrozenSet[str],
    ) -> None:
        """Add one instance's elements to ``circuit``."""
        scope = self.scope if self.scope is not None else self.parent.child()
        for line in self.prelude:
            _body_directive(line, params, inst, scope, self.sub)
        prefix = inst + "."
        table = conns + [prefix + node for node in self.internals]
        for step in self.steps:
            step.run(circuit, inst, table, params, scope, active)

    def _compile(self, line: str):
        """The template of one element line; raises for a line that
        must stay text."""
        tokens = line.split()
        name = tokens[0]
        kind = name[0].upper()
        if "." in name or _PARAM_RE.search(name):
            raise _PerLine
        pos = [t for t in tokens[1:] if "=" not in t]
        numbers, supply = _template_keywords(
            [t for t in tokens[1:] if "=" in t], self._node, kind == "A"
        )
        node = self._node
        if kind == "X":
            if not pos or _PARAM_RE.search(pos[-1]):
                raise _PerLine
            return _InstanceTemplate(
                name, [node(t) for t in pos[:-1]], pos[-1], numbers
            )
        if kind in ("V", "I") and len(pos) >= 3:
            return _ElementTemplate(
                _ADD_BY_KIND[kind],
                name,
                [node(pos[0]), node(pos[1])],
                [_template_source_value(pos[2:])],
            )
        if len(pos) != _TEMPLATE_ARITY.get(kind):
            raise _PerLine
        if kind == "A":
            slots = [node(t) for t in pos]
            if supply is not None:
                slots.append(supply)
            values = []
        elif kind in ("F", "H"):
            slots = [node(pos[0]), node(pos[1]), self._sense(pos[2])]
            values = [_template_value(pos[3])]
        elif kind in ("D", "Q"):
            slots = [node(t) for t in pos[:-1]]
            values = [self._model(kind, pos[-1])]
        else:
            slots = [node(t) for t in pos[:-1]]
            values = [_template_value(pos[-1])]
        values += [
            numbers.get(key, default)
            for key, default in _KEYWORD_DEFAULTS.get(kind, ())
        ]
        return _ElementTemplate(_ADD_BY_KIND[kind], name, slots, values)

    def _node(self, token: str):
        """Node slot: a ground alias as written, else a table index (the
        port's connection, or the instance-prefixed internal node)."""
        if _PARAM_RE.search(token):
            raise _PerLine
        if is_ground(token):
            return token
        port = self._ports.get(token)
        return port if port is not None else self._internal(token)

    def _internal(self, token: str) -> int:
        """Table index of ``inst.token``: an internal node, or an F/H
        sense element (always the instance's own)."""
        slot = self._internal_slots.get(token)
        if slot is None:
            slot = len(self._ports) + len(self.internals)
            self._internal_slots[token] = slot
            self.internals.append(token)
        return slot

    def _sense(self, token: str) -> int:
        if _PARAM_RE.search(token):
            raise _PerLine
        return self._internal(token)

    def _model(self, kind: str, token: str):
        """A ``D``/``Q`` model resolved once in the shared local scope."""
        if self.scope is None or _PARAM_RE.search(token):
            raise _PerLine
        models = self.scope.models_bjt if kind == "Q" else self.scope.models_diode
        model = models.get(token.upper())
        if model is None:
            raise _PerLine
        return model


def _template_value(token: str):
    """Value slot: a whole ``{param}`` token becomes the parameter's
    name, read from each instance's binding (``parse_si(repr(v)) == v``,
    so this equals substituting the text); a literal is parsed once."""
    match = _PARAM_RE.fullmatch(token)
    if match is not None:
        return match.group(1).lower()
    if _PARAM_RE.search(token):
        raise _PerLine
    return parse_si(token)


def _template_source_value(tokens: List[str]):
    """V/I value slot: a lone whole ``{param}`` (``dc`` allowed before
    it), or a literal number or waveform parsed once."""
    if not any(_PARAM_RE.search(t) for t in tokens):
        return _parse_source_value("", tokens)
    tokens = [t for t in tokens if t.lower() != "dc"]
    if len(tokens) != 1:
        raise _PerLine
    return _template_value(tokens[0])


def _template_keywords(tokens: List[str], node, opamp: bool):
    """``key=value`` tokens as value slots, the last of a key winning as
    in :func:`_split_kwargs`, plus an op-amp's ``supply=`` node slot."""
    numbers: Dict[str, object] = {}
    supply = None
    for token in tokens:
        key, _, value = token.partition("=")
        if not key or not value or _PARAM_RE.search(key):
            raise _PerLine
        key = key.lower()
        if opamp and key in _OPAMP_STRING_KEYS:
            supply = node(value)
        else:
            numbers[key] = _template_value(value)
    return numbers, supply


class _ElementTemplate:
    """One compiled element line: its kind's add function, leaf name,
    node slots and value slots.  A ``str`` value slot names a parameter of the
    instance's binding; numbers, waveforms and resolved models pass
    through as compiled."""

    __slots__ = ("add", "suffix", "nodes", "values")

    def __init__(self, add, leaf: str, nodes: list, values: list):
        self.add = add
        self.suffix = "." + leaf
        self.nodes = nodes
        self.values = values

    def run(self, circuit, inst, table, params, scope, active) -> None:
        self.add(
            circuit,
            inst + self.suffix,
            [table[s] if s.__class__ is int else s for s in self.nodes],
            [params[v] if v.__class__ is str else v for v in self.values],
        )


class _InstanceTemplate:
    """One compiled nested ``X`` line: connection slots, the definition
    name and override value slots."""

    __slots__ = ("suffix", "nodes", "ref", "overrides")

    def __init__(self, leaf: str, nodes: list, ref: str, overrides: dict):
        self.suffix = "." + leaf
        self.nodes = nodes
        self.ref = ref
        self.overrides = overrides

    def run(self, circuit, inst, table, params, scope, active) -> None:
        name = inst + self.suffix
        conns = [table[s] if s.__class__ is int else s for s in self.nodes]
        sub = _lookup_subckt(name, self.ref, conns, scope, active)
        overrides = {
            key: params[v] if v.__class__ is str else v
            for key, v in self.overrides.items()
        }
        _instantiate(circuit, name, sub, conns, overrides, scope, active)


class _LineStep:
    """A body line kept as text: substituted, remapped and parsed for
    each instance (each run counts in ``SolverStats.subckt_compiles``)."""

    __slots__ = ("line", "ports")

    def __init__(self, line: str, ports: List[str]):
        self.line = line
        self.ports = ports

    def run(self, circuit, inst, table, params, scope, active) -> None:
        STATS.subckt_compiles += 1
        tokens = _substitute_params(self.line, params, inst).split()
        node_map = dict(zip(self.ports, table))
        _add_element(
            circuit, _remap_instance_tokens(tokens, inst, node_map), scope, active
        )


def _sensed(circuit: Circuit, label: str, name: str, sense: str):
    """The element an F/H card senses, which must already be added."""
    if not circuit.has_element(sense):
        raise NetlistError(
            f"{label} {name}: sense element {sense!r} must be "
            "defined earlier in the netlist"
        )
    return circuit.element(sense)


# -- element add functions -------------------------------------------------
# One constructor call per element kind, shared by text cards
# (_add_element) and compiled templates: ``nodes`` are resolved node
# names (an F/H card's third is its sensed element's name), ``values``
# the kind's numbers (and model) in a fixed order.

def _add_resistor(circuit, name, nodes, values):
    value, tc1, tc2 = values
    circuit.add(Resistor(name, nodes[0], nodes[1], value, tc1=tc1, tc2=tc2))


def _add_capacitor(circuit, name, nodes, values):
    circuit.add(Capacitor(name, nodes[0], nodes[1], values[0]))


def _add_vsource(circuit, name, nodes, values):
    circuit.add(VoltageSource(name, nodes[0], nodes[1], values[0]))


def _add_isource(circuit, name, nodes, values):
    circuit.add(CurrentSource(name, nodes[0], nodes[1], values[0]))


def _add_vcvs(circuit, name, nodes, values):
    circuit.add(VCVS(name, *nodes, gain=values[0]))


def _add_vccs(circuit, name, nodes, values):
    circuit.add(VCCS(name, *nodes, gm=values[0]))


def _add_cccs(circuit, name, nodes, values):
    sensed = _sensed(circuit, "CCCS", name, nodes[2])
    circuit.add(CCCS(name, nodes[0], nodes[1], sensed, gain=values[0]))


def _add_ccvs(circuit, name, nodes, values):
    sensed = _sensed(circuit, "CCVS", name, nodes[2])
    circuit.add(CCVS(name, nodes[0], nodes[1], sensed, r=values[0]))


def _add_diode(circuit, name, nodes, values):
    circuit.add(Diode(name, nodes[0], nodes[1], **values[0]))


def _add_bjt(circuit, name, nodes, values):
    add_bjt(circuit, name, nodes[0], nodes[1], nodes[2], values[0])


def _add_opamp(circuit, name, nodes, values):
    gain, vos, rail_low, rail_high = values
    circuit.add(
        OpAmp(
            name,
            nodes[0],
            nodes[1],
            nodes[2],
            gain=gain,
            vos=vos,
            rail_low=rail_low,
            rail_high=rail_high,
            supply=nodes[3] if len(nodes) > 3 else None,
        )
    )


_ADD_BY_KIND = {
    "R": _add_resistor,
    "C": _add_capacitor,
    "V": _add_vsource,
    "I": _add_isource,
    "E": _add_vcvs,
    "G": _add_vccs,
    "F": _add_cccs,
    "H": _add_ccvs,
    "D": _add_diode,
    "Q": _add_bjt,
    "A": _add_opamp,
}

#: Positional-token count of each fixed-arity element kind.
_TEMPLATE_ARITY = {"R": 3, "C": 3, "E": 5, "G": 5, "F": 4, "H": 4, "D": 3, "Q": 4, "A": 3}

#: Keyword values each add function takes after the positional ones, with
#: their defaults (other keywords parse but are ignored).
_KEYWORD_DEFAULTS = {
    "R": (("tc1", 0.0), ("tc2", 0.0)),
    "A": (("gain", 1e4), ("vos", 0.0), ("rail_low", 0.0), ("rail_high", 5.0)),
}


def _add_element(
    circuit: Circuit,
    tokens: List[str],
    scope: _Scope,
    active: FrozenSet[str] = frozenset(),
) -> None:
    name = tokens[0]
    # Kind comes from the LEAF of a hierarchical name: a flattened
    # element "X1.R1" is a resistor, not an X card.
    kind = name.rsplit(".", 1)[-1][:1].upper()
    if kind == "X":
        _expand_subckt(circuit, tokens, scope, active)
        return
    string_keys = _OPAMP_STRING_KEYS if kind == "A" else frozenset()
    positional, keywords = _split_kwargs(tokens[1:], string_keys)
    # The node list handed on is every positional token but the last
    # (the value or model), except on V/I and A cards; on F/H cards its
    # third entry is the sensed element's name.
    nodes = positional[:-1]

    if kind == "R":
        if len(positional) != 3:
            raise NetlistError(f"resistor {name}: expected 'R n1 n2 value'")
        values = [_number(f"resistor {name}", positional[2])]
    elif kind == "C":
        if len(positional) != 3:
            raise NetlistError(f"capacitor {name}: expected 'C n1 n2 value'")
        values = [_number(f"capacitor {name}", positional[2])]
    elif kind in ("V", "I"):
        if len(positional) < 3:
            raise NetlistError(f"source {name}: expected '{kind} n+ n- value'")
        nodes = positional[:2]
        values = [_parse_source_value(name, positional[2:])]
    elif kind == "E":
        if len(positional) != 5:
            raise NetlistError(f"VCVS {name}: expected 'E out+ out- c+ c- gain'")
        values = [_number(f"VCVS {name}", positional[4])]
    elif kind == "G":
        if len(positional) != 5:
            raise NetlistError(f"VCCS {name}: expected 'G out+ out- c+ c- gm'")
        values = [_number(f"VCCS {name}", positional[4])]
    elif kind in ("F", "H"):
        label = "CCCS" if kind == "F" else "CCVS"
        if len(positional) != 4:
            raise NetlistError(
                f"{label} {name}: expected '{kind} out+ out- VSENSE value'"
            )
        # The sense check comes before the value's parse.
        _sensed(circuit, label, name, positional[2])
        values = [_number(f"{label} {name}", positional[3])]
    elif kind == "D":
        if len(positional) != 3:
            raise NetlistError(f"diode {name}: expected 'D anode cathode model'")
        model = scope.models_diode.get(positional[2].upper())
        if model is None:
            raise NetlistError(f"diode {name}: unknown model {positional[2]!r}")
        values = [model]
    elif kind == "Q":
        if len(positional) != 4:
            raise NetlistError(f"BJT {name}: expected 'Q c b e model'")
        params = scope.models_bjt.get(positional[3].upper())
        if params is None:
            raise NetlistError(f"BJT {name}: unknown model {positional[3]!r}")
        values = [params]
    elif kind == "A":
        if len(positional) != 3:
            raise NetlistError(f"opamp {name}: expected 'A inp inn out [k=v...]'")
        nodes = positional + ([keywords["supply"]] if "supply" in keywords else [])
        values = []
    else:
        raise NetlistError(f"unsupported element type {name!r}")
    values += [
        keywords.get(key, default) for key, default in _KEYWORD_DEFAULTS.get(kind, ())
    ]
    _ADD_BY_KIND[kind](circuit, name, nodes, values)
