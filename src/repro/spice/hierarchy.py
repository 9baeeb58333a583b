"""Hierarchical benchmark-netlist generators.

The paper's own cells are 2-3 BJTs, far below the sparse switch at
:data:`~repro.spice.mna.SPARSE_MIN_UNKNOWNS` = 200 unknowns — so until
this module, the sparse assembly/factorization path had never been
exercised by a realistic workload.  These generators produce
parameterized ``.SUBCKT``-based decks from a few hundred to 10k+
unknowns:

:func:`bandgap_array`
    ``cells`` copies of a nonlinear bandgap-flavoured cell (two
    diode-connected BJTs with unequal saturation currents behind load
    resistors) arrayed off one supply.  Each cell contributes ~9
    unknowns (3 named nodes + 2 BJTs x 3 series-resistance internal
    nodes), so ``cells=120`` crosses 1k unknowns.  With ``jitter=0``
    every cell is identical, which doubles as a flattening-correctness
    witness at scale: all cell outputs must solve to the same voltage.

:func:`resistor_ladder`
    A chain of linear RC-free ladder sections (series R, shunt R per
    section) — the linear large-N anchor: one factorization, no Newton
    ladder, pure assembly/factorization scaling.

Both return netlist *text*; parse with
:func:`repro.spice.parser.parse_netlist`.  A tiny CLI writes decks for
CI legs::

    python -m repro.spice.hierarchy bandgap --cells 120 -o array.cir
    python -m repro.spice.hierarchy ladder --sections 500 -o ladder.cir
"""

from __future__ import annotations

import argparse
from typing import List, Optional


def _spread(index: int) -> float:
    """Deterministic pseudo-spread in [-0.5, 0.5] (no RNG: benchmark
    decks must be bit-identical across runs and processes)."""
    return ((index * 7919) % 101 - 50) / 100.0


def bandgap_array(
    cells: int = 120,
    vdd: float = 3.0,
    rl: float = 10e3,
    jitter: float = 0.0,
    title: str = "bandgap cell array",
) -> str:
    """An array of ``cells`` bandgap-flavoured nonlinear cells.

    ``jitter`` scales a deterministic per-instance spread applied to the
    cell load resistor through a ``rl=`` parameter override (0 = all
    cells identical).  Every cell hangs off the shared supply and drives
    its own output node ``o<i>``.
    """
    if cells < 1:
        raise ValueError(f"cells must be >= 1, got {cells}")
    lines: List[str] = [
        f".title {title}",
        "* generated by repro.spice.hierarchy.bandgap_array",
        "* two diode-connected BJTs (IS ratio 8) behind load resistors,",
        "* a bandgap core's delta-Vbe arrangement without the loop",
        ".model QSMALL NPN (IS=1e-16 BF=100)",
        ".model QBIG NPN (IS=8e-16 BF=100)",
        ".SUBCKT BGCELL vdd out rl=10k",
        "R1 vdd a {rl}",
        "R2 vdd b {rl}",
        "Q1 a a 0 QSMALL",
        "Q2 b b 0 QBIG",
        "R3 a out 5k",
        "R4 b out 5k",
        "R5 out 0 20k",
        ".ENDS BGCELL",
        f"V1 vdd 0 {vdd:g}",
    ]
    for i in range(cells):
        if jitter:
            value = rl * (1.0 + jitter * _spread(i))
            lines.append(f"X{i} vdd o{i} BGCELL rl={value:.6g}")
        else:
            lines.append(f"X{i} vdd o{i} BGCELL rl={rl:.6g}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def resistor_ladder(
    sections: int = 500,
    vin: float = 1.0,
    rs: float = 100.0,
    rp: float = 10e3,
    title: str = "resistor ladder",
) -> str:
    """A linear ladder of ``sections`` chained subcircuit sections.

    Each section is 2 series resistors with a grounded shunt at the
    midpoint (~2 unknowns), so ``sections=500`` gives a ~1k-unknown
    purely linear system: one factorization, no stepping ladders.
    """
    if sections < 1:
        raise ValueError(f"sections must be >= 1, got {sections}")
    lines: List[str] = [
        f".title {title}",
        "* generated by repro.spice.hierarchy.resistor_ladder",
        ".SUBCKT RSEC a b rs=100 rp=10k",
        "R1 a m {rs}",
        "R2 m b {rs}",
        "R3 m 0 {rp}",
        ".ENDS RSEC",
        f"V1 in 0 {vin:g}",
    ]
    prev = "in"
    for i in range(sections):
        node = "out" if i == sections - 1 else f"n{i}"
        lines.append(f"X{i} {prev} {node} RSEC rs={rs:.6g} rp={rp:.6g}")
        prev = node
    lines.append("RL out 0 1k")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def unknown_count(netlist: str) -> int:
    """Unknown-vector size of a netlist (parse + bind, no solve)."""
    from .mna import MNASystem
    from .parser import parse_netlist

    return MNASystem(parse_netlist(netlist)).size


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.spice.hierarchy",
        description="Generate hierarchical benchmark netlists.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    bg = sub.add_parser("bandgap", help="arrayed nonlinear bandgap cells")
    bg.add_argument("--cells", type=int, default=120)
    bg.add_argument("--vdd", type=float, default=3.0)
    bg.add_argument("--jitter", type=float, default=0.0)
    bg.add_argument("-o", "--output", default=None)
    ld = sub.add_parser("ladder", help="linear resistor-ladder chain")
    ld.add_argument("--sections", type=int, default=500)
    ld.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)

    if args.kind == "bandgap":
        text = bandgap_array(cells=args.cells, vdd=args.vdd, jitter=args.jitter)
    else:
        text = resistor_ladder(sections=args.sections)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"{args.output}: {unknown_count(text)} unknowns")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
