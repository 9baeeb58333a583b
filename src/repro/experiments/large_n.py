"""Large-N sparse-path workload: generated hierarchical netlists.

The witness experiment for ROADMAP item 4: a generated ``.SUBCKT``
array with >1k unknowns that *provably* routes through the sparse
pipeline (CSC assembly -> splu), solved cold and then re-solved across
a temperature grid so the solved-point cache and the sparse-tuned
stale-LU policy both show up in the counters.

Three workloads, each with its own counter delta:

* ``bandgap_array`` — 120 nonlinear cells (~1082 unknowns), cold OP.
  Gates: the parse compiles the ``BGCELL`` body exactly once (not once
  per instance), sparse assemblies/factorizations > 0, **zero** sparse
  format conversions (the CSC end-to-end claim), and all identical
  cells solve to the same output voltage (flattening correctness at
  scale).
* ``temp_resweep`` — the same session swept over 3 temperatures; the
  cache must warm-start the neighbouring points.
* ``resistor_ladder`` — ~1k-unknown linear chain; exactly one
  factorization, no Newton ladder.

The rows land in the benchmark campaign index (``--bench-record``), so
``--bench-check`` gates every counter here against the committed
baseline on each CI push.
"""

from __future__ import annotations

from ..spice.hierarchy import bandgap_array, resistor_ladder
from ..spice.parser import parse_netlist
from ..spice.plans import OP, TempSweep
from ..spice.session import Session
from ..spice.stats import STATS
from .registry import ExperimentResult, register

#: Cells in the nonlinear array (~9 unknowns each + supply row).
ARRAY_CELLS = 120
#: Sections in the linear ladder (~2 unknowns each).
LADDER_SECTIONS = 500
#: Temperature grid for the warm-start leg [K].
TEMP_GRID_K = (280.15, 300.15, 320.15)


@register("large_n")
def run() -> ExperimentResult:
    rows = []
    checks = {}

    def counter_row(label, size, delta):
        rows.append(
            (
                label,
                size,
                delta["iterations"],
                delta["factorizations"],
                delta["sparse_factorizations"],
                delta["lu_reuses"],
                delta["sparse_conversions"],
            )
        )
        return delta

    # -- nonlinear array, cold ------------------------------------------
    compiles = STATS.subckt_compiles
    circuit = parse_netlist(bandgap_array(cells=ARRAY_CELLS))
    checks["compiles_bgcell_once"] = STATS.subckt_compiles - compiles == 1
    session = Session(circuit)
    size = session.system.size
    before = STATS.snapshot()
    op = session.run(OP())
    delta = counter_row("bandgap_array", size, STATS.delta_since(before))

    outputs = [op.voltage(f"o{i}") for i in range(ARRAY_CELLS)]
    spread = max(outputs) - min(outputs)
    checks["array_crosses_1k_unknowns"] = size >= 1000
    checks["routes_through_sparse_assembly"] = delta["sparse_assemblies"] > 0
    checks["routes_through_sparse_splu"] = delta["sparse_factorizations"] > 0
    checks["zero_sparse_format_conversions"] = delta["sparse_conversions"] == 0
    checks["identical_cells_solve_identically"] = spread < 1e-9
    checks["stale_lu_reuse_engages_at_scale"] = delta["lu_reuses"] > 0

    # -- same session, temperature re-sweep -----------------------------
    before = STATS.snapshot()
    session.run(TempSweep(temperatures_k=TEMP_GRID_K))
    delta = counter_row("temp_resweep", size, STATS.delta_since(before))
    checks["resweep_warm_starts_from_cache"] = (
        delta["op_cache_warm_starts"] + delta["op_cache_hits"] > 0
    )
    checks["resweep_zero_sparse_conversions"] = delta["sparse_conversions"] == 0

    # -- linear ladder ---------------------------------------------------
    ladder = parse_netlist(resistor_ladder(sections=LADDER_SECTIONS))
    ladder_session = Session(ladder)
    ladder_size = ladder_session.system.size
    before = STATS.snapshot()
    ladder_session.run(OP())
    delta = counter_row("resistor_ladder", ladder_size, STATS.delta_since(before))
    checks["ladder_crosses_1k_unknowns"] = ladder_size >= 1000
    checks["linear_ladder_factors_once"] = delta["factorizations"] == 1

    notes = (
        f"{ARRAY_CELLS}-cell array = {size} unknowns, cell-output spread "
        f"{spread:.2e} V; ladder = {ladder_size} unknowns.  All sparse "
        "solves hand splu CSC directly (conversion counter pinned at 0)."
    )
    return ExperimentResult(
        experiment_id="large_n",
        title="Large-N hierarchical netlists through the sparse pipeline",
        columns=(
            "workload",
            "unknowns",
            "iterations",
            "factorizations",
            "sparse_factorizations",
            "lu_reuses",
            "sparse_conversions",
        ),
        rows=rows,
        checks=checks,
        notes=notes,
    )
