"""Micro-benchmarks: per-iteration assembly and linear-solve cost.

These isolate the solver's innermost loop on the paper's bandgap cell:
one full ``(J, F)`` assembly and one residual-only evaluation through
the compiled engine.  Its agreement with the element-by-element oracle
is asserted by ``tests/spice/test_compiled_assembly.py``.
"""

import pytest

from repro.circuits.bandgap_cell import build_bandgap_cell
from repro.spice.mna import MNASystem
from repro.spice.solver import SolverOptions, solve_dc


@pytest.fixture(scope="module")
def solved():
    """The cell's system and its solved operating point."""
    circuit = build_bandgap_cell()
    solution = solve_dc(circuit)
    system = MNASystem(circuit)
    # Prime the compiled caches so the benchmark measures steady state.
    system.assemble(solution.x)
    return system, solution.x


def test_assemble_compiled(benchmark, solved):
    system, x = solved
    benchmark(system.assemble, x)


def test_residual_compiled(benchmark, solved):
    system, x = solved
    benchmark(system.assemble_residual, x)


def test_cold_dc_solve(benchmark):
    """The full cold-start DC solve (gain-stepping ladder included)."""
    result = benchmark(lambda: solve_dc(build_bandgap_cell()))
    assert result.strategy == "gain-stepping"


def test_factorization_reuse_wins_on_large_ladder(benchmark):
    """LU reuse + sparse splu on a netlist-scale ladder (~240 unknowns)."""
    from repro.spice import Circuit, Resistor, VoltageSource
    from repro.spice.elements.diode import Diode

    def ladder():
        circuit = Circuit("ladder")
        circuit.add(VoltageSource("V1", "n0", "0", 5.0))
        for index in range(120):
            circuit.add(Resistor(f"R{index}", f"n{index}", f"d{index}", 2e3))
            circuit.add(Diode(f"D{index}", f"d{index}", f"n{index + 1}"))
        circuit.add(Resistor("RL", "n120", "0", 1e3))
        return circuit

    options = SolverOptions()
    result = benchmark(lambda: solve_dc(ladder(), options=options))
    assert result.residual < 1e-6
