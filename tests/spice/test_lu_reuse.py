"""Factorization-reuse policy and the dense -> sparse switch.

The modified-Newton LU reuse must never change *what* the solver
converges to — only how many factorizations it spends getting there —
and the sparse path must agree with the dense path on circuits past the
size threshold.
"""

import numpy as np
import pytest

#: Run the whole reuse/sparse contract on both device-evaluator paths
#: (the conftest fixture flips REPRO_VECTORIZED).
pytestmark = pytest.mark.usefixtures("device_eval_path")

from repro.circuits.bandgap_cell import build_bandgap_cell
from repro.circuits.startup import StartupRampConfig, build_startup_bandgap_cell
from repro.spice import (
    Circuit,
    Resistor,
    Session,
    SolverOptions,
    Transient,
    VoltageSource,
    solve_dc,
)
from repro.spice.elements.diode import Diode
from repro.spice.mna import MNASystem
from repro.spice.solver import NewtonWorkspace, _newton
from repro.spice.transient import TransientOptions


def _diode_ladder(sections: int) -> Circuit:
    """A repetitive diode/resistor ladder with ``2 * sections`` nodes."""
    circuit = Circuit(f"{sections}-section ladder")
    circuit.add(VoltageSource("V1", "n0", "0", 5.0))
    for index in range(sections):
        circuit.add(Resistor(f"R{index}", f"n{index}", f"d{index}", 2e3))
        circuit.add(Diode(f"D{index}", f"d{index}", f"n{index + 1}"))
    circuit.add(Resistor("RL", f"n{sections}", "0", 1e3))
    return circuit


class TestReusePolicy:
    def test_same_solution_with_and_without_reuse(self):
        circuit = build_bandgap_cell()
        with_reuse = solve_dc(circuit, options=SolverOptions(reuse_lu=True))
        without = solve_dc(circuit, options=SolverOptions(reuse_lu=False))
        assert with_reuse.x == pytest.approx(without.x, abs=1e-9)

    def test_no_reuse_means_factorization_per_iteration(self):
        circuit = _diode_ladder(3)
        system = MNASystem(circuit)
        workspace = NewtonWorkspace()
        options = SolverOptions(reuse_lu=False)
        solution = _newton(
            system, np.zeros(system.size), options, gmin=options.gmin,
            source_scale=1.0, workspace=workspace,
        )
        assert solution is not None
        assert workspace.reuses == 0
        # One factorization per non-converged iteration (the final,
        # converged iteration assembles nothing).
        assert workspace.factorizations == solution.iterations - 1

    def test_transient_reuses_factorizations_across_steps(self):
        circuit = build_startup_bandgap_cell(StartupRampConfig())
        plan = Transient(
            t_stop=2e-4, options=TransientOptions(method="trap", adaptive=True)
        )
        result = Session(circuit).run(plan).result
        total_iterations = sum(result.step_iterations[1:])
        assert result.lu_reuses > 0
        assert result.factorizations < total_iterations
        # Every accepted step still certified converged.
        assert all(r < 1e-6 for r in result.step_residuals)

    def test_reuse_disabled_by_option_in_transient(self):
        circuit = build_startup_bandgap_cell(StartupRampConfig())
        options = TransientOptions(
            method="trap",
            adaptive=True,
            newton=SolverOptions(reuse_lu=False),
        )
        result = Session(circuit).run(Transient(t_stop=2e-4, options=options)).result
        assert result.lu_reuses == 0


class TestSparseSwitch:
    def test_large_ladder_routes_through_splu(self):
        from repro.spice.stats import STATS

        circuit = _diode_ladder(120)  # ~240 unknowns > threshold 200
        STATS.reset()
        solution = solve_dc(circuit)
        assert STATS.sparse_factorizations > 0
        assert solution.residual < 1e-6

    def test_sparse_and_dense_agree(self):
        circuit = _diode_ladder(120)
        sparse = solve_dc(circuit, options=SolverOptions(sparse_threshold=10))
        dense = solve_dc(circuit, options=SolverOptions(sparse_threshold=10**9))
        assert sparse.x == pytest.approx(dense.x, abs=1e-8)

    def test_sparse_assembly_factors_conversion_free(self):
        # The CSC end-to-end contract: a system big enough to assemble
        # sparse hands splu its native format, so no Jacobian is
        # format-converted on the way into a factorization.
        from repro.spice.stats import STATS

        circuit = _diode_ladder(120)
        STATS.reset()
        solve_dc(circuit)
        assert STATS.sparse_factorizations > 0
        assert STATS.sparse_conversions == 0

    def test_dense_jacobian_over_threshold_counts_conversions(self):
        # A *dense* ndarray forced over the sparse threshold must still
        # factor (through splu) but pays a counted dense->CSC scan per
        # factorization — the situation the counter exists to expose.
        from repro.spice.stats import STATS

        circuit = _diode_ladder(10)  # ~20 unknowns, assembles dense
        system = MNASystem(circuit)
        jacobian, _ = system.assemble(np.zeros(system.size))
        assert not hasattr(jacobian, "format")  # really dense
        workspace = NewtonWorkspace()
        options = SolverOptions(sparse_threshold=1)
        STATS.reset()
        assert workspace.factor(jacobian, options)
        assert workspace.factor(jacobian, options)
        assert STATS.sparse_factorizations == 2
        assert STATS.sparse_conversions == 2

    def test_sparse_reuse_policy_only_applies_to_sparse_factors(self):
        # Dense systems must keep the strict policy bit-for-bit: the
        # workspace reports is_sparse=False, so the sparse knobs are
        # never consulted.
        circuit = _diode_ladder(3)
        system = MNASystem(circuit)
        workspace = NewtonWorkspace()
        jacobian, _ = system.assemble(np.zeros(system.size))
        assert workspace.factor(jacobian, SolverOptions())
        assert not workspace.is_sparse
        strict = solve_dc(circuit)
        relaxed = solve_dc(
            circuit,
            options=SolverOptions(
                sparse_reuse_limit=99, sparse_reuse_contraction=0.99
            ),
        )
        assert strict.x == pytest.approx(relaxed.x, abs=1e-12)
        assert strict.iterations == relaxed.iterations

    def test_explicit_permc_spec_matches_default(self):
        # COLAMD is scipy's default ordering; naming it explicitly (or
        # picking NATURAL) must change performance only, never answers.
        circuit = _diode_ladder(120)
        default = solve_dc(circuit)
        natural = solve_dc(
            circuit, options=SolverOptions(sparse_permc="NATURAL")
        )
        assert default.x == pytest.approx(natural.x, abs=1e-8)

    def test_stall_bailout_disabled_reaches_budget(self):
        # stall_window=0 restores the grind-to-max_iterations behaviour;
        # the solution must not change either way.
        circuit = build_bandgap_cell()
        patient = solve_dc(
            circuit, options=SolverOptions(stall_window=0)
        )
        eager = solve_dc(circuit)
        assert patient.strategy == eager.strategy == "gain-stepping"
        assert patient.x == pytest.approx(eager.x, abs=1e-9)
