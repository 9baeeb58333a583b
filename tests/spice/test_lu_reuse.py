"""Factorization-reuse policy and the dense -> sparse switch.

The modified-Newton LU reuse must never change *what* the solver
converges to — only how many factorizations it spends getting there —
and the sparse path must agree with the dense path on circuits past the
size threshold.
"""

import numpy as np
import pytest

#: Run the whole reuse/sparse contract on both device-evaluator paths
#: (the conftest fixture patches the group-size rule).
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
)
from repro.spice import solver
from repro.spice.elements.diode import Diode
from repro.spice.mna import MNASystem
from repro.spice.solver import NewtonWorkspace, _newton, lu, solve_dc_system
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
    def test_same_solution_with_and_without_reuse(self, monkeypatch):
        # A reuse limit of 0 is plain Newton: no stale step is tried.
        circuit = build_bandgap_cell()
        with_reuse = Session(circuit).solve_raw()
        monkeypatch.setattr(solver, "REUSE_LIMIT", 0)
        without = Session(circuit).solve_raw()
        assert with_reuse.x == pytest.approx(without.x, abs=1e-9)

    def test_no_reuse_means_factorization_per_iteration(self, monkeypatch):
        monkeypatch.setattr(solver, "REUSE_LIMIT", 0)
        circuit = _diode_ladder(3)
        system = MNASystem(circuit)
        workspace = NewtonWorkspace()
        options = SolverOptions()
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

    def test_reuse_disabled_by_option_in_transient(self, monkeypatch):
        monkeypatch.setattr(solver, "REUSE_LIMIT", 0)
        circuit = build_startup_bandgap_cell(StartupRampConfig())
        options = TransientOptions(method="trap", adaptive=True)
        result = Session(circuit).run(Transient(t_stop=2e-4, options=options)).result
        assert result.lu_reuses == 0


class TestToleranceScaledProgress:
    """Stale-LU probes and line-search rungs judge progress in the
    convergence test's units (KCL rows per ``abstol``, branch rows per
    ``vtol``), so a gain-amplified op-amp branch row near its float floor
    cannot outweigh KCL rows that contracted."""

    def test_warm_zout_finite_difference_sweep_factors_at_most_four_times(self):
        from repro.experiments.ac_common import build_zout_cell
        from repro.spice import ACSweep, DCSweep
        from repro.spice.stats import STATS

        session = Session(build_zout_cell)
        session.run(ACSweep(frequencies_hz=(10.0, 1e3)))
        STATS.reset()
        sweep = session.run(DCSweep(source="ITEST", values=(-1e-6, 1e-6)))
        assert len(sweep.points) == 2
        assert STATS.factorizations <= 4
        assert STATS.strategies == {"newton": 2}

    def test_psrr_cell_warm_temperature_step_needs_no_gain_stepping(self):
        from repro.experiments.ac_common import build_psrr_cell

        system = MNASystem(build_psrr_cell(), temperature_k=247.0)
        cold = solve_dc_system(system)
        system.set_temperature(297.0)
        warm = solve_dc_system(system, x0=cold.x)
        assert warm.strategy == "newton"
        assert warm.residual < SolverOptions().vtol


class TestSparseSwitch:
    def test_large_ladder_routes_through_splu(self):
        from repro.spice.stats import STATS

        circuit = _diode_ladder(120)  # ~240 unknowns > threshold 200
        STATS.reset()
        solution = Session(circuit).solve_raw()
        assert STATS.sparse_factorizations > 0
        assert solution.residual < 1e-6

    def test_sparse_and_dense_agree(self):
        # The same ~240-unknown ladder assembled sparse and dense: each
        # leg factors what it assembled (splu or LAPACK, no conversion
        # either way) and both land on the same point.
        from repro.spice.stats import STATS

        circuit = _diode_ladder(120)
        sparse = solve_dc_system(MNASystem(circuit, sparse=True))
        STATS.reset()
        dense = solve_dc_system(MNASystem(circuit, sparse=False))
        assert STATS.factorizations > 0
        assert STATS.sparse_factorizations == 0
        assert STATS.sparse_conversions == 0
        assert sparse.x == pytest.approx(dense.x, abs=1e-8)

    def test_sparse_assembly_factors_conversion_free(self):
        # The CSC end-to-end contract: a system big enough to assemble
        # sparse hands splu its native format, so no Jacobian is
        # format-converted on the way into a factorization.
        from repro.spice.stats import STATS

        circuit = _diode_ladder(120)
        STATS.reset()
        Session(circuit).solve_raw()
        assert STATS.sparse_factorizations > 0
        assert STATS.sparse_conversions == 0

    @pytest.mark.parametrize(
        "layout, sparse_factorizations, conversions",
        [("dense", 0, 0), ("csr", 2, 2), ("csc", 2, 0)],
    )
    def test_splu_input_conversions_are_counted(
        self, layout, sparse_factorizations, conversions
    ):
        # The workspace factors what it is handed: a dense ndarray
        # through LAPACK, a sparse matrix through splu.  A sparse matrix
        # in another format pays a counted scan into CSC per
        # factorization — the situation the counter exists to expose.
        # CSC, splu's native format, passes through unconverted.
        import scipy.sparse

        from repro.spice.stats import STATS

        circuit = _diode_ladder(10)  # ~20 unknowns, assembles dense
        system = MNASystem(circuit)
        jacobian, _ = system.assemble(np.zeros(system.size))
        assert not hasattr(jacobian, "format")  # really dense
        if layout != "dense":
            jacobian = scipy.sparse.csr_matrix(jacobian).asformat(layout)
        workspace = NewtonWorkspace()
        STATS.reset()
        assert workspace.factor(jacobian)
        assert workspace.factor(jacobian)
        assert workspace.is_sparse == (layout != "dense")
        assert STATS.factorizations == 2
        assert STATS.sparse_factorizations == sparse_factorizations
        assert STATS.sparse_conversions == conversions

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("layout", ["dense", "csc"])
    def test_lu_returns_none_for_a_singular_matrix(self, dtype, layout):
        # The one LU routine the Newton workspace and the AC analysis
        # share: real or complex, dense or sparse, singular is None.
        import scipy.sparse

        def build(rows):
            matrix = np.array(rows, dtype=dtype)
            return scipy.sparse.csc_matrix(matrix) if layout == "csc" else matrix

        assert lu(build([[1, 2, 0], [2, 4, 0], [0, 0, 1]])) is None
        regular = [[2, 2, 0], [2, 5, 0], [0, 0, 2]]
        rhs = np.ones(3, dtype=dtype)
        solution = lu(build(regular)).solve(rhs)
        np.testing.assert_allclose(np.array(regular) @ solution, rhs, rtol=1e-14)

    def test_sparse_reuse_policy_only_applies_to_sparse_factors(self, monkeypatch):
        # Dense systems must keep the strict policy bit-for-bit: the
        # workspace reports is_sparse=False, so the sparse constants are
        # never consulted.
        circuit = _diode_ladder(3)
        system = MNASystem(circuit)
        workspace = NewtonWorkspace()
        jacobian, _ = system.assemble(np.zeros(system.size))
        assert workspace.factor(jacobian)
        assert not workspace.is_sparse
        strict = Session(circuit).solve_raw()
        monkeypatch.setattr(solver, "SPARSE_REUSE_LIMIT", 99)
        monkeypatch.setattr(solver, "SPARSE_REUSE_CONTRACTION", 0.99)
        relaxed = Session(circuit).solve_raw()
        assert strict.x == pytest.approx(relaxed.x, abs=1e-12)
        assert strict.iterations == relaxed.iterations

    def test_explicit_permc_spec_matches_default(self, monkeypatch):
        # COLAMD is scipy's default ordering; naming it explicitly (or
        # picking NATURAL) must change performance only, never answers.
        circuit = _diode_ladder(120)
        default = Session(circuit).solve_raw()
        monkeypatch.setattr(solver, "SPARSE_PERMC", "NATURAL")
        natural = Session(circuit).solve_raw()
        assert default.x == pytest.approx(natural.x, abs=1e-8)

    def test_stall_bailout_disabled_reaches_budget(self, monkeypatch):
        # STALL_WINDOW = 0 restores the grind-to-max_iterations
        # behaviour; the solution must not change either way.
        circuit = build_bandgap_cell()
        with monkeypatch.context() as patch:
            patch.setattr(solver, "STALL_WINDOW", 0)
            patient = Session(circuit).solve_raw()
        eager = Session(circuit).solve_raw()
        assert patient.strategy == eager.strategy == "gain-stepping"
        assert patient.x == pytest.approx(eager.x, abs=1e-9)
