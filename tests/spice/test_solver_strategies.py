"""Solver fallback ladder: force each strategy and check its report.

The DC solver tries plain Newton, then gain stepping (op-amp macros),
then gmin stepping, then source stepping — each fallback engages only
when everything before it failed, and stamps its name into
``RawSolution.strategy``.  These tests construct circuits (and iteration
budgets) that deterministically exercise each rung, so a refactor that
silently reorders or breaks a rung fails loudly.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.spice import Circuit, Resistor, Session, SolverOptions, VoltageSource
from repro.spice import solver
from repro.spice.elements.diode import Diode
from repro.spice.mna import MNASystem
from repro.spice.stats import STATS
from repro.telemetry.tracer import tracing


def diode_chain(n_diodes: int, load_ohm: float = 1e3, supply_v: float = 2.5) -> Circuit:
    """A stiff series diode chain: hostile to cold-started Newton."""
    circuit = Circuit(f"{n_diodes}-diode chain")
    circuit.add(VoltageSource("V1", "n0", "0", supply_v))
    circuit.add(Resistor("R1", "n0", "m0", 1e3))
    for i in range(n_diodes):
        circuit.add(Diode(f"D{i}", f"m{i}", f"m{i + 1}", is_=1e-15))
    circuit.add(Resistor("RL", f"m{n_diodes}", "0", load_ohm))
    return circuit


class TestOptions:
    @pytest.mark.parametrize(
        "bad",
        [
            {"max_iterations": 0},
            {"abstol": 0.0},
            {"vtol": -1e-8},
            {"abstol": np.inf},
            {"vtol": np.nan},
            {"gmin": -1e-3},
            {"gmin": np.inf},
        ],
        ids=["budget-0", "abstol-0", "vtol-negative", "abstol-inf", "vtol-nan",
             "gmin-negative", "gmin-inf"],
    )
    def test_rejects_what_no_solve_can_meet(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverOptions(**bad)

    def test_zero_gmin_is_allowed(self):
        assert SolverOptions(gmin=0.0).gmin == 0.0


class TestPlainNewton:
    def test_linear_circuit_reports_newton(self):
        circuit = Circuit("divider")
        circuit.add(VoltageSource("V1", "in", "0", 2.0))
        circuit.add(Resistor("R1", "in", "mid", 1e3))
        circuit.add(Resistor("R2", "mid", "0", 1e3))
        solution = Session(circuit).solve_raw()
        assert solution.strategy == "newton"

    def test_diode_chain_with_full_budget_reports_newton(self):
        solution = Session(diode_chain(3)).solve_raw()
        assert solution.strategy == "newton"


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _gain_rungs(tracer):
    """The traced ``dc_solve`` span and whether each ramp rung converged."""
    (dc_solve,) = [
        span for root in tracer.roots for span in _walk(root)
        if span.name == "dc_solve"
    ]
    rungs = [
        span.attrs["converged"]
        for span in _walk(dc_solve)
        if span.name == "newton_solve" and span.attrs["phase"].startswith("gain[")
    ]
    return dc_solve, rungs


def _plain_span(tracer):
    """The one plain-phase ``newton_solve`` span of a traced DC solve."""
    (plain,) = [
        span
        for root in tracer.roots
        for span in _walk(root)
        if span.name == "newton_solve" and span.attrs["phase"] == "plain"
    ]
    return plain


#: The full stall window, and the fifth of it a cold plain run gets.
WINDOW = solver.STALL_WINDOW
COLD_WINDOW = WINDOW // 5


class TestGainStepping:
    @pytest.mark.parametrize(
        "seeded, window, max_factorizations",
        [(False, COLD_WINDOW, 41), (True, WINDOW, 105)],
        ids=["cold", "seeded-at-zero"],
    )
    def test_bandgap_cell_cold_start_uses_gain_stepping(
        self, seeded, window, max_factorizations
    ):
        # The plain run's residual goes flat at ~4.7e-2 by its fifth
        # iteration, so it halves within the first window and then
        # never again: it bails out when the second window closes.  A
        # cold run gets a fifth of STALL_WINDOW; a caller seed, even the
        # cold start's own zero vector, keeps the full window.
        from repro.circuits.bandgap_cell import build_bandgap_cell

        circuit = build_bandgap_cell()
        x0 = np.zeros(MNASystem(circuit).size) if seeded else None
        STATS.reset()
        with tracing(detail="full") as tracer:
            solution = Session(circuit).solve_raw(x0=x0)
        assert solution.strategy == "gain-stepping"
        plain = _plain_span(tracer)
        assert plain.attrs["stall_window"] == window
        assert plain.attrs["reason"] == "stagnation"
        assert plain.iterations[-1]["i"] == 2 * window + 1
        assert STATS.factorizations <= max_factorizations

    def test_cold_hand_over_lands_on_the_patient_plain_answer(self, monkeypatch):
        # The rule's measured trade-off: before its 48 us ramp (VDD = 0)
        # at 327 K, the startup cell's plain run converges only under a
        # window of at least 25 iterations; it halves its residual too
        # slowly for the cold window of 8.  Gain stepping takes over and
        # must land on the dead state an unbounded plain run reaches.
        from repro.circuits.startup import (
            StartupRampConfig,
            build_startup_bandgap_cell,
        )

        ramp = StartupRampConfig(ramp=48e-6)
        circuit = build_startup_bandgap_cell(ramp)
        fast = Session(circuit, temperature_k=327.0).solve_raw(327.0, time=0.0)
        monkeypatch.setattr(solver, "STALL_WINDOW", 0)
        patient = Session(circuit, temperature_k=327.0).solve_raw(327.0, time=0.0)
        assert fast.strategy == "gain-stepping"
        assert patient.strategy == "newton"
        np.testing.assert_allclose(fast.x, patient.x, rtol=0.0, atol=1e-8)
        # perfbench's dead-state bound on VREF before the ramp.
        assert abs(fast.x[circuit.node_index("vref")]) < 5e-3

    def test_slow_gain_ramp_gives_up_within_the_iteration_budget(self, monkeypatch):
        # A first ratio of 1.001 squares its way up (1.001, 1.002,
        # 1.004, ...) through ten quick rungs.  The eleventh is the log
        # amplifier's hard one (22 iterations under the default budget):
        # under a budget of 12 it fails, and so does its square-root
        # retry.  Failed rungs count, so the ramp gives up after
        # max_iterations of them and the gmin ladder solves the log
        # amplifier instead.
        from repro.spice.parser import parse_netlist

        log_amp = (
            ".model DM D (IS=1e-15 N=1.0)\nV1 in 0 1\nR1 in n 1k\n"
            "A1 0 n out gain=1e5\nD1 n out DM\n"
        )
        options = SolverOptions(max_iterations=12)
        with monkeypatch.context() as patch, tracing(detail="full") as tracer:
            patch.setattr(solver, "GAIN_RAMP_RATIO", 1.001)
            slow = Session(parse_netlist(log_amp)).solve_raw(options=options)
        dc_solve, rungs = _gain_rungs(tracer)
        assert dc_solve.attrs["gain_rungs"] == len(rungs) == options.max_iterations
        assert rungs.count(False) == 2
        assert slow.strategy == "gmin-stepping"
        reference = Session(parse_netlist(log_amp)).solve_raw()
        assert reference.strategy == "gain-stepping"
        assert slow.x == pytest.approx(reference.x, abs=1e-9)

    def test_stalled_ramp_gives_up_at_the_first_ratio(self):
        # The PSRR cell at VDD = 1 V and 300.15 K: the ramp converges at
        # gains 1, 4 and 8 but at none of 16 or more, and every ladder
        # fails.  A failed rung backs off to the square root of its
        # ratio, but not below the first ratio (2): a failed rung there
        # ends the ramp.  Without that floor the ramp creeps up on the
        # stall through all max_iterations (150) rungs before handing
        # over.
        from repro.experiments.ac_common import build_psrr_cell

        circuit = build_psrr_cell()
        circuit.element("VDD").dc = 1.0
        with tracing(detail="full") as tracer:
            with pytest.raises(ConvergenceError, match="source stepping stalled"):
                Session(circuit, temperature_k=300.15).solve_raw(300.15)
        dc_solve, rungs = _gain_rungs(tracer)
        assert rungs == [True, True, False, False, True, False, False]
        assert dc_solve.attrs["gain_rungs"] == len(rungs)

    def test_gain_stepping_restores_final_gains(self):
        from repro.circuits.bandgap_cell import build_bandgap_cell
        from repro.spice.elements.opamp import OpAmp

        circuit = build_bandgap_cell()
        amps = [el for el in circuit.elements if isinstance(el, OpAmp)]
        gains = [amp.gain for amp in amps]
        Session(circuit).solve_raw()
        assert [amp.gain for amp in amps] == gains

    def test_sub1v_cell_cold_start_uses_gain_stepping(self):
        from repro.circuits.sub1v import build_sub1v_cell

        solution = Session(build_sub1v_cell()).solve_raw()
        assert solution.strategy == "gain-stepping"


class TestGminStepping:
    def test_starved_newton_falls_back_to_gmin_stepping(self):
        # 10 damped iterations are not enough for a cold start on the
        # stiff chain, but each warm-started gmin stage converges fast;
        # no op-amp is present, so gain stepping cannot fire first.
        options = SolverOptions(max_iterations=10)
        solution = Session(diode_chain(3)).solve_raw(options=options)
        assert solution.strategy == "gmin-stepping"

    def test_gmin_solution_is_the_true_operating_point(self):
        options = SolverOptions(max_iterations=10)
        starved = Session(diode_chain(3)).solve_raw(options=options)
        reference = Session(diode_chain(3)).solve_raw()
        assert reference.strategy == "newton"
        assert starved.x == pytest.approx(reference.x, abs=1e-6)


class TestSourceStepping:
    def test_starved_newton_without_gmin_ladder_source_steps(self, monkeypatch):
        # With the gmin ladder disabled the only remaining fallback is
        # the source ramp (the zero-source circuit solves trivially and
        # each 10%-step warm start stays in the basin).
        monkeypatch.setattr(solver, "GMIN_LADDER", ())
        options = SolverOptions(max_iterations=8)
        solution = Session(diode_chain(4, load_ohm=10.0)).solve_raw(options=options)
        assert solution.strategy == "source-stepping"

    def test_source_stepping_solution_matches_reference(self, monkeypatch):
        options = SolverOptions(max_iterations=8)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "GMIN_LADDER", ())
            stepped = Session(diode_chain(4, load_ohm=10.0)).solve_raw(options=options)
        reference = Session(diode_chain(4, load_ohm=10.0)).solve_raw()
        assert stepped.x == pytest.approx(reference.x, abs=1e-6)

    def test_exhausted_ladder_raises_convergence_error(self, monkeypatch):
        # 2 iterations are not enough for any rung of the ladder.
        monkeypatch.setattr(solver, "GMIN_LADDER", ())
        options = SolverOptions(max_iterations=2)
        with pytest.raises(ConvergenceError):
            Session(diode_chain(4, load_ohm=10.0)).solve_raw(options=options)
