"""Session-layer resilience: the Session layer is unsupervised.

Supervision (retries, fault injection, failure records) lives at the
experiment registry and the job service.  A Session runs its plans
in-process and fails fast, so a standing ``REPRO_FAULTS`` plan never
perturbs it.

Plan work supervised where supervision lives — a ``supervised_map`` at
the batch boundary — must give the same outcomes fanned and serial
under every injected failure mode.  Those tests use ``REPRO_FAULTS``
(the environment spec) so pool workers see the same faults regardless
of start method; every pair gets its own session (a distinct circuit
title), so the supervised item index IS the pair index.
"""

import json

import numpy as np
import pytest

from repro.errors import ConvergenceError, FaultInjected, WorkerCrash
from repro.parallel import supervised_map
from repro.resilience import Outcome, RunPolicy
from repro.spice import (
    Circuit,
    Diode,
    MonteCarlo,
    OP,
    Resistor,
    Session,
    VoltageSource,
)
from repro.spice import session as session_mod
from repro.spice.stats import STATS


def diode_circuit(title="diode under drive"):
    c = Circuit(title)
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


# Pool work functions live at module level, so they pickle.

def run_pair(item):
    """One ``(builder, args, plan)`` item on its own session."""
    builder, args, plan = item
    return Session(builder, args=args).run(plan)


def trial_voltage(overrides):
    """One Monte-Carlo trial: the diode drop under ``overrides``."""
    return Session(diode_circuit).run(OP(overrides=overrides)).voltage("d")


RECORD = RunPolicy(max_retries=1, on_failure="record")


def _normalize(outcomes):
    return [
        (o.index, o.status, o.attempts, o.error_type)
        for o in outcomes
    ]


def _x_vectors(outcomes):
    return [o.value.op.x for o in outcomes if o.ok]


class TestRunManyUnsupervised:
    def test_returns_plain_results(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        session = Session(diode_circuit)
        results = [session.run(plan) for plan in (OP(), OP(temperature_k=320.0))]
        assert [result.kind for result in results] == ["op", "op"]
        assert not any(isinstance(result, Outcome) for result in results)

    def test_first_failure_propagates_unchanged(self, monkeypatch):
        real_solve = session_mod.solve_dc_system
        calls = []

        def second_call_fails(*args, **kwargs):
            calls.append(len(calls) + 1)
            if len(calls) == 2:
                raise ConvergenceError("the second plan does not converge")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(session_mod, "solve_dc_system", second_call_fails)
        session = Session(diode_circuit)
        with pytest.raises(ConvergenceError, match="second plan"):
            for plan in (OP(), OP(temperature_k=320.0), OP(temperature_k=340.0)):
                session.run(plan)
        assert calls == [1, 2]  # no retry, and the third plan never ran


@pytest.mark.usefixtures("device_eval_path")
class TestRunPlansFaultEquality:
    """Plan pairs supervised at the batch boundary: outcomes identical
    fanned vs serial under injected faults, on both device-evaluator
    paths."""

    FAULT_CASES = {
        "worker-crash": "crash@2:1",
        "transient-convergence": "convergence@0:1",
    }

    def _pairs(self):
        return [
            (diode_circuit, (f"diode {i}",), OP(temperature_k=290.0 + 10.0 * i))
            for i in range(4)
        ]

    def _run(self, workers):
        STATS.reset()
        outcomes = supervised_map(
            run_pair, self._pairs(), policy=RECORD, max_workers=workers
        )
        counters = {
            k: v
            for k, v in STATS.as_dict().items()
            if k in ("retries", "worker_failures")
        }
        return outcomes, counters

    @pytest.mark.parametrize("fault", sorted(FAULT_CASES))
    def test_fanned_equals_serial_under_fault(self, fault, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.FAULT_CASES[fault])
        serial, serial_counters = self._run(workers=None)
        fanned, fanned_counters = self._run(workers=2)
        assert _normalize(serial) == _normalize(fanned)
        assert serial_counters == fanned_counters
        assert serial_counters["retries"] >= 1  # every case recovers via retry
        assert all(o.ok for o in serial)
        assert sorted(o.attempts for o in serial) == [1, 1, 1, 2]
        for a, b in zip(_x_vectors(serial), _x_vectors(fanned)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_terminal_fault_fails_only_its_pair(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@3")
        serial, _ = self._run(workers=None)
        fanned, _ = self._run(workers=2)
        assert _normalize(serial) == _normalize(fanned)
        assert [o.status for o in serial] == ["ok", "ok", "ok", "failed"]
        assert isinstance(fanned[3].error, FaultInjected)


class TestMonteCarloUnsupervised:
    def test_standing_faults_leave_the_run_unperturbed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@2")
        trials = tuple(
            (("R1", "resistance", 1.0e3 + i),) for i in range(4)
        )
        plan = MonteCarlo(inner=OP(), trials=trials)
        # Faults fire only under an explicit policy: every trial runs.
        result = Session(diode_circuit).run(plan)
        assert len(result) == 4


class TestSupervisedTrialPopulation:
    """A partial Monte-Carlo population comes from supervising the
    trials at the batch boundary, one item per trial."""

    CRASH_TRIALS = (113, 557, 901)
    N_TRIALS = 1000
    #: Three deterministic crashes (the policy retries them once, they
    #: crash again, terminal) plus one transient that converges on
    #: retry.
    SPEC = "crash@113;crash@557;crash@901;convergence@7:1"

    def _trials(self):
        return [
            (("R1", "resistance", 1.0e3 + 50.0 * (i % 4)),)
            for i in range(self.N_TRIALS)
        ]

    def test_thousand_trials_with_three_crashes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.SPEC)
        STATS.reset()
        outcomes = supervised_map(trial_voltage, self._trials(), policy=RECORD)
        survivors = [o for o in outcomes if o.ok]
        failed = [o for o in outcomes if not o.ok]
        assert len(survivors) == self.N_TRIALS - len(self.CRASH_TRIALS) == 997
        assert tuple(o.index for o in failed) == self.CRASH_TRIALS
        for outcome in failed:
            assert isinstance(outcome.error, WorkerCrash)
            assert outcome.attempts == 2  # retried once, then terminal
        # The transient at trial 7 converged on retry.
        assert outcomes[7].ok and outcomes[7].attempts == 2
        assert STATS.retries == len(self.CRASH_TRIALS) + 1

    def test_serial_equals_fanned_population(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.SPEC)
        policy = RunPolicy(max_retries=0, on_failure="record")
        serial = supervised_map(trial_voltage, self._trials(), policy=policy)
        fanned = supervised_map(
            trial_voltage, self._trials(), policy=policy, max_workers=2
        )
        assert _normalize(fanned) == _normalize(serial)
        assert tuple(o.index for o in fanned if not o.ok) == (7,) + self.CRASH_TRIALS
        np.testing.assert_allclose(
            [o.value for o in fanned if o.ok],
            [o.value for o in serial if o.ok],
            rtol=1e-9,
            atol=1e-12,
        )

    def test_to_dict_reports_failures(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@2")
        trials = [(("R1", "resistance", 1.0e3 + i),) for i in range(4)]
        snapshots = [
            outcome.to_dict()
            for outcome in supervised_map(trial_voltage, trials, policy=RECORD)
        ]
        assert [s["status"] for s in snapshots] == ["ok", "ok", "failed", "ok"]
        assert snapshots[2]["index"] == 2
        assert snapshots[2]["error_type"] == "FaultInjected"
        assert json.loads(json.dumps(snapshots)) == snapshots
