"""Session-layer resilience: supervised run_many / run_plans, partial
Monte-Carlo populations, and the fanned == serial proof under every
injected failure mode.

The fan-out tests use ``REPRO_FAULTS`` (the environment spec) rather
than an installed plan so pool workers see the same faults regardless
of start method; every pair gets its own recipe (a distinct circuit
title), so each forms its own session group and the supervised item
index IS the pair index.
"""

import numpy as np
import pytest

from repro import faultinject
from repro.errors import FaultInjected, WorkerCrash
from repro.resilience import Outcome, RunPolicy
from repro.spice import (
    Circuit,
    Diode,
    MonteCarlo,
    OP,
    Resistor,
    Session,
    SessionRecipe,
    VoltageSource,
    run_plans,
)
from repro.spice.stats import STATS


def diode_circuit(title="diode under drive"):
    c = Circuit(title)
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


RECORD = RunPolicy(max_retries=1, on_failure="record")


def _normalize(outcomes):
    return [
        (o.index, o.status, o.attempts, o.error_type)
        for o in outcomes
    ]


def _x_vectors(outcomes):
    return [o.value.op.x for o in outcomes if o.ok]


class TestRunManySupervised:
    def test_policy_returns_outcomes(self):
        outcomes = Session(diode_circuit).run_many(
            [OP(), OP(temperature_k=320.0)], policy=RECORD
        )
        assert all(isinstance(o, Outcome) and o.ok for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1]

    def test_no_policy_keeps_legacy_return(self):
        results = Session(diode_circuit).run_many([OP(), OP(temperature_k=320.0)])
        assert not any(isinstance(r, Outcome) for r in results)

    def test_partial_batch_with_terminal_fault(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@1")
        plans = [OP(temperature_k=300.0 + i) for i in range(4)]
        serial = Session(diode_circuit).run_many(plans, policy=RECORD)
        fanned = Session(diode_circuit).run_many(plans, workers=2, policy=RECORD)
        assert _normalize(serial) == _normalize(fanned)
        assert serial[1].status == "failed"
        assert isinstance(serial[1].error, FaultInjected)
        assert sum(o.ok for o in serial) == 3
        for a, b in zip(_x_vectors(serial), _x_vectors(fanned)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_raise_policy_keeps_fail_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@0")
        with pytest.raises(WorkerCrash):
            Session(diode_circuit).run_many(
                [OP(), OP(temperature_k=320.0)],
                policy=RunPolicy(on_failure="raise"),
            )


@pytest.mark.usefixtures("device_eval_path")
class TestRunPlansFaultEquality:
    """Satellite: run_plans results identical fanned vs serial under
    injected faults, on both device-evaluator paths."""

    FAULT_CASES = {
        "worker-crash": "crash@2:1",
        "timeout": "timeout@1:1",
        "transient-convergence": "convergence@0:1",
    }

    def _pairs(self):
        return [
            (
                SessionRecipe(builder=diode_circuit, args=(f"diode {i}",)),
                OP(temperature_k=290.0 + 10.0 * i),
            )
            for i in range(4)
        ]

    @pytest.mark.parametrize("fault", sorted(FAULT_CASES))
    def test_fanned_equals_serial_under_fault(self, fault, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.FAULT_CASES[fault])
        STATS.reset()
        serial = run_plans(self._pairs(), workers=1, policy=RECORD)
        serial_counters = {
            k: v
            for k, v in STATS.as_dict().items()
            if k in ("retries", "timeouts", "worker_failures")
        }
        STATS.reset()
        fanned = run_plans(self._pairs(), workers=2, policy=RECORD)
        fanned_counters = {
            k: v
            for k, v in STATS.as_dict().items()
            if k in ("retries", "timeouts", "worker_failures")
        }
        assert _normalize(serial) == _normalize(fanned)
        assert serial_counters == fanned_counters
        assert serial_counters["retries"] >= 1  # every case recovers via retry
        assert all(o.ok and o.attempts == 2 or o.attempts == 1 for o in serial)
        for a, b in zip(_x_vectors(serial), _x_vectors(fanned)):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    def test_terminal_fault_fails_only_its_pair(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@3")
        serial = run_plans(self._pairs(), workers=1, policy=RECORD)
        fanned = run_plans(self._pairs(), workers=2, policy=RECORD)
        assert _normalize(serial) == _normalize(fanned)
        assert [o.status for o in serial] == ["ok", "ok", "ok", "failed"]


class TestMonteCarloPartialResults:
    CRASH_TRIALS = (113, 557, 901)
    N_TRIALS = 1000
    #: Three deterministic crashes (the policy retries them once, they
    #: crash again, terminal) plus one transient that converges on
    #: retry — the acceptance scenario.
    SPEC = "crash@113;crash@557;crash@901;convergence@7:1"

    def _plan(self):
        # Trials cycle a few resistance values, so the solved-point
        # cache keeps the 1000-trial population cheap.
        trials = tuple(
            (("R1", "resistance", 1.0e3 + 50.0 * (i % 4)),)
            for i in range(self.N_TRIALS)
        )
        return MonteCarlo(
            inner=OP(),
            trials=trials,
            policy=RunPolicy(max_retries=1, on_failure="record"),
        )

    def test_thousand_trials_with_three_crashes(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.SPEC)
        STATS.reset()
        result = Session(diode_circuit).run(self._plan())
        assert len(result) == self.N_TRIALS - len(self.CRASH_TRIALS) == 997
        assert result.failed_indices() == self.CRASH_TRIALS
        assert not result.complete
        for outcome in result.failed_trials:
            assert isinstance(outcome.error, WorkerCrash)
            assert outcome.attempts == 2  # retried once, then terminal
        # The surviving population excludes exactly the dead indices.
        assert result.trial_indices == tuple(
            i for i in range(self.N_TRIALS) if i not in self.CRASH_TRIALS
        )
        # The transient at trial 7 converged on retry.
        assert 7 in result.trial_indices
        assert STATS.retries >= 1

    def test_serial_equals_fanned_population(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.SPEC)
        serial = Session(diode_circuit).run(self._plan())
        # Two recipe-distinct groups force the process-pool path, so the
        # partial population round-trips through the worker payload.
        recipe = SessionRecipe(builder=diode_circuit)
        other = SessionRecipe(builder=diode_circuit, args=("other diode",))
        outcomes = run_plans(
            [(recipe, self._plan()), (other, OP())],
            workers=2,
            policy=RunPolicy(max_retries=0, on_failure="record"),
        )
        assert outcomes[0].ok and outcomes[1].ok
        fanned = outcomes[0].value
        assert fanned.failed_indices() == serial.failed_indices() == self.CRASH_TRIALS
        assert fanned.trial_indices == serial.trial_indices
        np.testing.assert_allclose(
            fanned.voltage("d"), serial.voltage("d"), rtol=1e-9, atol=1e-12
        )
        for ours, theirs in zip(fanned.failed_trials, serial.failed_trials):
            assert ours.error_type == theirs.error_type == "WorkerCrash"
            assert ours.index == theirs.index

    def test_to_dict_reports_failures(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@2")
        trials = tuple(
            (("R1", "resistance", 1.0e3 + i),) for i in range(4)
        )
        plan = MonteCarlo(inner=OP(), trials=trials, policy=RECORD)
        snapshot = Session(diode_circuit).run(plan).to_dict()
        assert snapshot["trial_indices"] == [0, 1, 3]
        [failure] = snapshot["failed_trials"]
        assert failure["index"] == 2
        assert failure["error_type"] == "FaultInjected"

    def test_no_policy_keeps_fail_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@2")
        trials = tuple(
            (("R1", "resistance", 1.0e3 + i),) for i in range(4)
        )
        plan = MonteCarlo(inner=OP(), trials=trials)
        # No policy: faults are not armed, the legacy path runs clean.
        result = Session(diode_circuit).run(plan)
        assert len(result) == 4 and result.complete

    def test_policy_field_validated(self):
        with pytest.raises(Exception, match="RunPolicy"):
            MonteCarlo(
                inner=OP(),
                trials=((("R1", "resistance", 1.0e3),),),
                policy="not a policy",
            )
