"""Supervised execution semantics: supervised_call, supervised_map on
both transports, the pool failure taxonomy of a policy-free map, and
the resilience STATS counters / telemetry spans.

Pool work functions live at module level (the pickling convention of the
whole fan-out stack).
"""

import os

import pytest

from repro import faultinject, telemetry
from repro.errors import ConvergenceError, FaultInjected, WorkerCrash
from repro.parallel import supervised_map
from repro.resilience import CapturedFailure, Outcome, RunPolicy, supervised_call
from repro.resilience.outcome import capture_error
from repro.spice.stats import STATS
from repro.telemetry.tracer import tracing


def square(x):
    return x * x


def raises_type_error(x):
    raise TypeError("raised by the work function itself")


def raises_value_error(x):
    raise ValueError(f"item {x} failed")


def returns_lambda(x):
    return lambda: x  # result cannot cross the pool


RECORD = RunPolicy(on_failure="record")


class TestSupervisedCall:
    def test_ok_outcome_fields(self):
        outcome = supervised_call(lambda: 42, index=7, policy=RECORD)
        assert outcome.ok and outcome.value == 42
        assert outcome.index == 7
        assert outcome.attempts == 1 and not outcome.retried
        assert outcome.worker_pid == os.getpid()
        assert outcome.error is None and outcome.error_type is None

    def test_transient_failure_retried(self):
        slept = []
        policy = RunPolicy(max_retries=2, backoff_s=0.25, sleep=slept.append)
        with faultinject.injected("convergence@0:1"):
            outcome = supervised_call(lambda: "done", policy=policy)
        assert outcome.ok and outcome.value == "done"
        assert outcome.attempts == 2 and outcome.retried
        assert slept == [pytest.approx(0.25)]
        assert STATS.retries == 1

    def test_exponential_backoff_sequence(self):
        slept = []
        policy = RunPolicy(
            max_retries=3, backoff_s=0.1, backoff_factor=2.0, sleep=slept.append
        )
        with faultinject.injected("convergence@0:1-3"):
            outcome = supervised_call(lambda: "done", policy=policy)
        assert outcome.ok and outcome.attempts == 4
        assert slept == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4)]

    def test_terminal_error_never_retried(self):
        policy = RunPolicy(max_retries=3, on_failure="record")
        with faultinject.injected("error@0"):
            outcome = supervised_call(lambda: "unreached", policy=policy)
        assert not outcome.ok and outcome.status == "failed"
        assert outcome.attempts == 1
        assert isinstance(outcome.error, FaultInjected)
        assert STATS.retries == 0

    def test_retry_budget_exhausts(self):
        policy = RunPolicy(max_retries=2, on_failure="record")
        with faultinject.injected("crash@0"):
            outcome = supervised_call(lambda: "unreached", policy=policy)
        assert not outcome.ok and outcome.attempts == 3
        assert isinstance(outcome.error, WorkerCrash)
        assert STATS.retries == 2

    def test_on_failure_raise_reraises_original(self):
        with faultinject.injected("error@0"):
            with pytest.raises(FaultInjected):
                supervised_call(
                    lambda: None, policy=RunPolicy(on_failure="raise")
                )

    def test_unwrap_reraises(self):
        with faultinject.injected("error@0"):
            outcome = supervised_call(lambda: None, policy=RECORD)
        with pytest.raises(FaultInjected):
            outcome.unwrap()

    def test_to_dict_attribution(self):
        with faultinject.injected("crash@4"):
            outcome = supervised_call(lambda: None, index=4, policy=RECORD)
        snapshot = outcome.to_dict()
        assert snapshot["index"] == 4
        assert snapshot["status"] == "failed"
        assert snapshot["error_type"] == "WorkerCrash"

    def test_capture_error_falls_back_to_stand_in(self):
        class Unpicklable(Exception):
            def __init__(self):
                super().__init__("nope")
                self.hook = lambda: None

        captured = capture_error(Unpicklable())
        assert isinstance(captured, CapturedFailure)
        assert captured.error_type == "Unpicklable"


class TestSupervisedMapEquality:
    SPEC = "error@0;convergence@1:1;crash@2:1;convergence@3:1"

    def _run(self, workers):
        policy = RunPolicy(max_retries=1, on_failure="record")
        with faultinject.injected(self.SPEC):
            outcomes = supervised_map(
                square, [3, 4, 5, 6, 7], policy=policy, max_workers=workers
            )
        return outcomes

    @staticmethod
    def _normalize(outcomes):
        return [
            (o.index, o.status, o.value, o.attempts, o.error_type) for o in outcomes
        ]

    def test_serial_equals_pool(self):
        serial = self._run(workers=1)
        serial_stats = {
            k: v
            for k, v in STATS.as_dict().items()
            if k in ("retries", "worker_failures", "serial_fallbacks")
        }
        STATS.reset()
        pooled = self._run(workers=2)
        pooled_stats = {
            k: v
            for k, v in STATS.as_dict().items()
            if k in ("retries", "worker_failures", "serial_fallbacks")
        }
        assert self._normalize(serial) == self._normalize(pooled)
        assert serial_stats == pooled_stats
        # And the mixture is the expected one: a terminal failure, three
        # recovered transients (convergence, crash, convergence), and an
        # untouched success.
        assert self._normalize(serial) == [
            (0, "failed", None, 1, "FaultInjected"),
            (1, "ok", 16, 2, None),
            (2, "ok", 25, 2, None),
            (3, "ok", 36, 2, None),
            (4, "ok", 49, 1, None),
        ]
        assert serial_stats["retries"] == 3
        assert serial_stats["worker_failures"] == 1

    def test_on_failure_raise_raises_lowest_index(self):
        policy = RunPolicy(on_failure="raise")
        with faultinject.injected("error@2;crash@1"):
            with pytest.raises(WorkerCrash):
                supervised_map(square, [0, 1, 2], policy=policy, max_workers=2)

    @pytest.mark.parametrize("kind", faultinject.KINDS)
    def test_fanned_equals_serial_outcomes_under_every_kind(self, kind):
        # Item 1's first attempt meets the fault: the transient kinds
        # recover on the retry, the terminal one fails there.  A
        # hardcrash kills a real pool worker, so the fanned run also
        # warns once about the pool death.
        policy = RunPolicy(max_retries=1, on_failure="record")

        def run(workers):
            with faultinject.injected(f"{kind}@1:1"):
                outcomes = supervised_map(
                    square, [1, 2, 3], policy=policy, max_workers=workers
                )
            return self._normalize(outcomes)

        serial = run(1)
        if kind == "hardcrash":
            with pytest.warns(RuntimeWarning, match="process pool died mid-run"):
                fanned = run(2)
        else:
            fanned = run(2)
        assert fanned == serial

    @pytest.mark.parametrize("workers", [None, 2])
    def test_faults_require_explicit_policy(self, workers):
        # A standing plan must never perturb unsupervised traffic.
        with faultinject.injected("error@*"):
            outcomes = supervised_map(square, [1, 2, 3], max_workers=workers)
            assert [o.value for o in outcomes] == [1, 4, 9]


class TestPoolFailureTaxonomy:
    def test_func_exception_propagates_not_serial_rerun(self):
        # The old over-broad fallback re-ran everything serially when
        # func raised TypeError; now the work function's own exception
        # propagates unchanged from pool execution.
        with pytest.raises(TypeError, match="raised by the work function"):
            supervised_map(raises_type_error, [1, 2], max_workers=2)
        assert STATS.serial_fallbacks == 0

    def test_func_exception_type_preserved_from_workers(self):
        with pytest.raises(ValueError, match="item 1 failed"):
            supervised_map(raises_value_error, [1, 2], max_workers=2)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_recorded_failure_keeps_type_and_message(self, workers):
        # Attribution of a recorded failure is its exception's type and
        # message, on either transport.
        outcomes = supervised_map(
            raises_value_error, [1, 2], policy=RECORD, max_workers=workers
        )
        assert [o.status for o in outcomes] == ["failed", "failed"]
        assert [(o.to_dict()["error_type"], o.to_dict()["error"]) for o in outcomes] == [
            ("ValueError", "item 1 failed"),
            ("ValueError", "item 2 failed"),
        ]

    def test_unpicklable_payload_falls_back_per_item(self):
        # A lambda cannot cross the pool: infrastructure failure, so
        # each item finishes in-process and the degradation is counted.
        outcomes = supervised_map(lambda x: x + 1, [1, 2, 3], max_workers=2)
        assert [o.value for o in outcomes] == [2, 3, 4]
        assert STATS.serial_fallbacks == 3

    def test_unpicklable_result_falls_back_per_item(self):
        outcomes = supervised_map(
            returns_lambda, [1, 2], policy=RECORD, max_workers=2
        )
        assert [o.value() for o in outcomes] == [1, 2]
        assert STATS.serial_fallbacks == 2

    def test_broken_pool_keeps_completed_items(self):
        # One pool death: one worker failure for the dead pool, one
        # serial fallback finishing the unfinished items in-process,
        # where item 1's uncharged first attempt downgrades to a
        # WorkerCrash (the second worker failure) and its retry succeeds.
        policy = RunPolicy(max_retries=1, on_failure="record")
        with pytest.warns(RuntimeWarning, match="process pool died mid-run") as caught:
            with faultinject.injected("hardcrash@1:1"):
                outcomes = supervised_map(
                    square, list(range(6)), policy=policy, max_workers=2
                )
        assert len(caught) == 1
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16, 25]
        assert outcomes[1].attempts == 2
        assert STATS.worker_failures == 2
        assert STATS.serial_fallbacks == 1

    def test_pool_outcomes_carry_worker_pids(self):
        outcomes = supervised_map(
            square, [1, 2, 3, 4], policy=RECORD, max_workers=2
        )
        pids = {o.worker_pid for o in outcomes}
        assert os.getpid() not in pids


class TestObservability:
    def test_new_counters_in_stats_dict(self):
        snapshot = STATS.as_dict()
        for key in ("retries", "worker_failures", "serial_fallbacks"):
            assert snapshot[key] == 0

    def test_counters_in_prometheus_export(self):
        STATS.retries = 3
        STATS.serial_fallbacks = 1
        text = telemetry.prometheus_text(STATS)
        assert "repro_retries_total 3" in text
        assert "repro_serial_fallbacks_total 1" in text
        assert "repro_timeouts_total" not in text
        assert "repro_worker_failures_total 0" in text

    def test_retry_span_records_attempt_and_reason(self):
        policy = RunPolicy(max_retries=1, backoff_s=0.3, sleep=lambda s: None)
        with tracing(detail="plans") as tracer:
            with faultinject.injected("convergence@0:1"):
                supervised_call(lambda: "ok", policy=policy)
        retries = [s for s in tracer.roots if s.name == "retry"]
        assert len(retries) == 1
        attrs = retries[0].attrs
        assert attrs["item"] == 0
        assert attrs["attempt"] == 2
        assert attrs["backoff_s"] == pytest.approx(0.3)
        assert attrs["reason"] == "ConvergenceError"

    def test_supervised_map_span_counts_outcomes(self):
        with tracing(detail="plans") as tracer:
            with faultinject.injected("error@1"):
                supervised_map(square, [1, 2, 3], policy=RECORD)
        spans = [s for s in tracer.roots if s.name == "supervised_map"]
        assert len(spans) == 1
        attrs = spans[0].attrs
        assert attrs["items"] == 3
        assert attrs["mode"] == "serial"
        assert attrs["ok"] == 2 and attrs["failed"] == 1

    @pytest.mark.parametrize("workers", [None, 2])
    def test_policy_free_map_stays_span_silent(self, workers):
        with tracing(detail="plans") as tracer:
            supervised_map(square, [1, 2, 3], max_workers=workers)
        assert tracer.roots == []
