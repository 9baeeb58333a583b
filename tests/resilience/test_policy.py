"""RunPolicy: validation, backoff arithmetic, injectable sleep,
equality/pickling."""

import pickle

import pytest

from repro.errors import ConvergenceError, ReproError, WorkerCrash
from repro.resilience import RunPolicy


class TestValidation:
    def test_defaults_are_record_no_retry(self):
        policy = RunPolicy()
        assert policy.max_retries == 0
        assert policy.max_attempts == 1
        assert policy.on_failure == "record"

    def test_negative_retries_rejected(self):
        with pytest.raises(ReproError, match="max_retries"):
            RunPolicy(max_retries=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ReproError, match="backoff_s"):
            RunPolicy(backoff_s=-0.1)

    def test_non_finite_backoff_rejected(self):
        with pytest.raises(ReproError, match="backoff_s"):
            RunPolicy(backoff_s=float("inf"))

    def test_zero_backoff_factor_rejected(self):
        with pytest.raises(ReproError, match="backoff_factor"):
            RunPolicy(backoff_factor=0.0)

    @pytest.mark.parametrize("action", ["explode", "skip"])
    def test_unknown_on_failure_rejected(self, action):
        with pytest.raises(ReproError, match="on_failure"):
            RunPolicy(on_failure=action)


class TestBackoff:
    def test_exponential_schedule(self):
        policy = RunPolicy(max_retries=3, backoff_s=0.1, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_zero_backoff_never_sleeps(self):
        slept = []
        policy = RunPolicy(max_retries=2, backoff_s=0.0, sleep=slept.append)
        policy.do_sleep(policy.backoff_for(1))
        assert slept == []

    def test_injectable_sleep_receives_backoff(self):
        slept = []
        policy = RunPolicy(backoff_s=0.5, sleep=slept.append)
        policy.do_sleep(policy.backoff_for(1))
        policy.do_sleep(policy.backoff_for(2))
        assert slept == [pytest.approx(0.5), pytest.approx(1.0)]


class TestIdentity:
    def test_sleep_excluded_from_equality(self):
        assert RunPolicy(max_retries=2, sleep=print) == RunPolicy(max_retries=2)

    def test_default_policy_pickles(self):
        policy = RunPolicy(max_retries=2, backoff_s=0.1)
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_is_retryable_matches_defaults(self):
        policy = RunPolicy()
        assert policy.is_retryable(ConvergenceError("x"))
        assert policy.is_retryable(WorkerCrash("x"))
        assert not policy.is_retryable(ValueError("x"))
