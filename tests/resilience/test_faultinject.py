"""The deterministic fault-injection harness itself: spec grammar,
plan matching, install/env precedence, and what each kind raises."""

import multiprocessing

import pytest

from repro import faultinject
from repro.errors import ConvergenceError, FaultInjected, ReproError, WorkerCrash
from repro.resilience.supervisor import attempt_in_worker


class TestParse:
    def test_single_entry(self):
        plan = faultinject.parse("convergence@3:1")
        assert len(plan) == 1
        fault = plan.faults[0]
        assert (fault.kind, fault.index, fault.attempts) == ("convergence", 3, (1, 1))

    def test_wildcards_and_ranges(self):
        plan = faultinject.parse("crash@*;convergence@12:1-2;error@0:*")
        assert plan.faults[0].index is None
        assert plan.faults[1].attempts == (1, 2)
        assert plan.faults[2].attempts is None

    def test_spec_round_trip(self):
        spec = "convergence@3:1;crash@7;hardcrash@12:1-2;error@*"
        assert faultinject.parse(spec).spec() == spec

    def test_empty_entries_skipped(self):
        assert len(faultinject.parse("crash@1; ;")) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            faultinject.parse("meltdown@1")

    def test_missing_index_rejected(self):
        with pytest.raises(ReproError, match="@"):
            faultinject.parse("crash")

    def test_bad_index_rejected(self):
        with pytest.raises(ReproError, match="index"):
            faultinject.parse("crash@x")

    def test_bad_attempts_rejected(self):
        with pytest.raises(ReproError, match="attempts"):
            faultinject.parse("crash@1:x")


class TestMatching:
    def test_first_match_wins(self):
        plan = faultinject.parse("error@1;crash@*")
        assert plan.match(1, 1) == "error"
        assert plan.match(2, 1) == "crash"

    def test_attempt_window(self):
        plan = faultinject.parse("convergence@0:2-3")
        assert plan.match(0, 1) is None
        assert plan.match(0, 2) == "convergence"
        assert plan.match(0, 3) == "convergence"
        assert plan.match(0, 4) is None


class TestActivation:
    def test_no_plan_by_default(self):
        assert faultinject.active_plan() is None
        assert faultinject.active_spec() is None

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@3")
        assert faultinject.active_spec() == "crash@3"

    def test_installed_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@3")
        with faultinject.injected("error@5"):
            assert faultinject.active_spec() == "error@5"
        assert faultinject.active_spec() == "crash@3"

    def test_installed_empty_plan_shields_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@3")
        with faultinject.injected(""):
            # An empty installed plan means "no faults, period".
            faultinject.check(3, 1)  # must not raise

    def test_injected_restores_previous(self):
        faultinject.install("crash@1")
        with faultinject.injected("error@2"):
            assert faultinject.active_spec() == "error@2"
        assert faultinject.active_spec() == "crash@1"


class TestCheck:
    def test_no_fault_no_raise(self):
        with faultinject.injected("error@5"):
            faultinject.check(4, 1)

    def test_convergence_kind(self):
        with faultinject.injected("convergence@2:1"):
            with pytest.raises(ConvergenceError, match="item 2, attempt 1"):
                faultinject.check(2, 1)
            faultinject.check(2, 2)  # attempt window passed

    def test_crash_kind(self):
        with faultinject.injected("crash@0"):
            with pytest.raises(WorkerCrash):
                faultinject.check(0, 1)

    def test_error_kind_is_terminal_type(self):
        with faultinject.injected("error@0"):
            with pytest.raises(FaultInjected):
                faultinject.check(0, 1)

    def test_hardcrash_downgrades_in_parent(self):
        # In the importing process hardcrash must NEVER os._exit: it
        # downgrades to the picklable simulated crash.
        with faultinject.injected("hardcrash@0"):
            with pytest.raises(WorkerCrash, match="downgrade"):
                faultinject.check(0, 1)

    @pytest.mark.parametrize(
        "method",
        [
            m for m in ("spawn", "forkserver")
            if m in multiprocessing.get_all_start_methods()
        ],
    )
    def test_hardcrash_kills_a_fresh_interpreter_worker(self, method):
        # A spawn or forkserver worker imports faultinject itself, so
        # nothing pid-based can tell it from the parent: the worker side
        # of an attempt must say so.
        worker = multiprocessing.get_context(method).Process(
            target=attempt_in_worker,
            args=((abs, -1, 1, 1, "hardcrash@1:1", None),),
        )
        worker.start()
        try:
            worker.join(60)
            assert worker.exitcode == 3
        finally:
            if worker.is_alive():
                worker.kill()
                worker.join()

    def test_explicit_spec_overrides_active_plan(self):
        with faultinject.injected("error@0"):
            faultinject.check(0, 1, spec="crash@9")  # shipped spec wins
            with pytest.raises(WorkerCrash):
                faultinject.check(9, 1, spec="crash@9")
