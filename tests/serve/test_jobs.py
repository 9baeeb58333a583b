"""Tests for the job execution layer: wire codec, session pool, service.

* **wire codec** — every plan type round-trips ``plan_to_wire`` ->
  ``plan_from_wire`` to an equal plan (including nested MonteCarlo
  inners and solver/transient options); every malformed shape, unknown
  option name or out-of-range option value raises a typed
  ``PlanError`` naming the problem.
* **options cache keys** — the regression lock for the solved-point
  cache key: EVERY ``SolverOptions`` field participates in
  ``_options_key``, and wire-decoded options produce byte-identical
  keys to natively constructed ones.
* **session pool** — textually identical submissions share a session;
  the pool is LRU-bounded and flushes evicted sessions to the store.
* **job service** — submit validates before any solve, workers execute
  under the job policy with Outcome-style failure attribution, and the
  serve counters move.
"""

import dataclasses
import json
import math
import threading
import time

import pytest

from repro.errors import PlanError
from repro.resilience import RunPolicy
from repro.serve.cachestore import CacheStore
from repro.serve.jobs import (
    JobService,
    SessionPool,
    circuit_from_wire,
    plan_from_wire,
    plan_to_wire,
    policy_from_wire,
)
from repro.spice.hierarchy import bandgap_array
from repro.spice.plans import (
    ACSweep,
    DCSweep,
    MonteCarlo,
    OP,
    TempSweep,
    Transient,
)
from repro.spice.session import Session, _options_key
from repro.spice.solver import SolverOptions
from repro.spice.stats import STATS
from repro.spice.transient import TransientOptions

NETLIST = ".model DM D (IS=1e-15 N=1.0)\nV1 in 0 5\nR1 in d 1k\nD1 d 0 DM\n"


#: Plans whose fields have the wrong JSON type, by case name.  Each must
#: be refused as a PlanError at submit, before any solve.
WRONG_TYPED_PLANS = {
    "temperature-text": {"analysis": "OP", "temperature_k": "hot"},
    "temperature-null": {"analysis": "OP", "temperature_k": None},
    "temperature-bool": {"analysis": "OP", "temperature_k": True},
    "op-time-text": {"analysis": "OP", "time": "x"},
    "t-stop-null": {"analysis": "Transient", "t_stop": None},
    "temperature-grid-text": {"analysis": "TempSweep", "temperatures_k": "399"},
    "dc-values-text": {"analysis": "DCSweep", "source": "V1", "values": "123"},
    "record-text": {"analysis": "OP", "record": "d"},
    "solver-int-text": {"analysis": "OP", "options": {"max_iterations": "many"}},
    "solver-real-text": {"analysis": "OP", "options": {"gmin": "tiny"}},
    "transient-bool-text": {
        "analysis": "Transient", "t_stop": 1e-6, "options": {"adaptive": "no"}
    },
}


#: Solver options the wire must refuse by name, by case name: a typo,
#: the removed ``sparse_threshold`` (the system's size picks dense or
#: sparse), the removed ``xtol`` (no solver step read it) and the
#: convergence-policy knobs that are now solver constants.
UNKNOWN_SOLVER_OPTIONS = {
    "abstol2": {"abstol2": 1e-9},
    "sparse_threshold": {"sparse_threshold": 500},
    "xtol": {"xtol": 1e-10},
    "max_step_v": {"max_step_v": 0.5},
    "gmin_ladder": {"gmin_ladder": [1e-3, 1e-6]},
    "source_ramp": {"source_ramp": [0.5, 1.0]},
    "gain_ramp_ratio": {"gain_ramp_ratio": 2.0},
    "reuse_lu": {"reuse_lu": False},
    "reuse_limit": {"reuse_limit": 4},
    "reuse_contraction": {"reuse_contraction": 0.1},
    "sparse_permc": {"sparse_permc": "NATURAL"},
    "sparse_reuse_limit": {"sparse_reuse_limit": 32},
    "sparse_reuse_contraction": {"sparse_reuse_contraction": 0.2},
    "stall_window": {"stall_window": 0},
    "stall_improvement": {"stall_improvement": 0.5},
}

#: Transient options the wire must refuse by name: the step-growth cap
#: and the Newton-failure shrink are transient-engine constants now.
UNKNOWN_TRANSIENT_OPTIONS = {
    "max_growth": {"max_growth": 2.0},
    "newton_shrink": {"newton_shrink": 0.25},
}

#: Plans whose options no solve can honour, or no service worker should
#: be held for, by case name, with the option each message names.  Each
#: must be refused as a PlanError at submit, before any solve: accepted,
#: a negative gmin solved to a wrong answer, a 10**9-step cap let a
#: fixed 1 ns step run a 1 s transient on one worker, and the others
#: failed only once they ran.
_OP = {"analysis": "OP"}
_TRANSIENT = {"analysis": "Transient", "t_stop": 1e-6}
OUT_OF_RANGE_PLANS = {
    "gmin-negative": ({**_OP, "options": {"gmin": -1e-3}}, "gmin"),
    "max-iterations-0": ({**_OP, "options": {"max_iterations": 0}}, "max_iterations"),
    "abstol-0": ({**_OP, "options": {"abstol": 0.0}}, "abstol"),
    "vtol-negative": ({**_OP, "options": {"vtol": -1e-8}}, "vtol"),
    "dt-init-negative": ({**_TRANSIENT, "options": {"dt_init": -1}}, "dt_init"),
    "dt-max-0": ({**_TRANSIENT, "options": {"dt_max": 0}}, "dt_max"),
    "max-steps-0": ({**_TRANSIENT, "options": {"max_steps": 0}}, "max_steps"),
    "max-steps-past-the-engine-cap": (
        {
            "analysis": "Transient",
            "t_stop": 1.0,
            "options": {
                "adaptive": False, "dt_init": 1e-9, "dt_max": 1e-9,
                "max_steps": 10**9,
            },
        },
        "max_steps",
    ),
    "lte-reltol-nan": (
        {**_TRANSIENT, "options": {"lte_reltol": math.nan}}, "lte_reltol"
    ),
    "newton-gmin-negative": (
        {**_TRANSIENT, "options": {"newton": {"gmin": -1e-3}}}, "gmin"
    ),
}


#: Wire policies the codec must refuse, by case name, with the message
#: each raises: a key of the wrong JSON type, or retries and backoff
#: sleeps that would hold a service worker for too long (at most 10
#: retries and 60 s of backoff in total).
REFUSED_POLICIES = {
    "retries-bool": ({"max_retries": True}, "max_retries must be an integer"),
    "retries-float": ({"max_retries": 2.5}, "max_retries must be an integer"),
    "backoff-bool": ({"backoff_s": True}, "backoff_s must be a number"),
    "retries-huge": ({"max_retries": 1000000000}, "max_retries must be <= 10"),
    "backoff-huge": ({"max_retries": 1, "backoff_s": 1e9}, "limit is 60 s"),
    "factor-overflow": (
        {"max_retries": 10, "backoff_s": 1.0, "backoff_factor": 1e308},
        "backoff sums to inf s",
    ),
}


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


class TestWireCodec:
    @pytest.mark.parametrize(
        "plan",
        [
            OP(),
            OP(temperature_k=320.15, time=0.0, overrides=(("R1", "resistance", 2e3),)),
            DCSweep(source="V1", values=(0.0, 1.0, 2.0), record=("d",)),
            TempSweep(temperatures_k=(280.15, 300.15)),
            ACSweep(frequencies_hz=(10.0, 100.0), temperatures_k=(300.15,)),
            Transient(t_stop=1e-6, record=("d",)),
            Transient(
                t_stop=1e-6,
                options=TransientOptions(
                    dt_init=1e-9,
                    adaptive=False,
                    newton=SolverOptions(gmin=1e-13),
                ),
            ),
            MonteCarlo(inner=OP(), trials=((("R1", "resistance", 1.1e3),),)),
            # An integer is a real number: vtol takes 1.
            OP(options=SolverOptions(max_iterations=99, vtol=1)),
        ],
        ids=lambda plan: type(plan).__name__,
    )
    def test_round_trip(self, plan):
        assert plan_from_wire(plan_to_wire(plan)) == plan

    def test_json_lists_normalize_to_tuples(self):
        plan = plan_from_wire(
            {"analysis": "TempSweep", "temperatures_k": [280.15, 300.15]}
        )
        assert plan.temperatures_k == (280.15, 300.15)

    def test_unknown_analysis(self):
        with pytest.raises(PlanError, match="unknown analysis"):
            plan_from_wire({"analysis": "Fourier"})

    def test_unknown_field(self):
        with pytest.raises(PlanError, match="no field"):
            plan_from_wire({"analysis": "OP", "temperture_k": 300.0})

    @pytest.mark.parametrize(
        "options",
        list(UNKNOWN_SOLVER_OPTIONS.values()),
        ids=list(UNKNOWN_SOLVER_OPTIONS),
    )
    def test_unknown_solver_option(self, options):
        with pytest.raises(PlanError, match="unknown solver option"):
            plan_from_wire({"analysis": "OP", "options": options})

    def test_plan_construction_errors_are_typed(self):
        with pytest.raises(PlanError):
            plan_from_wire({"analysis": "TempSweep", "temperatures_k": []})

    def test_montecarlo_policy_rejected_on_wire(self):
        # A policy belongs to the job, not to a plan: on a plan it is
        # an unknown field.
        with pytest.raises(PlanError, match="MonteCarlo has no field\\(s\\): policy"):
            plan_from_wire(
                {"analysis": "MonteCarlo", "inner": {"analysis": "OP"},
                 "trials": [[["R1", "resistance", 1e3]]], "policy": {"max_retries": 1}}
            )

    def test_bad_override_shape(self):
        with pytest.raises(PlanError, match="triples"):
            plan_from_wire({"analysis": "OP", "overrides": [["R1", 1e3]]})

    def test_nan_override_rejected(self):
        # json.loads reads a bare NaN literal: the plan must refuse it.
        wire = json.loads('{"analysis": "OP", "overrides": [["R1", "resistance", NaN]]}')
        with pytest.raises(PlanError, match=r"R1\.resistance must be finite"):
            plan_from_wire(wire)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"max_iterations": True}, "max_iterations must be an integer"),
            ({"max_iterations": 150.0}, "max_iterations must be an integer"),
            ({"abstol": True}, "abstol must be a number"),
            ({"abstol": None}, "abstol must be a number"),
        ],
        ids=["int-bool", "int-float", "real-bool", "real-null"],
    )
    def test_solver_option_types(self, options, message):
        with pytest.raises(PlanError, match=message):
            plan_from_wire({"analysis": "OP", "options": options})
        with pytest.raises(PlanError, match=message):
            plan_from_wire(
                {"analysis": "Transient", "t_stop": 1e-6, "options": {"newton": options}}
            )

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"dt_init": "1n"}, "dt_init must be a number or null"),
            ({"adaptive": 1}, "adaptive must be a boolean"),
            ({"max_steps": 1e5}, "max_steps must be an integer"),
            ({"method": None}, "method must be a string"),
            ({"newton": None}, "options must be an object"),
        ],
        ids=["optional-text", "bool-int", "int-float", "text-null", "newton-null"],
    )
    def test_transient_option_types(self, options, message):
        with pytest.raises(PlanError, match=message):
            plan_from_wire({"analysis": "Transient", "t_stop": 1e-6, "options": options})

    @pytest.mark.parametrize(
        "plan, name", list(OUT_OF_RANGE_PLANS.values()), ids=list(OUT_OF_RANGE_PLANS)
    )
    def test_out_of_range_options(self, plan, name):
        with pytest.raises(PlanError, match=f"invalid .*options: {name} must be"):
            plan_from_wire(plan)

    def test_policy_codec(self):
        policy = policy_from_wire({"max_retries": 2, "backoff_s": 0.5})
        assert policy.max_retries == 2
        assert policy.backoff_s == 0.5
        assert policy.on_failure == "record"
        assert policy_from_wire(None) is None
        with pytest.raises(PlanError, match="no field"):
            policy_from_wire({"on_failure": "raise"})
        with pytest.raises(PlanError, match="no field.*timeout_s"):
            policy_from_wire({"max_retries": 2, "timeout_s": 5.0})

    @pytest.mark.parametrize(
        "policy, message", list(REFUSED_POLICIES.values()), ids=list(REFUSED_POLICIES)
    )
    def test_mistyped_or_unbounded_policy_rejected(self, policy, message):
        with pytest.raises(PlanError, match=message):
            policy_from_wire(policy)

    def test_policy_at_the_bounds_accepted(self):
        # 20 s + 40 s of backoff is exactly the limit.
        policy = policy_from_wire({"max_retries": 2, "backoff_s": 20.0})
        assert (policy.max_retries, policy.backoff_s) == (2, 20.0)
        assert policy_from_wire({"max_retries": 10}).max_attempts == 11


class TestOptionsCacheKeyRegression:
    def _perturbed(self, spec, value):
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value * 2 + 1.0
        raise AssertionError(
            f"SolverOptions.{spec.name} has type {type(value).__name__}; "
            "teach this test how to perturb it so the cache-key lock "
            "keeps covering every field"
        )

    @pytest.mark.parametrize(
        "field_name", [spec.name for spec in dataclasses.fields(SolverOptions)]
    )
    def test_every_field_participates_in_the_cache_key(self, field_name):
        """Each field changes what a solve's answer must meet, so two
        solves differing ONLY in one must never share a solved point —
        locked here for every current and future SolverOptions field."""
        default = SolverOptions()
        spec = {s.name: s for s in dataclasses.fields(SolverOptions)}[field_name]
        perturbed = dataclasses.replace(
            default, **{field_name: self._perturbed(spec, getattr(default, field_name))}
        )
        assert _options_key(perturbed) != _options_key(default)

    def test_wire_decoded_options_key_matches_native(self):
        wire = {"max_iterations": 99, "gmin": 1e-13}
        plan = plan_from_wire({"analysis": "OP", "options": wire})
        native = SolverOptions(max_iterations=99, gmin=1e-13)
        assert _options_key(plan.options) == _options_key(native)

    def test_tuned_sessions_never_share_store_points(self, tmp_path):
        """End to end: a solved point stored under tuned options is not
        an exact hit for a default-options plan."""
        from repro.spice.parser import parse_netlist

        path = tmp_path / "op.jsonl"
        tuned = SolverOptions(max_iterations=99, abstol=1e-13)
        with Session(parse_netlist(NETLIST), store=CacheStore(path)) as session:
            session.run(OP(options=tuned))

        STATS.reset()
        default = Session(parse_netlist(NETLIST), store=CacheStore(path))
        assert len(default.cache) == 1
        default.run(OP())
        assert STATS.op_cache_hits == 0  # options key differs


class TestSessionPool:
    def test_identical_submissions_share_a_session(self):
        pool = SessionPool()
        first, _lock1 = pool.lease(NETLIST, "t")
        second, _lock2 = pool.lease(NETLIST, "t")
        assert first is second
        assert len(pool) == 1

    def test_distinct_texts_get_distinct_sessions(self):
        pool = SessionPool()
        first, _l1 = pool.lease(NETLIST, "t")
        second, _l2 = pool.lease(NETLIST + "R9 d 0 1k\n", "t")
        assert first is not second
        assert len(pool) == 2

    def test_eviction_is_lru_and_flushes(self, tmp_path):
        store = CacheStore(tmp_path / "op.jsonl")
        pool = SessionPool(store=store, limit=2)
        first, _l = pool.lease(NETLIST, "a")
        first.run(OP())
        pool.lease(NETLIST, "b")
        pool.lease(NETLIST, "a")  # refresh "a"
        pool.lease(NETLIST, "c")  # evicts "b" (least recent), not "a"
        assert len(pool) == 2
        refreshed, _l = pool.lease(NETLIST, "a")
        assert refreshed is first
        # Evicting "a" later must flush its solved point.
        pool.lease(NETLIST, "d")
        pool.lease(NETLIST, "e")
        assert len(store) == 1

    def test_rejects_non_positive_limit(self):
        with pytest.raises(ValueError):
            SessionPool(limit=0)


class TestJobService:
    def _service(self, tmp_path=None, **kwargs):
        return JobService(
            cache_dir=None if tmp_path is None else tmp_path, **kwargs
        )

    def _request(self, plan=None):
        return {
            "circuit": {"netlist": NETLIST, "title": "jobs"},
            "plan": plan or {"analysis": "OP", "record": ["d"]},
        }

    def test_submit_execute_result(self, tmp_path):
        service = self._service(tmp_path)
        try:
            job = service.submit(self._request())
            assert job.id == "j0001"
            assert service.drain(10.0)
            record = service.job(job.id)
            assert record.state == "done"
            assert record.attempts == 1
            assert 0.6 < record.result["voltages"]["d"] < 0.9
            assert STATS.serve_jobs_submitted == 1
            assert STATS.serve_jobs_completed == 1
        finally:
            service.stop()

    def test_validation_rejects_before_any_solve(self):
        service = self._service()
        try:
            with pytest.raises(PlanError):
                service.submit(self._request({"analysis": "OP", "record": ["nowhere"]}))
            assert STATS.newton_solves == 0
            assert STATS.serve_jobs_rejected == 1
            assert service.jobs() == []
        finally:
            service.stop()

    def _assert_rejected_at_submit(self, plan, match=None, policy=None):
        request = self._request(plan)
        if policy is not None:
            request["policy"] = policy
        service = self._service()
        try:
            with pytest.raises(PlanError, match=match):
                service.submit(request)
            assert STATS.serve_jobs_rejected == 1
            assert STATS.serve_jobs_submitted == 0
            assert service.jobs() == []
            assert service._queue.empty()
            assert STATS.newton_solves == 0
        finally:
            service.stop()

    @pytest.mark.parametrize(
        "plan", list(WRONG_TYPED_PLANS.values()), ids=list(WRONG_TYPED_PLANS)
    )
    def test_wrong_typed_fields_rejected_before_any_solve(self, plan):
        self._assert_rejected_at_submit(plan)

    @pytest.mark.parametrize(
        "options",
        list(UNKNOWN_SOLVER_OPTIONS.values()),
        ids=list(UNKNOWN_SOLVER_OPTIONS),
    )
    def test_unknown_solver_option_rejected_before_any_solve(self, options):
        self._assert_rejected_at_submit(
            {"analysis": "OP", "options": options}, match="unknown solver option"
        )

    @pytest.mark.parametrize(
        "options",
        list(UNKNOWN_TRANSIENT_OPTIONS.values()),
        ids=list(UNKNOWN_TRANSIENT_OPTIONS),
    )
    def test_unknown_transient_option_rejected_before_any_solve(self, options):
        self._assert_rejected_at_submit(
            {"analysis": "Transient", "t_stop": 1e-6, "options": options},
            match="unknown transient option",
        )

    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_non_growing_gain_ramp_rejected_before_any_solve(self, ratio):
        # A ratio <= 1 never reaches the final gain: accepted, the job
        # would hold its worker forever.  The ramp ratio is a solver
        # constant, so the wire refuses the name whatever its value.
        self._assert_rejected_at_submit(
            {"analysis": "OP", "options": {"gain_ramp_ratio": ratio}},
            match="gain_ramp_ratio",
        )

    @pytest.mark.parametrize(
        "plan, name", list(OUT_OF_RANGE_PLANS.values()), ids=list(OUT_OF_RANGE_PLANS)
    )
    def test_out_of_range_option_rejected_before_any_solve(self, plan, name):
        self._assert_rejected_at_submit(plan, match=name)

    @pytest.mark.parametrize(
        "policy, message", list(REFUSED_POLICIES.values()), ids=list(REFUSED_POLICIES)
    )
    def test_unbounded_policy_rejected_before_any_solve(self, policy, message):
        # Accepted, {"max_retries": 1, "backoff_s": 1e9} would hold the
        # only worker for about 31 years.
        self._assert_rejected_at_submit(None, match=message, policy=policy)

    def test_wire_timeout_rejected_before_any_solve(self):
        # RunPolicy has no deadline: a wire timeout_s is refused at
        # submit, before any solve.
        service = self._service()
        try:
            with pytest.raises(PlanError, match="timeout_s"):
                service.submit(
                    {
                        "circuit": {"netlist": bandgap_array(cells=60)},
                        "plan": {
                            "analysis": "TempSweep",
                            "temperatures_k": [233.15 + 10.0 * i for i in range(16)],
                        },
                        "policy": {"timeout_s": 0.05, "max_retries": 2},
                    }
                )
            assert STATS.serve_jobs_rejected == 1
            assert STATS.serve_jobs_submitted == 0
            assert service.jobs() == []
            assert service._queue.empty()
            assert STATS.newton_solves == 0
        finally:
            service.stop()

    def test_malformed_request_shapes(self):
        service = self._service()
        try:
            with pytest.raises(PlanError, match="job needs"):
                service.submit({"plan": {"analysis": "OP"}})
            with pytest.raises(PlanError, match="no field"):
                service.submit({**self._request(), "plans": []})
            with pytest.raises(PlanError, match="netlist"):
                service.submit({"circuit": {"netlist": ""}, "plan": {"analysis": "OP"}})
        finally:
            service.stop()

    def test_unknown_circuit_field_rejected_like_circuit_from_wire(self):
        # submit and circuit_from_wire share one shape check: a typo'd
        # circuit field is refused at the boundary, before any solve.
        request = {
            "circuit": {"netlist": NETLIST, "titel": "x"},
            "plan": {"analysis": "OP"},
        }
        with pytest.raises(PlanError, match="titel"):
            circuit_from_wire(request["circuit"])
        service = self._service()
        try:
            with pytest.raises(PlanError, match="titel"):
                service.submit(request)
            assert STATS.serve_jobs_rejected == 1
            assert STATS.newton_solves == 0
            assert service.jobs() == []
        finally:
            service.stop()

    @pytest.mark.parametrize(
        "circuit",
        [
            [NETLIST],
            NETLIST,
            {"title": "no netlist"},
            {"netlist": ""},
            {"netlist": "  \n"},
            {"netlist": 5},
        ],
        ids=["list", "bare-text", "missing", "empty", "blank", "not-text"],
    )
    def test_malformed_circuit_refused_with_circuit_from_wire_message(
        self, circuit
    ):
        # One shape check serves both entry points, so submit reports
        # exactly what circuit_from_wire reports, before any solve.
        with pytest.raises(PlanError) as from_wire:
            circuit_from_wire(circuit)
        service = self._service()
        try:
            with pytest.raises(PlanError) as submitted:
                service.submit({"circuit": circuit, "plan": {"analysis": "OP"}})
            assert str(submitted.value) == str(from_wire.value)
            assert STATS.serve_jobs_rejected == 1
            assert STATS.newton_solves == 0
            assert service.jobs() == []
        finally:
            service.stop()

    def test_failed_job_carries_outcome_attribution(self, monkeypatch):
        service = self._service()
        try:
            job = service.submit(self._request())

            def boom():
                raise RuntimeError("injected solver death")

            # Not a validation failure: the plan is valid, the run dies.
            monkeypatch.setattr(
                Session, "run", lambda self, plan: boom()
            )
            assert service.drain(10.0)
            record = service.job(job.id)
            assert record.state == "failed"
            assert record.error["error_type"] == "RuntimeError"
            assert "injected solver death" in record.error["error"]
            assert record.error["attempts"] == 1
            assert STATS.serve_jobs_failed == 1
        finally:
            service.stop()

    def test_job_policy_retries(self, monkeypatch):
        service = self._service()
        try:
            calls = {"n": 0}
            real_run = Session.run

            def flaky(self, plan):
                calls["n"] += 1
                if calls["n"] == 1:
                    from repro.errors import ConvergenceError

                    raise ConvergenceError("transient")
                return real_run(self, plan)

            monkeypatch.setattr(Session, "run", flaky)
            job = service.submit(
                {**self._request(), "policy": {"max_retries": 2, "backoff_s": 0.0}}
            )
            assert service.drain(10.0)
            record = service.job(job.id)
            assert record.state == "done"
            assert record.attempts == 2
            assert STATS.retries == 1
        finally:
            service.stop()

    def test_retry_backoff_leaves_the_session_free(self):
        # Job A fails its first attempt and sleeps a 2 s backoff before
        # the retry; job B runs on the same pooled session.  B's submit
        # validates under the session's lock, and the second worker runs
        # B under it: neither may wait out A's backoff.
        netlist = NETLIST + "C1 d 0 1n\n"
        backoff_s = 2.0
        service = self._service(workers=2)
        try:
            slow = service.submit(
                {
                    "circuit": {"netlist": netlist},
                    "plan": {
                        "analysis": "Transient",
                        "t_stop": 1e-6,
                        "options": {"max_steps": 1},
                    },
                    "policy": {"max_retries": 1, "backoff_s": backoff_s},
                }
            )
            deadline = time.monotonic() + 10.0
            while STATS.retries < 1:
                assert time.monotonic() < deadline, "job A never retried"
                time.sleep(0.005)
            retry_due = time.monotonic() + backoff_s
            quick = service.submit(
                {"circuit": {"netlist": netlist}, "plan": {"analysis": "OP"}}
            )
            assert time.monotonic() < retry_due - 0.5 * backoff_s
            while service.job(quick.id).state != "done":
                assert time.monotonic() < retry_due, "job B waited for A's retry"
                time.sleep(0.005)
            assert service.job(slow.id).state == "running"
            assert service.drain(10.0)
            record = service.job(slow.id)
            assert record.state == "failed"
            assert record.attempts == 2
        finally:
            service.stop()

    def test_write_through_store_flush(self, tmp_path):
        service = self._service(tmp_path)
        try:
            service.submit(self._request())
            assert service.drain(10.0)
            # Flushed on job completion, not only on shutdown.
            assert len(CacheStore(tmp_path / "opcache.jsonl")) == 1
        finally:
            service.stop()

    def test_failed_store_flush_fails_the_job_and_the_worker_keeps_going(
        self, tmp_path
    ):
        service = self._service(tmp_path, workers=1)
        try:
            def disk_full(exported):
                raise OSError(28, "No space left on device")

            service.store.absorb = disk_full
            jobs = [
                service.submit(self._request()),
                service.submit(
                    self._request({"analysis": "OP", "temperature_k": 310.15})
                ),
            ]
            assert service.drain(10.0)
            for job in jobs:
                # Solved, but the write-through promise was not kept.
                record = service.job(job.id)
                assert record.state == "failed"
                assert record.result is None
                assert record.error["error_type"] == "OSError"
                assert "No space left on device" in record.error["error"]
                assert record.attempts == 1
            assert STATS.serve_jobs_failed == 2
            assert STATS.serve_jobs_completed == 0

            del service.store.absorb  # the disk has room again
            job = service.submit(self._request())
            assert service.drain(10.0)
            assert service.job(job.id).state == "done"
            assert len(CacheStore(tmp_path / "opcache.jsonl")) == 2
        finally:
            service.stop()

    def test_stop_drains_queued_jobs(self, tmp_path):
        service = self._service(tmp_path)
        ids = [service.submit(self._request()).id for _ in range(3)]
        service.stop(drain=True)
        assert all(service.job(job_id).state == "done" for job_id in ids)
        with pytest.raises(PlanError, match="shutting down"):
            service.submit(self._request())

    def test_queued_and_running_jobs_are_never_evicted(self, monkeypatch):
        monkeypatch.setattr("repro.serve.jobs.MAX_FINISHED_JOBS", 2)
        release = threading.Event()
        real_run = Session.run

        def gated(self, plan):
            assert release.wait(10.0)
            return real_run(self, plan)

        monkeypatch.setattr(Session, "run", gated)
        service = self._service()
        try:
            ids = [service.submit(self._request()).id for _ in range(4)]
            deadline = time.monotonic() + 10.0
            while service.job(ids[0]).state != "running":
                assert time.monotonic() < deadline, "the first job never ran"
                time.sleep(0.005)
            # Four live jobs and a bound of two: none is finished, so
            # none is evicted.
            assert [job.id for job in service.jobs()] == ids
            assert service.counts() == {
                "queued": 3, "running": 1, "done": 0, "failed": 0
            }
            release.set()
            assert service.drain(10.0)
            # The third and fourth finishes evicted the first two.
            assert [job.id for job in service.jobs()] == ids[2:]
            assert service.counts() == {
                "queued": 0, "running": 0, "done": 2, "failed": 0
            }
            assert [service.evicted(job_id) for job_id in ids] == [
                True, True, False, False
            ]
            for never_issued in ("j0005", "j9999", "j1", "x0001", ""):
                assert not service.evicted(never_issued), never_issued
        finally:
            release.set()
            service.stop()
