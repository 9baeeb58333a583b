"""Tests for the job execution layer: wire codec, session pool, service.

* **wire codec** — every plan type round-trips ``plan_to_wire`` ->
  ``plan_from_wire`` to an equal plan (including nested MonteCarlo
  inners and solver/transient options, with JSON's list-vs-tuple
  mismatch normalized away); every malformed shape raises a typed
  ``PlanError`` naming the problem.
* **options cache keys** — the regression lock for the solved-point
  cache key: EVERY ``SolverOptions`` field participates in
  ``_options_key``, including the sparse-tuning knobs
  (``sparse_reuse_limit``/``sparse_reuse_contraction``/
  ``sparse_permc``), and wire-decoded options produce byte-identical
  keys to natively constructed ones.
* **session pool** — textually identical submissions share a session;
  the pool is LRU-bounded and flushes evicted sessions to the store.
* **job service** — submit validates before any solve, workers execute
  under the job policy with Outcome-style failure attribution, and the
  serve counters move.
"""

import dataclasses

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
            Transient(t_stop=1e-6, options=TransientOptions(dt_init=1e-9)),
            MonteCarlo(inner=OP(), trials=((("R1", "resistance", 1.1e3),),)),
            OP(options=SolverOptions(max_iterations=99)),
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

    def test_unknown_solver_option(self):
        with pytest.raises(PlanError, match="unknown solver option"):
            plan_from_wire({"analysis": "OP", "options": {"abstol2": 1e-9}})

    def test_plan_construction_errors_are_typed(self):
        with pytest.raises(PlanError):
            plan_from_wire({"analysis": "TempSweep", "temperatures_k": []})

    def test_montecarlo_policy_rejected_on_wire(self):
        with pytest.raises(PlanError, match="job-level"):
            plan_from_wire(
                {"analysis": "MonteCarlo", "inner": {"analysis": "OP"},
                 "trials": [[["R1", "resistance", 1e3]]], "policy": {"max_retries": 1}}
            )

    def test_bad_override_shape(self):
        with pytest.raises(PlanError, match="triples"):
            plan_from_wire({"analysis": "OP", "overrides": [["R1", 1e3]]})

    def test_policy_codec(self):
        policy = policy_from_wire({"max_retries": 2, "timeout_s": 5.0})
        assert policy.max_retries == 2
        assert policy.timeout_s == 5.0
        assert policy.on_failure == "record"
        assert policy_from_wire(None) is None
        with pytest.raises(PlanError, match="no field"):
            policy_from_wire({"on_failure": "raise"})


class TestOptionsCacheKeyRegression:
    def _perturbed(self, spec, value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value * 2 + 1.0
        if isinstance(value, str):
            return "NATURAL" if value != "NATURAL" else "COLAMD"
        if isinstance(value, tuple):
            return value + (value[-1] / 2,)
        raise AssertionError(
            f"SolverOptions.{spec.name} has type {type(value).__name__}; "
            "teach this test how to perturb it so the cache-key lock "
            "keeps covering every field"
        )

    @pytest.mark.parametrize(
        "field_name", [spec.name for spec in dataclasses.fields(SolverOptions)]
    )
    def test_every_field_participates_in_the_cache_key(self, field_name):
        """The sparse-tuning knobs (sparse_reuse_limit & co.) steer the
        NewtonWorkspace reuse policy, so two sessions differing ONLY in
        them must never share a solved point — locked here for every
        current and future SolverOptions field."""
        default = SolverOptions()
        spec = {s.name: s for s in dataclasses.fields(SolverOptions)}[field_name]
        perturbed = dataclasses.replace(
            default, **{field_name: self._perturbed(spec, getattr(default, field_name))}
        )
        assert _options_key(perturbed) != _options_key(default)

    def test_sparse_knobs_named_in_issue(self):
        default = SolverOptions()
        for kwargs in (
            {"sparse_reuse_limit": 32},
            {"sparse_reuse_contraction": 0.2},
            {"sparse_permc": "NATURAL"},
        ):
            tuned = dataclasses.replace(default, **kwargs)
            assert _options_key(tuned) != _options_key(default)

    def test_wire_decoded_options_key_matches_native(self):
        wire = {"gmin_ladder": [1e-3, 1e-6], "sparse_reuse_limit": 8}
        plan = plan_from_wire({"analysis": "OP", "options": wire})
        native = SolverOptions(gmin_ladder=(1e-3, 1e-6), sparse_reuse_limit=8)
        assert _options_key(plan.options) == _options_key(native)

    def test_tuned_sessions_never_share_store_points(self, tmp_path):
        """End to end: a solved point stored under tuned sparse knobs is
        not an exact hit for the default-options session."""
        from repro.spice.parser import parse_netlist

        path = tmp_path / "op.jsonl"
        tuned = SolverOptions(sparse_reuse_limit=32, sparse_permc="NATURAL")
        with Session(
            parse_netlist(NETLIST), options=tuned, store=CacheStore(path)
        ) as session:
            session.run(OP())

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
                Session, "run", lambda self, plan, x0=None: boom()
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

            def flaky(self, plan, x0=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    from repro.errors import ConvergenceError

                    raise ConvergenceError("transient")
                return real_run(self, plan, x0)

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

    def test_write_through_store_flush(self, tmp_path):
        service = self._service(tmp_path)
        try:
            service.submit(self._request())
            assert service.drain(10.0)
            # Flushed on job completion, not only on shutdown.
            assert len(CacheStore(tmp_path / "opcache.jsonl")) == 1
        finally:
            service.stop()

    def test_stop_drains_queued_jobs(self, tmp_path):
        service = self._service(tmp_path)
        ids = [service.submit(self._request()).id for _ in range(3)]
        service.stop(drain=True)
        assert all(service.job(job_id).state == "done" for job_id in ids)
        with pytest.raises(PlanError, match="shutting down"):
            service.submit(self._request())
