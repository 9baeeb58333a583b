"""Tracer tests: span-tree schema on a real sweep, counter-delta
accounting, the zero-cost untraced path, and the pool-envelope
transport that makes fanned and serial runs report identical telemetry.

The span names and attribute keys asserted here are the STABLE CONTRACT
documented in ``repro/telemetry/__init__.py`` — if one of these tests
needs changing, the trace schema version must move too.
"""

import os

import pytest

from repro.parallel import supervised_map
from repro.resilience import RunPolicy
from repro.spice import (
    Circuit,
    Diode,
    OP,
    Resistor,
    Session,
    SolverOptions,
    TempSweep,
    VoltageSource,
)
from repro.spice.stats import STATS
from repro.telemetry import tracer as tracer_mod
from repro.telemetry.tracer import Tracer, tracing


@pytest.fixture(autouse=True)
def no_tracer_leaks():
    """Every test starts and must end with an empty tracer slot."""
    assert tracer_mod.ACTIVE is None
    yield
    tracer_mod.ACTIVE = None


def diode_circuit():
    c = Circuit("diode under drive")
    c.add(VoltageSource("V1", "in", "0", 5.0))
    c.add(Resistor("R1", "in", "d", 1e3))
    c.add(Diode("D1", "d", "0"))
    return c


def solve_op_then(fail):
    """Pool work: solve one OP, then return or raise (module-level, so
    it pickles)."""
    Session(diode_circuit).run(OP())
    if fail:
        raise ValueError("after the solve")
    return "solved"


def rc_circuit():
    c = Circuit("rc divider")
    c.add(VoltageSource("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "out", 1e3))
    c.add(Resistor("R2", "out", "0", 1e3))
    return c


def run_paired_plan(index):
    """Pool work: the diode TempSweep (0) or the RC OP (1), each on a
    fresh session (module-level, so it pickles)."""
    builder, plan = (
        (diode_circuit, TempSweep(temperatures_k=(280.0, 320.0))),
        (rc_circuit, OP()),
    )[index]
    Session(builder).run(plan)


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _forest(tracer):
    for root in tracer.roots:
        yield from _walk(root)


def _merge_counters(target, counters):
    for key, value in counters.items():
        if isinstance(value, dict):
            bucket = target.setdefault(key, {})
            for name, count in value.items():
                bucket[name] = bucket.get(name, 0) + count
        else:
            target[key] = target.get(key, 0) + value


class TestSpanSchema:
    def test_temp_sweep_full_trace_reconstructs_the_solve_tree(self):
        with tracing(detail="full") as tracer:
            Session(diode_circuit).run(
                TempSweep(temperatures_k=(280.0, 300.0, 320.0))
            )
        assert len(tracer.roots) == 1
        plan = tracer.roots[0]
        assert plan.name == "plan"
        assert plan.attrs["kind"] == "TempSweep"
        assert plan.duration_s >= 0.0

        solves = [child for child in plan.children if child.name == "solve"]
        assert len(solves) == 3
        assert sorted(span.attrs["temperature_k"] for span in solves) == [
            280.0,
            300.0,
            320.0,
        ]
        for solve in solves:
            assert solve.attrs["cache"] in ("hit", "warm", "miss", "seeded")
        # A fresh session: one cold anchor, then chained warm starts.
        assert [s.attrs["cache"] for s in solves].count("miss") == 1

        dc_solves = [span for span in _forest(tracer) if span.name == "dc_solve"]
        assert len(dc_solves) == 3
        for dc in dc_solves:
            assert dc.attrs["converged"] is True
            assert dc.attrs["strategy"] in (
                "newton",
                "gain-stepping",
                "gmin-stepping",
                "source-stepping",
            )

        newtons = [span for span in _forest(tracer) if span.name == "newton_solve"]
        assert newtons, "full detail must record newton_solve spans"
        for newton in newtons:
            assert "phase" in newton.attrs
            assert isinstance(newton.attrs["converged"], bool)
            if newton.attrs["converged"]:
                # The solver's count includes the final convergence
                # check, which takes no step and so writes no record.
                assert newton.attrs["iterations"] == len(newton.iterations) + 1
            for record in newton.iterations:
                assert record["kind"] in ("factor", "reuse")
                assert record["residual"] >= 0.0
                # The residual in tolerance units; no row's tolerance is
                # looser than vtol.
                assert record["scaled"] >= record["residual"] / SolverOptions().vtol
                assert record["step"] >= 0.0
                assert 0.0 < record["damping"] <= 1.0
            assert [r["i"] for r in newton.iterations] == sorted(
                r["i"] for r in newton.iterations
            )

        leaves = {span.name for span in _forest(tracer) if not span.children}
        assert "assembly" in leaves
        assert "factorization" in leaves
        for span in _forest(tracer):
            if span.name == "assembly":
                assert span.attrs == {}
            if span.name == "factorization":
                assert isinstance(span.attrs["sparse"], bool)

    def test_plans_detail_records_only_outer_scopes(self):
        with tracing(detail="plans") as tracer:
            Session(diode_circuit).run(TempSweep(temperatures_k=(280.0, 320.0)))
        names = {span.name for span in _forest(tracer)}
        assert names == {"plan", "solve"}
        assert all(not span.iterations for span in _forest(tracer))

    def test_cold_miss_explains_its_gates(self):
        with tracing(detail="full") as tracer:
            Session(diode_circuit).run(OP())
        solve = next(s for s in _forest(tracer) if s.name == "solve")
        assert solve.attrs["cache"] == "miss"
        assert solve.attrs["cache_gates"] == {"no_candidates": 0}

    def test_exact_revisit_is_a_hit_span(self):
        session = Session(diode_circuit)
        session.run(OP())
        with tracing(detail="full") as tracer:
            session.run(OP())
        solve = next(s for s in _forest(tracer) if s.name == "solve")
        assert solve.attrs["cache"] == "hit"
        # A served hit runs no Newton at all.
        assert solve.children == []

    def test_unknown_detail_rejected(self):
        with pytest.raises(ValueError, match="detail"):
            Tracer(detail="verbose")


class TestCounterDeltas:
    def test_root_deltas_equal_the_process_stats_movement(self):
        before = STATS.snapshot()
        with tracing(detail="full") as tracer:
            Session(diode_circuit).run(
                TempSweep(temperatures_k=(280.0, 300.0, 320.0))
            )
        moved = {
            key: value
            for key, value in STATS.delta_since(before).items()
            if value
        }
        total = {}
        for root in tracer.roots:
            _merge_counters(total, root.counters)
        assert total == moved
        assert total["newton_solves"] >= 3

    def test_sibling_deltas_sum_to_their_parent(self):
        with tracing(detail="full") as tracer:
            Session(diode_circuit).run(
                TempSweep(temperatures_k=(280.0, 300.0, 320.0))
            )
        plan = tracer.roots[0]
        from_children = {}
        for child in plan.children:
            _merge_counters(from_children, child.counters)
        # The only movement outside the solve children is the plan tally.
        _merge_counters(from_children, {"session_plans": 1})
        assert from_children == plan.counters

    def test_leaf_spans_carry_no_counters(self):
        with tracing(detail="full") as tracer:
            Session(diode_circuit).run(OP())
        for span in _forest(tracer):
            if span.name in ("assembly", "factorization"):
                assert span.counters == {}


class TestUntracedPathIsFree:
    def test_no_span_objects_and_no_clock_reads_without_a_tracer(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("untraced path touched the tracer")

        monkeypatch.setattr(tracer_mod, "Span", boom)
        monkeypatch.setattr(tracer_mod.time, "perf_counter", boom)
        before = STATS.snapshot()
        Session(diode_circuit).run(TempSweep(temperatures_k=(280.0, 320.0)))
        # The engine really ran — only the telemetry stayed silent.
        assert STATS.delta_since(before)["newton_solves"] >= 2


class TestWorkerMerge:
    def test_supervised_map_fanned_trace_equals_serial(self):
        # Full-detail worker spans, iteration records and counters
        # included, graft equal to the spans a serial map records.
        def normalize(exported):
            normalized = []
            for data in exported:
                attrs = {
                    k: v for k, v in data.get("attrs", {}).items()
                    if k != "worker_pid"
                }
                normalized.append(
                    {
                        "span": data["span"],
                        "attrs": attrs,
                        "counters": data.get("counters", {}),
                        "iterations": data.get("iterations", []),
                        "children": normalize(data.get("children", [])),
                    }
                )
            return normalized

        with tracing(detail="full") as serial:
            supervised_map(run_paired_plan, [0, 1], max_workers=None)
        with tracing(detail="full") as fanned:
            supervised_map(run_paired_plan, [0, 1], max_workers=2)
        assert normalize(fanned.export()) == normalize(serial.export())
        assert [span["span"] for span in serial.export()] == ["plan", "plan"]
        # The fanned spans really crossed the pool.
        assert all(
            span["attrs"]["worker_pid"] != os.getpid() for span in fanned.export()
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_ok_and_failed_attempts_report_counters_and_spans_once(self, workers):
        # Serially the attempts record straight into this process; fanned,
        # each worker attempt ships its STATS movement and spans home in
        # the pool envelope, the failed one included.  Either way every
        # plan is counted exactly once and both plan spans arrive, marked
        # with the worker pid only when they crossed the pool.
        before = STATS.snapshot()
        with tracing(detail="full") as tracer:
            outcomes = supervised_map(
                solve_op_then,
                [False, True],
                policy=RunPolicy(on_failure="record"),
                max_workers=workers,
            )
        assert [o.status for o in outcomes] == ["ok", "failed"]
        assert STATS.delta_since(before)["session_plans"] == 2
        plans = [span for span in _forest(tracer) if span.name == "plan"]
        assert len(plans) == 2
        for span, outcome in zip(plans, outcomes):
            if workers is None:
                assert "worker_pid" not in span.attrs
            else:
                assert span.attrs["worker_pid"] == outcome.worker_pid
                assert outcome.worker_pid != os.getpid()

    def test_capture_restores_the_previous_tracer(self):
        with tracing(detail="plans") as outer:
            with tracing(detail="full") as inner:
                assert tracer_mod.ACTIVE is inner
            assert tracer_mod.ACTIVE is outer
        assert tracer_mod.ACTIVE is None

    def test_graft_marks_worker_pid_and_preserves_structure(self):
        with tracing(detail="full") as donor:
            Session(diode_circuit).run(OP())
        exported = donor.export()
        receiver = Tracer(detail="full")
        receiver.graft(exported, worker_pid=4242)
        assert receiver.roots[0].attrs["worker_pid"] == 4242
        assert receiver.span_count() == donor.span_count()
        # Re-export round-trips (worker_pid aside).
        regrafted = receiver.export()
        del regrafted[0]["attrs"]["worker_pid"]
        assert regrafted == exported
