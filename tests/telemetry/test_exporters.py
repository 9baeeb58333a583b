"""Exporter tests: golden JSONL and Prometheus outputs (deterministic
via an injected fake clock and hand-built stats), round-trip reads, the
summary tree, and the ``--bench`` trace digest."""

import json
from dataclasses import fields

import pytest

from repro.spice.stats import SolverStats
from repro.telemetry.exporters import (
    METRIC_PREFIX,
    TRACE_SCHEMA,
    prometheus_text,
    read_jsonl,
    summary_tree,
    trace_rows,
    trace_summary,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.tracer import Span, Tracer


def fake_clock():
    """A deterministic clock ticking 0.0, 1.0, 2.0, ... per read."""
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def tiny_trace() -> Tracer:
    """plan(t=0..5) > solve(t=1..4) > assembly leaf (t=2..3)."""
    tracer = Tracer(detail="full", clock=fake_clock())
    plan = tracer.begin("plan", kind="OP")
    solve = tracer.begin("solve", temperature_k=300.15)
    t0 = tracer.clock()
    tracer.leaf("assembly", t0, path="compiled")
    tracer.end(solve)
    tracer.end(plan)
    return tracer


class TestJsonlGolden:
    def test_exact_file_contents(self, tmp_path):
        path = write_jsonl(tiny_trace(), tmp_path / "trace.jsonl")
        expected = [
            json.dumps({"schema": TRACE_SCHEMA, "spans": 3}),
            json.dumps(
                {
                    "attrs": {"kind": "OP"},
                    "dur_s": 5.0,
                    "id": 0,
                    "parent": None,
                    "span": "plan",
                    "t_start_s": 0.0,
                },
                sort_keys=True,
            ),
            json.dumps(
                {
                    "attrs": {"temperature_k": 300.15},
                    "dur_s": 3.0,
                    "id": 1,
                    "parent": 0,
                    "span": "solve",
                    "t_start_s": 1.0,
                },
                sort_keys=True,
            ),
            json.dumps(
                {
                    "attrs": {"path": "compiled"},
                    "dur_s": 1.0,
                    "id": 2,
                    "parent": 1,
                    "span": "assembly",
                    "t_start_s": 2.0,
                },
                sort_keys=True,
            ),
        ]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_read_round_trips_the_rows(self, tmp_path):
        tracer = tiny_trace()
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        assert read_jsonl(path) == trace_rows(tracer)

    def test_read_rejects_a_foreign_schema(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"schema": "someone-else/9"}) + "\n")
        with pytest.raises(ValueError, match=TRACE_SCHEMA):
            read_jsonl(path)

    def test_rows_are_depth_first_with_parent_ids(self):
        rows = trace_rows(tiny_trace())
        assert [row["span"] for row in rows] == ["plan", "solve", "assembly"]
        assert [row["parent"] for row in rows] == [None, 0, 1]
        # A child always follows its parent, so one streaming pass can
        # rebuild the tree.
        for row in rows:
            assert row["parent"] is None or row["parent"] < row["id"]

    def test_counters_and_iterations_survive_the_flattening(self):
        span = Span("newton_solve", 0.0, {"phase": "plain"})
        span.t_end = 1.0
        span.counters = {"iterations": 4}
        span.iterations = [
            {"i": 1, "residual": 0.5, "step": 1.0, "damping": 1.0, "kind": "factor"}
        ]
        (row,) = trace_rows([span])
        assert row["counters"] == {"iterations": 4}
        assert row["iterations"][0]["kind"] == "factor"


class TestPrometheusGolden:
    def test_every_scalar_field_exports_with_help_and_type(self):
        stats = SolverStats()
        for position, spec in enumerate(fields(stats)):
            if spec.name == "strategies":
                stats.strategies = {"gain-stepping": 2, "newton": 41}
            else:
                setattr(stats, spec.name, 100 + position)
        text = prometheus_text(stats)
        lines = text.splitlines()
        for spec in fields(stats):
            if spec.name == "strategies":
                continue
            metric = f"{METRIC_PREFIX}_{spec.name}_total"
            sample = f"{metric} {getattr(stats, spec.name)}"
            assert sample in lines
            index = lines.index(sample)
            assert lines[index - 2].startswith(f"# HELP {metric} ")
            assert lines[index - 1] == f"# TYPE {metric} counter"

    def test_every_scalar_field_has_its_own_help_text(self):
        # The exporter falls back to a generic "Solver counter <name>."
        # line; every counter should say what it counts instead.
        from repro.telemetry.exporters import _METRIC_HELP

        scalar = {spec.name for spec in fields(SolverStats)} - {"strategies"}
        assert sorted(scalar - set(_METRIC_HELP)) == []

    def test_strategies_export_as_a_sorted_labelled_family(self):
        stats = SolverStats()
        stats.strategies = {"newton": 41, "gain-stepping": 2}
        lines = prometheus_text(stats).splitlines()
        family = [l for l in lines if l.startswith("repro_dc_strategies_total{")]
        assert family == [
            'repro_dc_strategies_total{strategy="gain-stepping"} 2',
            'repro_dc_strategies_total{strategy="newton"} 41',
        ]

    def test_accepts_a_plain_snapshot_dict(self):
        stats = SolverStats()
        stats.iterations = 9
        assert prometheus_text(stats.as_dict()) == prometheus_text(stats)

    def test_write_prometheus_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "metrics.prom"
        path = write_prometheus(target, SolverStats())
        assert path == target
        assert "repro_newton_solves_total 0" in target.read_text()

    def test_text_ends_with_a_newline(self):
        # The Prometheus exposition format requires a trailing newline.
        assert prometheus_text(SolverStats()).endswith("\n")

    def test_build_info_gauge_leads_the_exposition(self):
        info = {"git_sha": "abc123", "numpy": "2.0.0", "cpus": 4}
        lines = prometheus_text(SolverStats(), build_info=info).splitlines()
        assert lines[1] == "# TYPE repro_build_info gauge"
        assert lines[2] == (
            'repro_build_info{cpus="4",git_sha="abc123",numpy="2.0.0"} 1'
        )
        # Omitted entirely when no provenance is passed (goldens above).
        assert "repro_build_info" not in prometheus_text(SolverStats())

    def test_build_info_labels_are_escaped(self):
        info = {"weird": 'a"b\\c'}
        text = prometheus_text(SolverStats(), build_info=info)
        assert 'weird="a\\"b\\\\c"' in text

    def test_write_prometheus_passes_build_info_through(self, tmp_path):
        target = tmp_path / "metrics.prom"
        write_prometheus(target, SolverStats(), build_info={"git_sha": "xyz"})
        assert 'repro_build_info{git_sha="xyz"} 1' in target.read_text()


class TestSummaryTree:
    def test_tree_shape_and_durations(self):
        tree = summary_tree(tiny_trace())
        lines = tree.splitlines()
        assert lines[0] == "plan [kind=OP] (5000.00 ms)"
        assert lines[1] == "└─ solve [temperature_k=300.15] (3000.00 ms)"
        assert lines[2] == "   └─ assembly (1000.00 ms)"

    def test_iteration_counts_are_shown(self):
        span = Span("newton_solve", 0.0, {"converged": True})
        span.t_end = 0.5
        span.iterations = [{"i": 1}, {"i": 2}]
        assert "2 iterations" in summary_tree([span])


class TestTraceSummary:
    def test_digest_of_root_spans(self):
        tracer = tiny_trace()
        tracer.roots[0].counters = {"iterations": 6, "session_plans": 1}
        digest = trace_summary(tracer)
        assert digest["spans"] == 3
        (root,) = digest["roots"]
        assert root["span"] == "plan"
        assert root["kind"] == "OP"
        assert root["wall_s"] == 5.0
        assert root["counters"] == {"iterations": 6, "session_plans": 1}

    def test_digest_is_json_serialisable(self):
        digest = trace_summary(tiny_trace())
        assert json.loads(json.dumps(digest)) == digest

    def test_accepts_a_span_list(self):
        tracer = tiny_trace()
        assert trace_summary(tracer.roots)["spans"] == 3
