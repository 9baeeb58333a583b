"""Baseline resolution and gate-classification tests."""

from datetime import datetime, timezone

import pytest

from repro.benchreg import compare, schema
from repro.benchreg.record import make_entry
from repro.errors import BenchRegError

CLOCK = datetime(2026, 7, 28, tzinfo=timezone.utc).timestamp()


def host(tag):
    return {"machine": "x86_64", "python": "3.12.0", "numpy": "2.0.0",
            "scipy": "1.14.0", "cpus": 4, "platform": f"OS-{tag}",
            "fingerprint": f"host-{tag}"}


def entry(entry_id, host_tag="A", label="", date_offset=0, rows=None):
    return make_entry(
        rows if rows is not None else [base_row()],
        entry_id=entry_id,
        label=label,
        clock=lambda: CLOCK + date_offset * 86400,
        host=host(host_tag),
        sha=f"sha-{entry_id}",
    )


def base_row(**overrides):
    row = {
        "experiment": "demo",
        "wall_s": 1.0,
        "factorizations": 100,
        "newton_solves": 10,
        "op_cache_hits": 2,
        "op_cache_warm_starts": 1,
        "iterations": 300,
        "strategies": {"newton": 3, "gain-stepping": 1},
    }
    row.update(overrides)
    return row


def index_of(*entries):
    return {"schema": schema.INDEX_SCHEMA, "entries": list(entries)}


class TestBaselineResolution:
    def test_empty_index_raises(self):
        with pytest.raises(BenchRegError, match="index is empty"):
            compare.resolve_baseline(index_of(), host=host("A"))

    def test_latest_same_host_preferred(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "B"),
                       entry("c0003", "A"), entry("c0004", "B"))
        chosen, how = compare.resolve_baseline(idx, host=host("A"))
        assert chosen["id"] == "c0003"
        assert "same-host" in how

    def test_no_same_host_falls_back_to_latest_with_loud_note(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "B"))
        chosen, how = compare.resolve_baseline(idx, host=host("C"))
        assert chosen["id"] == "c0002"
        assert "NO same-host entry" in how

    def test_explicit_ref_by_id_label_and_date(self):
        idx = index_of(entry("c0001", "A", label="pr4"),
                       entry("c0002", "B", date_offset=1))
        assert compare.resolve_baseline(idx, ref="c0001")[0]["id"] == "c0001"
        assert compare.resolve_baseline(idx, ref="pr4")[0]["id"] == "c0001"
        by_date, _ = compare.resolve_baseline(idx, ref="2026-07-29")
        assert by_date["id"] == "c0002"

    def test_explicit_ref_latest_ignores_host(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "B"))
        chosen, how = compare.resolve_baseline(idx, ref="latest", host=host("A"))
        assert chosen["id"] == "c0002"
        assert "latest" in how

    def test_date_ref_picks_latest_matching_entry(self):
        idx = index_of(entry("c0001", "A"), entry("c0002", "A"))
        chosen, _ = compare.resolve_baseline(idx, ref="2026-07-28")
        assert chosen["id"] == "c0002"

    def test_unknown_ref_raises_with_known_ids(self):
        idx = index_of(entry("c0001"))
        with pytest.raises(BenchRegError, match="known ids: c0001"):
            compare.resolve_baseline(idx, ref="c9999")


class TestClassify:
    def test_counter_exact(self):
        assert compare.classify(10, 10, "lower", 0.0) == "stable"
        assert compare.classify(10, 11, "lower", 0.0) == "regressed"
        assert compare.classify(10, 9, "lower", 0.0) == "improved"

    def test_higher_is_better_flips_direction(self):
        assert compare.classify(10, 11, "higher", 0.0) == "improved"
        assert compare.classify(10, 9, "higher", 0.0) == "regressed"

    def test_wall_band_is_relative(self):
        assert compare.classify(1.0, 1.2, "lower", 0.25) == "stable"
        assert compare.classify(1.0, 0.8, "lower", 0.25) == "stable"
        assert compare.classify(1.0, 1.3, "lower", 0.25) == "regressed"
        assert compare.classify(1.0, 0.7, "lower", 0.25) == "improved"

    def test_missing_baseline_is_new_metric(self):
        assert compare.classify(None, 5, "lower", 0.0) == "new-metric"


class TestGate:
    def test_identical_run_passes_all_stable(self):
        comparison = compare.compare_rows(entry("c0001"), [base_row()])
        assert comparison.ok
        counts = comparison.counts()
        assert counts["regressed"] == 0 and counts["new-metric"] == 0
        assert counts["stable"] == len(comparison.deltas)

    def test_counter_up_fails_the_gate_naming_the_metric(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(factorizations=200)]
        )
        assert not comparison.ok
        failures = comparison.hard_failures
        assert [f.metric for f in failures] == ["factorizations"]
        text = compare.render_check(comparison)
        assert "FAIL" in text
        assert "demo.factorizations" in text
        assert "100 -> 200" in text

    def test_cache_hit_drop_fails_higher_is_better_gate(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(op_cache_hits=0)]
        )
        assert [f.metric for f in comparison.hard_failures] == ["op_cache_hits"]

    def test_ladder_rung_appearing_fails(self):
        comparison = compare.compare_rows(
            entry("c0001"),
            [base_row(strategies={"newton": 3, "gain-stepping": 2})],
        )
        assert [f.metric for f in comparison.hard_failures] == [
            "strategies.gain-stepping"
        ]

    def test_wall_drift_within_band_is_stable(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(wall_s=1.2)], tolerance=0.25
        )
        assert comparison.ok
        wall = [d for d in comparison.deltas if d.metric == "wall_s"][0]
        assert wall.status == "stable" and wall.severity == "advisory"

    def test_wall_blowup_is_advisory_only_never_fatal(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(wall_s=10.0)], tolerance=0.25
        )
        assert comparison.ok  # advisory regressions never gate
        wall = [d for d in comparison.deltas if d.metric == "wall_s"][0]
        assert wall.status == "regressed"
        text = compare.render_check(comparison)
        assert "advisory" in text and "PASS" in text

    def test_info_counter_regression_does_not_gate(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(iterations=999)]
        )
        assert comparison.ok
        delta = [d for d in comparison.deltas if d.metric == "iterations"][0]
        assert delta.status == "regressed" and delta.severity == "info"

    def test_counter_improvement_reported(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(newton_solves=5)]
        )
        assert comparison.ok
        assert "improved" in compare.render_check(comparison)

    def test_new_metric_never_fails_schema_growth(self):
        comparison = compare.compare_rows(
            entry("c0001"), [base_row(op_cache_misses=7, retries=0)]
        )
        assert comparison.ok
        new = {d.metric for d in comparison.deltas if d.status == "new-metric"}
        assert "op_cache_misses" in new and "retries" in new

    def test_new_experiment_is_all_new_metrics(self):
        comparison = compare.compare_rows(
            entry("c0001"), [dict(base_row(), experiment="fresh")]
        )
        assert comparison.ok
        assert all(d.status == "new-metric" for d in comparison.deltas)

    def test_partial_run_lists_uncompared_experiments(self):
        two = entry(
            "c0001",
            rows=[base_row(), dict(base_row(), experiment="other")],
        )
        comparison = compare.compare_rows(two, [base_row()])
        assert comparison.uncompared == ["other"]
        assert "other not in this run" in compare.render_check(comparison)

    def test_alternate_baseline_legs_ignored(self):
        legs = entry(
            "c0001",
            rows=[
                dict(base_row(), leg="default"),
                dict(base_row(factorizations=9999),
                     leg="grouped-forced (REPRO_GROUP_MIN=1)"),
            ],
        )
        comparison = compare.compare_rows(legs, [base_row()])
        assert comparison.ok

    def test_check_against_index_end_to_end(self):
        idx = index_of(entry("c0001", "B"), entry("c0002", "A"))
        comparison = compare.check_against_index(
            idx, [base_row(factorizations=150)], host=host("A")
        )
        assert comparison.baseline_id == "c0002"
        assert not comparison.ok

    def test_delta_as_dict_round_trip(self):
        comparison = compare.compare_rows(entry("c0001"), [base_row()])
        row = comparison.deltas[0].as_dict()
        assert set(row) == {"experiment", "metric", "severity", "direction",
                            "baseline", "candidate", "status"}


def planned_row(op_factorizations, sweep_factorizations, kinds=("OP", "TempSweep")):
    """A demo row whose two plans split its factorizations."""
    counters = (
        {"factorizations": op_factorizations, "newton_solves": 8,
         "strategies": {"gain-stepping": 1}},
        {"factorizations": sweep_factorizations, "newton_solves": 2,
         "strategies": {"newton": 2}},
    )
    roots = [
        {"span": "plan", "kind": kind, "wall_s": 0.01, "counters": plan}
        for kind, plan in zip(kinds, counters)
    ]
    return base_row(trace_summary={"spans": 9, "roots": roots})


class TestPerPlanGates:
    def test_equal_totals_hide_no_plan_regression(self):
        # The same 100 factorizations in total, moved from the sweep to
        # the OP: the totals gate passes, the OP plan's gate fails.
        comparison = compare.compare_rows(
            entry("c0001", rows=[planned_row(60, 40)]), [planned_row(70, 30)]
        )
        assert not comparison.ok
        assert [(f.experiment, f.metric) for f in comparison.hard_failures] == [
            ("demo", "plan[0:OP].factorizations")
        ]
        improved = [d.metric for d in comparison.deltas if d.status == "improved"]
        assert improved == ["plan[1:TempSweep].factorizations"]
        text = compare.render_check(comparison)
        assert "FAIL" in text and "demo.plan[0:OP].factorizations" in text
        assert "60 -> 70" in text

    def test_a_gate_a_plan_starts_moving_counts_from_zero(self):
        baseline = planned_row(60, 40)
        candidate = planned_row(60, 40)
        candidate["trace_summary"]["roots"][1]["counters"]["newton_failures"] = 1
        comparison = compare.compare_rows(entry("c0001", rows=[baseline]), [candidate])
        (failure,) = comparison.hard_failures
        assert failure.metric == "plan[1:TempSweep].newton_failures"
        assert (failure.baseline, failure.candidate) == (0, 1)

    def test_only_hard_gated_counters_are_gated_per_plan(self):
        comparison = compare.compare_rows(
            entry("c0001", rows=[planned_row(60, 40)]), [planned_row(60, 40)]
        )
        assert comparison.ok
        per_plan = {d.metric for d in comparison.deltas if d.metric.startswith("plan[")}
        assert per_plan == {
            "plan[0:OP].factorizations",
            "plan[0:OP].newton_solves",
            "plan[0:OP].strategies.gain-stepping",
            "plan[1:TempSweep].factorizations",
            "plan[1:TempSweep].newton_solves",
        }

    @pytest.mark.parametrize(
        "kinds", [("OP", "ACSweep"), ("OP",)], ids=["kinds-differ", "list-differs"]
    )
    def test_a_different_plan_list_is_new_metric(self, kinds):
        candidate = planned_row(90, 10, kinds=kinds)
        candidate["trace_summary"]["roots"] = candidate["trace_summary"]["roots"][
            : len(kinds)
        ]
        comparison = compare.compare_rows(
            entry("c0001", rows=[planned_row(60, 40)]), [candidate]
        )
        assert comparison.ok
        per_plan = [d for d in comparison.deltas if d.metric.startswith("plan[")]
        assert per_plan and all(d.status == "new-metric" for d in per_plan)
