"""Schema round-trip, validation, and metric-flattening tests, plus the
provenance of the committed ``benchmarks/index.json``."""

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.benchreg import schema
from repro.benchreg.record import make_entry, record_campaign
from repro.errors import BenchRegError

CLOCK = datetime(2026, 7, 28, tzinfo=timezone.utc).timestamp()

BENCHMARKS_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def fake_host(tag="A"):
    return {
        "machine": "x86_64",
        "python": "3.12.0",
        "numpy": "2.0.0",
        "scipy": "1.14.0",
        "cpus": 4,
        "platform": f"TestOS-{tag}",
        "fingerprint": f"test-host-{tag}",
    }


def demo_rows():
    return [
        {
            "experiment": "demo",
            "wall_s": 0.25,
            "factorizations": 100,
            "newton_solves": 10,
            "lu_reuses": 40,
            "strategies": {"newton": 2, "gain-stepping": 1},
            "trace_summary": {"spans": 3, "roots": []},
        }
    ]


class TestRoundTrip:
    def test_record_save_load_round_trip(self, tmp_path):
        path = tmp_path / "index.json"
        entry = record_campaign(
            path,
            demo_rows(),
            command="demo cmd",
            label="seed",
            pr=8,
            clock=lambda: CLOCK,
            host=fake_host(),
            sha="abc123",
        )
        assert entry["id"] == "c0001"
        assert entry["date"] == "2026-07-28"
        assert entry["recorded_at"] == "2026-07-28T00:00:00Z"
        assert entry["git_sha"] == "abc123"
        loaded = schema.load_index(path)
        assert loaded["schema"] == schema.INDEX_SCHEMA
        assert loaded["entries"] == [entry]
        # A second record appends (never rewrites) with the next id.
        record_campaign(path, demo_rows(), clock=lambda: CLOCK + 86400,
                        host=fake_host(), sha="def456")
        loaded = schema.load_index(path)
        assert [e["id"] for e in loaded["entries"]] == ["c0001", "c0002"]
        assert loaded["entries"][1]["date"] == "2026-07-29"

    def test_rows_recorded_verbatim_with_trace_summary(self, tmp_path):
        path = tmp_path / "index.json"
        entry = record_campaign(path, demo_rows(), clock=lambda: CLOCK,
                                host=fake_host(), sha="abc")
        assert entry["rows"][0]["trace_summary"] == {"spans": 3, "roots": []}
        assert entry["rows"][0]["strategies"] == {"newton": 2, "gain-stepping": 1}

    def test_save_is_stable_and_pretty(self, tmp_path):
        path = tmp_path / "index.json"
        record_campaign(path, demo_rows(), clock=lambda: CLOCK,
                        host=fake_host(), sha="abc")
        first = path.read_text()
        # Round-tripping through load/save is byte-stable (committed file).
        schema.save_index(schema.load_index(path), path)
        assert path.read_text() == first
        assert first.endswith("\n")

    def test_next_entry_id_survives_pruned_entries(self):
        index = schema.new_index()
        assert schema.next_entry_id(index) == "c0001"
        index["entries"].append(
            make_entry(demo_rows(), entry_id="c0007", clock=lambda: CLOCK,
                       host=fake_host(), sha="abc")
        )
        assert schema.next_entry_id(index) == "c0008"


class TestValidation:
    def test_empty_record_refused(self, tmp_path):
        with pytest.raises(BenchRegError, match="empty campaign"):
            record_campaign(tmp_path / "index.json", [])

    def test_missing_index_raises(self, tmp_path):
        with pytest.raises(BenchRegError, match="no campaign index"):
            schema.load_index(tmp_path / "nope.json")

    def test_non_json_index_raises(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("not json {")
        with pytest.raises(BenchRegError, match="not valid JSON"):
            schema.load_index(path)

    def test_wrong_schema_tag_raises(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps({"schema": "other/9", "entries": []}))
        with pytest.raises(BenchRegError, match="repro-bench-index/1"):
            schema.load_index(path)

    def test_entry_shape_checks(self):
        with pytest.raises(BenchRegError, match="missing required key"):
            schema.validate_entry({"id": "c0001"})
        with pytest.raises(BenchRegError, match="fingerprint"):
            schema.validate_entry(
                {"id": "c1", "date": "d", "host": {}, "rows": []}
            )
        with pytest.raises(BenchRegError, match="experiment"):
            schema.validate_entry(
                {"id": "c1", "date": "d", "host": {"fingerprint": "f"},
                 "rows": [{"wall_s": 1}]}
            )

    def test_duplicate_ids_rejected(self):
        entry = make_entry(demo_rows(), entry_id="c0001", clock=lambda: CLOCK,
                           host=fake_host(), sha="abc")
        index = {"schema": schema.INDEX_SCHEMA, "entries": [entry, dict(entry)]}
        with pytest.raises(BenchRegError, match="duplicate entry id"):
            schema.validate_index(index)


class TestMetrics:
    def test_flatten_skips_identity_and_digest_keys(self):
        flat = schema.flatten_metrics(demo_rows()[0])
        assert "experiment" not in flat and "trace_summary" not in flat
        assert flat["factorizations"] == 100
        assert flat["strategies.newton"] == 2
        assert flat["strategies.gain-stepping"] == 1
        assert flat["wall_s"] == 0.25

    def test_gate_table_severities(self):
        assert schema.metric_severity("factorizations") == "hard"
        assert schema.metric_severity("strategies.gain-stepping") == "hard"
        assert schema.metric_severity("wall_s") == "advisory"
        assert schema.metric_severity("iterations") == "info"
        assert schema.metric_direction("op_cache_hits") == "higher"
        assert schema.metric_direction("op_cache_misses") == "lower"
        assert schema.metric_direction("lu_reuses") == "higher"
        assert schema.metric_direction("wall_s") == "lower"

    def test_every_hard_gate_is_lower_or_higher(self):
        for metric, direction in schema.HARD_GATES.items():
            assert direction in ("lower", "higher"), metric


class TestProvenance:
    def test_host_fingerprint_shape(self):
        info = schema.host_fingerprint()
        for key in ("machine", "python", "numpy", "scipy", "cpus", "fingerprint"):
            assert key in info
        # The fingerprint excludes the kernel build (platform churn must
        # not break same-host baseline resolution).
        assert info["platform"] not in info["fingerprint"]
        assert f"cpus={info['cpus']}" in info["fingerprint"]

    def test_git_sha_in_repo_and_outside(self, tmp_path):
        assert schema.git_sha() != ""  # repo: a real sha; never empty
        assert schema.git_sha(cwd=tmp_path) == "unknown"

    def test_build_info_labels(self):
        labels = schema.build_info(fake_host(), "abc123")
        assert labels["git_sha"] == "abc123"
        assert labels["numpy"] == "2.0.0"
        assert "fingerprint" not in labels  # composite, not a label
        assert "platform" not in labels


class TestDefaultRows:
    def test_alternate_legs_are_not_baselines(self):
        rows = [
            {"experiment": "demo", "leg": "default", "factorizations": 1},
            {"experiment": "demo", "leg": "scalar (REPRO_VECTORIZED=0)",
             "factorizations": 99},
        ]
        entry = make_entry(rows, entry_id="c0001", clock=lambda: CLOCK,
                           host=fake_host(), sha="abc")
        row = schema.default_row(entry, "demo")
        assert row["factorizations"] == 1
        assert [name for name, _ in schema.iter_default_rows(entry)] == ["demo"]

    def test_missing_leg_counts_as_default(self):
        entry = make_entry(demo_rows(), entry_id="c0001", clock=lambda: CLOCK,
                           host=fake_host(), sha="abc")
        assert schema.default_row(entry, "demo") is not None
        assert schema.default_row(entry, "other") is None


class TestCommittedIndex:
    """``benchmarks/index.json`` as committed.

    Its first two entries were lifted from the hand-written
    ``BENCH_*.json`` snapshots, which stay in the tree as the cited
    ``source``; every later campaign was recorded natively.
    """

    @pytest.fixture
    def index(self):
        return schema.load_index(BENCHMARKS_DIR / "index.json")

    @staticmethod
    def _legacy(index):
        return [entry for entry in index["entries"] if entry["source"]]

    def test_both_snapshots_cited_in_trajectory_order(self, index):
        legacy = self._legacy(index)
        assert [e["id"] for e in legacy] == ["c0001", "c0002"]
        assert [e["pr"] for e in legacy] == [4, 5]
        assert [e["source"] for e in legacy] == [
            "BENCH_2026-07-27.json",
            "BENCH_2026-07-27_session.json",
        ]

    def test_rows_survive_verbatim(self, index):
        for entry in self._legacy(index):
            snapshot = json.loads((BENCHMARKS_DIR / entry["source"]).read_text())
            assert entry["rows"] == snapshot["entries"]
            assert entry["date"] == snapshot["date"]
            assert entry["pr"] == snapshot["pr"]

    def test_legacy_host_never_matches_a_live_fingerprint(self, index):
        live = schema.host_fingerprint()["fingerprint"]
        for entry in self._legacy(index):
            assert entry["host"]["fingerprint"].startswith("legacy:")
            assert entry["host"]["fingerprint"] != live

    def test_native_entries_follow_the_legacy_ones(self, index):
        entries = index["entries"]
        legacy = self._legacy(index)
        assert entries[: len(legacy)] == legacy
        native = entries[len(legacy):]
        assert native, "expected a recorded campaign after the legacy ones"
        assert all(entry["source"] is None for entry in native)
