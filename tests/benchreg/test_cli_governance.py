"""CLI integration: --bench-record/--bench-check/--bench-report
composition, the fault-injection guard, and flag validation."""

import json

import pytest

from repro.benchreg import schema
from repro.cli import main


def run_record(index_path, *extra):
    return main(
        ["--bench", "fig1", "--bench-record", "--bench-index", str(index_path)]
        + list(extra)
    )


class TestRecordAndCheck:
    def test_record_creates_index_then_check_passes(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        assert run_record(index_path) == 0
        out = capsys.readouterr().out
        assert "bench-record: campaign c0001" in out
        index = schema.load_index(index_path)
        assert index["entries"][0]["rows"][0]["experiment"] == "fig1"
        # The provenance line shows the recorded SHA, dirty mark kept.
        sha = schema.short_sha(index["entries"][0]["git_sha"])
        assert f"bench provenance: git={sha} " in out
        # Identical re-run gates clean against the recorded baseline.
        status = main(
            ["--bench", "fig1", "--bench-check", "--bench-index", str(index_path)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "bench-check: PASS" in out
        assert "latest same-host entry (c0001)" in out

    def test_record_and_check_compose_in_one_run(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        assert run_record(index_path) == 0
        capsys.readouterr()
        # Baseline resolves BEFORE the new entry lands: c0002 is checked
        # against c0001, not against itself.
        status = run_record(index_path, "--bench-check")
        out = capsys.readouterr().out
        assert status == 0
        assert "bench-record: campaign c0002" in out
        assert "baseline c0001" in out

    def test_synthetic_regression_fails_naming_the_metric(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        assert run_record(index_path) == 0
        # Pretend the baseline had cache hits the candidate now lacks.
        index = schema.load_index(index_path)
        index["entries"][0]["rows"][0]["op_cache_hits"] = 2
        schema.save_index(index, index_path)
        capsys.readouterr()
        status = main(
            ["--bench", "fig1", "--bench-check", "--bench-index", str(index_path)]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "bench-check: FAIL" in out
        assert "fig1.op_cache_hits" in out
        assert "2 -> 0" in out

    def test_explicit_baseline_ref(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        assert run_record(index_path) == 0
        assert run_record(index_path) == 0
        capsys.readouterr()
        status = main(
            ["--bench", "fig1", "--bench-check", "--baseline", "c0001",
             "--bench-index", str(index_path)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "explicit ref 'c0001'" in out

    def test_check_without_index_fails_helpfully(self, tmp_path, capsys):
        status = main(
            ["--bench", "fig1", "--bench-check", "--bench-index",
             str(tmp_path / "missing.json")]
        )
        err = capsys.readouterr().err
        assert status == 1
        assert "no campaign index" in err

    def test_record_composes_with_trace_and_metrics(self, tmp_path, capsys):
        from repro import telemetry

        index_path = tmp_path / "index.json"
        trace_file = tmp_path / "trace.jsonl"
        metrics_file = tmp_path / "metrics.prom"
        status = main(
            ["--bench", "fig1", "--bench-record",
             "--bench-index", str(index_path),
             "--trace", str(trace_file), "--metrics", str(metrics_file)]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "bench-record: campaign c0001" in out
        assert telemetry.read_jsonl(trace_file) is not None
        metrics = metrics_file.read_text()
        assert "repro_build_info{" in metrics
        assert 'git_sha="' in metrics
        assert 'numpy="' in metrics
        # The recorded entry and the metrics file cite the same SHA.
        entry = schema.load_index(index_path)["entries"][0]
        assert f'git_sha="{entry["git_sha"]}"' in metrics

    def test_plain_metrics_run_also_carries_build_info(self, tmp_path):
        metrics_file = tmp_path / "metrics.prom"
        assert main(["fig1", "--metrics", str(metrics_file)]) == 0
        assert "repro_build_info{" in metrics_file.read_text()

    def test_failed_experiment_blocks_recording(self, tmp_path, capsys,
                                                monkeypatch):
        import repro.cli as cli_mod

        def explode(name):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "run_experiment", explode)
        status = main(
            ["--bench", "fig1", "--retries", "1", "--bench-record",
             "--bench-index", str(tmp_path / "index.json")]
        )
        err = capsys.readouterr().err
        assert status == 1
        assert "refusing to record a campaign with failed experiments" in err
        assert not (tmp_path / "index.json").exists()


class TestFaultGuard:
    def test_env_faults_refuse_record(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "convergence@0:1")
        status = run_record(tmp_path / "index.json")
        err = capsys.readouterr().err
        assert status == 2
        assert "perturbed run must never become a baseline" in err
        assert not (tmp_path / "index.json").exists()

    def test_env_faults_refuse_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@*")
        status = main(
            ["--bench", "fig1", "--bench-check",
             "--bench-index", str(tmp_path / "index.json")]
        )
        assert status == 2
        assert "fault injection is armed" in capsys.readouterr().err

    def test_installed_plan_also_refused(self, tmp_path, capsys):
        from repro import faultinject

        with faultinject.injected("convergence@0"):
            status = run_record(tmp_path / "index.json")
        assert status == 2
        assert "fault injection is armed" in capsys.readouterr().err

    def test_record_campaign_api_guard(self, tmp_path, monkeypatch):
        from repro.benchreg import record_campaign
        from repro.errors import BenchRegError

        monkeypatch.setenv("REPRO_FAULTS", "crash@*")
        with pytest.raises(BenchRegError, match="never become a baseline"):
            record_campaign(tmp_path / "index.json",
                            [{"experiment": "x", "wall_s": 1.0}])


class TestReport:
    def test_standalone_report(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        assert run_record(index_path) == 0
        capsys.readouterr()
        status = main(["--bench-report", "--bench-index", str(index_path)])
        out = capsys.readouterr().out
        assert status == 0
        trend = tmp_path / "TREND.md"
        assert f"trend written -> {trend}" in out
        assert "# Benchmark trend report" in trend.read_text()

    def test_standalone_report_without_index_fails(self, tmp_path, capsys):
        status = main(
            ["--bench-report", "--bench-index", str(tmp_path / "none.json")]
        )
        assert status == 1
        assert "no campaign index" in capsys.readouterr().err

    def test_report_with_names_but_no_bench_is_a_usage_error(self, capsys):
        status = main(["--bench-report", "fig1"])
        assert status == 2
        assert "--bench-report" in capsys.readouterr().err

    def test_report_composes_with_bench_record(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        status = run_record(index_path, "--bench-report")
        out = capsys.readouterr().out
        assert status == 0
        # The report includes the campaign recorded in the same run.
        assert "bench-record: campaign c0001" in out
        assert "c0001" in (tmp_path / "TREND.md").read_text()


class TestFlagValidation:
    def test_baseline_requires_check(self, capsys):
        status = main(["--bench", "fig1", "--baseline", "c0001"])
        assert status == 2
        assert "--baseline" in capsys.readouterr().err

    def test_tolerance_must_be_a_number(self, capsys):
        status = main(["--bench", "fig1", "--bench-check",
                       "--bench-tolerance", "lots"])
        assert status == 2
        assert "--bench-tolerance" in capsys.readouterr().err

    def test_tolerance_must_be_non_negative(self, capsys):
        status = main(["--bench", "fig1", "--bench-check",
                       "--bench-tolerance", "-0.1"])
        assert status == 2
        assert ">= 0" in capsys.readouterr().err

    def test_bench_index_requires_a_value(self, capsys):
        status = main(["--bench", "fig1", "--bench-index"])
        assert status == 2
        assert "--bench-index requires" in capsys.readouterr().err

    def test_record_implies_bench(self, tmp_path, capsys):
        # --bench-record without --bench still runs in bench mode (rows
        # are what gets recorded).
        index_path = tmp_path / "index.json"
        status = main(["fig1", "--bench-record", "--bench-index",
                       str(index_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "BENCH " in out
        assert schema.load_index(index_path)["entries"]

    def test_bench_rows_unchanged_by_governance_flags(self, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        assert run_record(index_path) == 0
        out = capsys.readouterr().out
        bench_lines = [l for l in out.splitlines() if l.startswith("BENCH ")]
        assert len(bench_lines) == 1
        row = json.loads(bench_lines[0][len("BENCH "):])
        recorded = schema.load_index(index_path)["entries"][0]["rows"][0]
        assert recorded == row
