"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import main


class TestCli:
    def test_single_experiment(self, capsys):
        status = main(["fig1"])
        output = capsys.readouterr().out
        assert status == 0
        assert "Fig. 1" in output
        assert "PASS" in output

    def test_multiple_experiments(self, capsys):
        status = main(["fig1", "ablation_current_ratio"])
        output = capsys.readouterr().out
        assert status == 0
        assert "Fig. 1" in output
        assert "eq. 19-20" in output

    def test_help(self, capsys):
        status = main(["--help"])
        output = capsys.readouterr().out
        assert status == 0
        assert "fig8" in output

    def test_unknown_experiment_fails_helpfully(self, capsys):
        status = main(["fig99"])
        err = capsys.readouterr().err
        assert status == 2
        assert "unknown experiment" in err
        assert "fig99" in err
        # The failure lists the registry so the user can self-correct.
        assert "registered experiments" in err
        assert "fig8" in err
        assert "startup_transient" in err

    def test_unknown_experiment_runs_nothing(self, capsys):
        # A typo among valid names must not run the valid ones first.
        status = main(["fig1", "fig99"])
        captured = capsys.readouterr()
        assert status == 2
        assert "Fig. 1" not in captured.out

    def test_list(self, capsys):
        status = main(["--list"])
        out = capsys.readouterr().out
        assert status == 0
        names = out.split()
        assert "fig1" in names
        assert "startup_transient" in names
        assert names == sorted(names)

    def test_export(self, tmp_path, capsys):
        status = main(["--export", str(tmp_path), "fig1"])
        assert status == 0
        exported = tmp_path / "fig1.csv"
        assert exported.exists()
        content = exported.read_text()
        assert "EG5" in content
        assert "# check" in content

    def test_export_missing_directory(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            main(["--export", "/nonexistent/dir", "fig1"])

    def test_export_without_argument(self, capsys):
        status = main(["--export"])
        err = capsys.readouterr().err
        assert status == 2
        assert "--export requires a directory argument" in err

    def test_bench_prints_wall_time_and_solver_stats(self, capsys):
        import json

        status = main(["--bench", "fig1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "bench fig1: wall=" in out
        assert "factorizations=" in out
        bench_lines = [l for l in out.splitlines() if l.startswith("BENCH ")]
        assert len(bench_lines) == 1
        row = json.loads(bench_lines[0][len("BENCH "):])
        assert row["experiment"] == "fig1"
        assert row["wall_s"] >= 0.0
        assert "iterations" in row and "lu_reuses" in row
        # Every bench row carries the per-plan trace digest (empty for
        # fig1, whose behavioural model never touches the solver).
        assert row["trace_summary"]["spans"] == 0
        assert row["trace_summary"]["roots"] == []

    def test_bench_attributes_counters_to_individual_plans(self, capsys):
        import json

        status = main(["--bench", "zout_vref"])
        out = capsys.readouterr().out
        assert status == 0
        bench_lines = [l for l in out.splitlines() if l.startswith("BENCH ")]
        row = json.loads(bench_lines[0][len("BENCH "):])
        roots = row["trace_summary"]["roots"]
        assert len(roots) >= 2  # a DC sweep and an AC sweep, at least
        assert all(root["span"] == "plan" for root in roots)
        kinds = {root["kind"] for root in roots}
        assert "ACSweep" in kinds
        # Per-plan counter deltas sum to the experiment's own totals —
        # the attribution that a shared-session STATS row cannot give.
        for key in ("iterations", "ac_solves"):
            assert sum(r["counters"].get(key, 0) for r in roots) == row[key]

    def test_workers_flag_does_not_change_results(self, capsys):
        status = main(["--workers", "2", "fig1", "ablation_current_ratio"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Fig. 1" in out
        assert "eq. 19-20" in out

    def test_workers_flag_rejects_non_integer(self, capsys):
        status = main(["--workers", "many", "fig1"])
        err = capsys.readouterr().err
        assert status == 2
        assert "--workers" in err

    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro import telemetry
        from repro.telemetry import tracer as tracer_mod

        trace_file = tmp_path / "trace.jsonl"
        metrics_file = tmp_path / "metrics.prom"
        status = main(
            ["zout_vref", "--trace", str(trace_file), "--metrics", str(metrics_file)]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert f"trace written -> {trace_file}" in out
        assert f"metrics written -> {metrics_file}" in out
        # The CLI uninstalls its tracer even on the non-bench path.
        assert tracer_mod.ACTIVE is None
        rows = telemetry.read_jsonl(trace_file)
        assert rows, "a solver-driven experiment must produce spans"
        names = {row["span"] for row in rows}
        assert {"plan", "solve", "dc_solve", "newton_solve"} <= names
        metrics = metrics_file.read_text()
        assert "repro_newton_solves_total 0\n" not in metrics
        assert "# TYPE repro_iterations_total counter" in metrics

    def test_metrics_flag_without_solves_writes_zero_counters(self, tmp_path):
        metrics_file = tmp_path / "metrics.prom"
        from repro.spice.stats import STATS

        STATS.reset()
        status = main(["fig1", "--metrics", str(metrics_file)])
        assert status == 0
        assert "repro_session_plans_total 0" in metrics_file.read_text()

    def test_trace_flag_requires_an_argument(self, capsys):
        status = main(["fig1", "--trace"])
        err = capsys.readouterr().err
        assert status == 2
        assert "--trace requires" in err

    def test_bench_composes_with_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro import telemetry

        trace_file = tmp_path / "trace.jsonl"
        metrics_file = tmp_path / "metrics.prom"
        status = main(
            [
                "--bench",
                "zout_vref",
                "--trace",
                str(trace_file),
                "--metrics",
                str(metrics_file),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        rows = telemetry.read_jsonl(trace_file)
        assert {row["span"] for row in rows} >= {"plan", "solve", "newton_solve"}
        bench_lines = [l for l in out.splitlines() if l.startswith("BENCH ")]
        row = json.loads(bench_lines[0][len("BENCH "):])
        # --metrics under --bench snapshots exactly the benched work.
        metrics = metrics_file.read_text()
        assert f"repro_iterations_total {row['iterations']}" in metrics


class TestCliResilience:
    def test_retries_recovers_transient_fault(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "convergence@0:1")
        status = main(["fig1", "--retries", "2"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Fig. 1" in out and "PASS" in out

    def test_terminal_failure_reported_not_fatal(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        status = main(["fig1", "ablation_current_ratio", "--retries", "1"])
        out = capsys.readouterr().out
        assert status == 1
        # The batch survives the casualty: the second experiment ran...
        assert "eq. 19-20" in out
        # ...and the failure is attributed with its captured exception.
        assert "experiment fig1 FAILED" in out
        assert "FaultInjected" in out
        assert "1 experiment(s) failed terminally: fig1" in out

    def test_bench_rows_carry_resilience_counters(self, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_FAULTS", "convergence@0:1")
        status = main(["--bench", "fig1", "--retries", "2"])
        out = capsys.readouterr().out
        assert status == 0
        assert "resil=1r/0wf/0sf" in out
        bench_lines = [l for l in out.splitlines() if l.startswith("BENCH ")]
        row = json.loads(bench_lines[0][len("BENCH "):])
        assert row["retries"] == 1
        assert "timeouts" not in row

    def test_retries_rejects_non_integer(self, capsys):
        status = main(["--retries", "lots", "fig1"])
        err = capsys.readouterr().err
        assert status == 2
        assert "--retries" in err

    def test_standing_faults_inert_without_retries_flag(self, capsys, monkeypatch):
        # REPRO_FAULTS only arms under an explicit policy: a plain run
        # sails through untouched.
        monkeypatch.setenv("REPRO_FAULTS", "error@*")
        status = main(["fig1"])
        out = capsys.readouterr().out
        assert status == 0
        assert "PASS" in out


class TestCliServeUsage:
    """Out-of-range --serve arguments are usage errors, caught before
    any server starts."""

    @pytest.fixture
    def serve_calls(self, monkeypatch):
        import repro.serve.server as serve_server

        calls = []
        monkeypatch.setattr(serve_server, "serve", lambda **kwargs: calls.append(kwargs))
        return calls

    @pytest.mark.parametrize(
        "flags",
        [
            ["--serve-workers", "0"],
            ["--serve-workers", "-3"],
            ["--port", "99999"],
            ["--port", "-1"],
        ],
    )
    def test_out_of_range_is_a_usage_error(self, flags, serve_calls, capsys):
        status = main(["--serve", *flags])
        err = capsys.readouterr().err
        assert status == 2
        assert flags[0] in err
        assert len(err.strip().splitlines()) == 1
        assert serve_calls == []

    def test_range_ends_are_accepted(self, serve_calls):
        from repro.serve.server import DEFAULT_HOST

        assert main(["--serve", "--port", "65535", "--serve-workers", "1"]) == 0
        assert serve_calls == [
            {"host": DEFAULT_HOST, "port": 65535, "cache_dir": None, "workers": 1}
        ]
