"""Integration tests: every paper artefact regenerates and passes its
shape checks.

These are the repo's acceptance tests — each runs the full stack
(device models -> simulated lab -> extraction -> comparison) for one
figure or table of the paper.
"""

import os

import pytest

from repro.errors import ReproError
from repro.experiments import EXPERIMENTS, run_all, run_experiment
from repro.experiments.registry import ExperimentResult


@pytest.fixture(scope="module")
def all_results():
    return run_all()


class TestRegistry:
    def test_every_paper_artefact_registered(self):
        for name in ("fig1", "fig2", "fig5", "fig6", "fig8", "table1"):
            assert name in EXPERIMENTS

    def test_ablations_registered(self):
        for name in (
            "ablation_sensitivity",
            "ablation_current_ratio",
            "ablation_solver",
        ):
            assert name in EXPERIMENTS

    def test_extensions_registered(self):
        assert "sub1v_extension" in EXPERIMENTS
        assert "startup_transient" in EXPERIMENTS

    def test_ac_family_registered(self):
        for name in ("psrr_vref", "loop_gain", "zout_vref"):
            assert name in EXPERIMENTS

    def test_unknown_experiment_raises(self):
        with pytest.raises(ReproError):
            run_experiment("fig99")


class TestShapeChecks:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiment_passes(self, all_results, name):
        result = all_results[name]
        assert result.passed, f"{name} failing: {result.failing_checks()}"

    def test_results_carry_rows(self, all_results):
        for name, result in all_results.items():
            assert result.rows, name
            assert len(result.columns) == len(result.rows[0]), name


class TestSpecificNumbers:
    def test_fig8_s1_agreement(self, all_results):
        # The paper's "very good correlation": S1 tracks the measured
        # curve; S0 misses the high-temperature rise by tens of mV.
        result = all_results["fig8"]
        hot_row = result.rows[-1]
        measured, s0, s1 = hot_row[1], hot_row[2], hot_row[3]
        assert measured - s0 > 20e-3
        assert abs(measured - s1) < 5e-3

    def test_table1_rows_one_per_sample(self, all_results):
        assert len(all_results["table1"].rows) == 5

    def test_fig6_c3_displaced(self, all_results):
        result = all_results["fig6"]
        mid = result.rows[len(result.rows) // 2]
        __, c1, c2, c3 = mid
        assert abs(c1 - c2) < abs(c3 - c2)

    def test_fig1_covers_full_axis(self, all_results):
        temps = [row[0] for row in all_results["fig1"].rows]
        assert temps[0] == 0.0
        assert temps[-1] == 450.0

    def test_ablation_solver_sweeps_each_variant_on_its_own_session(
        self, all_results
    ):
        # The netlist column is one cold TempSweep per configuration,
        # rows in variant order.
        from repro.circuits.bandgap_cell import (
            BandgapCellConfig,
            build_bandgap_cell,
            measure_vref,
        )
        from repro.spice import Session, TempSweep
        from repro.units import celsius_to_kelvin

        temps_c = (-55.0, -5.0, 45.0, 95.0, 145.0)
        plan = TempSweep(temperatures_k=tuple(celsius_to_kelvin(t) for t in temps_c))
        variants = (
            ("ideal", BandgapCellConfig(substrate_unit=None)),
            ("leaky", BandgapCellConfig()),
            ("trimmed", BandgapCellConfig(radja=2.5e3)),
        )
        expected = [
            (label, temp_c, round(measure_vref(point), 5))
            for label, config in variants
            for temp_c, point in zip(
                temps_c, Session(build_bandgap_cell, args=(config,)).run(plan).points
            )
        ]
        rows = all_results["ablation_solver"].rows
        assert [row[:3] for row in rows] == expected


class TestRunExperimentsErrorAttribution:
    """A worker failure must carry the failing experiment's id."""

    def test_failure_names_the_experiment(self):
        from repro.errors import ExperimentError
        from repro.experiments.registry import EXPERIMENTS, register, run_experiments

        @register("_failing_probe")
        def _fail():
            raise ValueError("boom")

        try:
            with pytest.raises(ExperimentError, match="_failing_probe.*boom"):
                run_experiments(["_failing_probe"])
        finally:
            del EXPERIMENTS["_failing_probe"]

    def test_failure_attributed_across_the_process_pool(self):
        from repro.errors import ExperimentError
        from repro.experiments.registry import EXPERIMENTS, register, run_experiments

        @register("_failing_probe_pool")
        def _fail():
            raise ValueError("boom in worker")

        try:
            # Two items + two workers forces the pool path; the
            # attributed message must survive the pickle round trip.
            with pytest.raises(ExperimentError, match="_failing_probe_pool"):
                run_experiments(["fig1", "_failing_probe_pool"], max_workers=2)
        finally:
            del EXPERIMENTS["_failing_probe_pool"]

    def test_retryable_failure_keeps_its_type_and_is_retried(self):
        # A real ConvergenceError inside a runner is transient: wrapping
        # it in the (terminal) ExperimentError would make the policy
        # give up after one attempt.
        from repro import faultinject
        from repro.errors import ConvergenceError
        from repro.experiments.registry import register, run_experiments
        from repro.resilience import RunPolicy

        calls = []

        @register("_flaky_probe")
        def _flaky():
            calls.append(len(calls) + 1)
            if len(calls) == 1:
                raise ConvergenceError("first attempt does not converge")
            return ExperimentResult("_flaky_probe", "flaky", ["x"], [(1,)])

        try:
            with faultinject.injected(""):  # no standing fault plan
                outcomes = run_experiments(
                    ["_flaky_probe"], max_workers=1, policy=RunPolicy(max_retries=1)
                )
        finally:
            del EXPERIMENTS["_flaky_probe"]
        outcome = outcomes["_flaky_probe"]
        assert outcome.ok and outcome.attempts == 2
        assert calls == [1, 2]

    def test_unknown_name_still_lists_registry(self):
        from repro.experiments.registry import run_experiments

        with pytest.raises(ReproError, match="known:"):
            run_experiments(["fig1", "no_such_experiment"])


#: CI's fan-out smoke batch: a figure and the netlist ablation, whose
#: three bandgap-cell sessions give the trace its plan spans.
FANNED_BATCH = ["fig1", "ablation_solver"]


def _clockless(rows):
    """Exported span rows without their clocks and worker marks."""
    return [
        {
            **{k: v for k, v in row.items() if k not in ("t_start_s", "dur_s")},
            "attrs": {
                k: v for k, v in row.get("attrs", {}).items() if k != "worker_pid"
            },
            "children": _clockless(row.get("children", [])),
        }
        for row in rows
    ]


@pytest.fixture(scope="module")
def serial_and_fanned_batch():
    """The smoke batch run fanned over two workers, then serially: each
    run's results, process counters and full-detail trace."""
    from repro.experiments.registry import run_experiments
    from repro.spice.stats import STATS
    from repro.telemetry.tracer import tracing

    runs = {}
    for workers in (2, None):
        STATS.reset()
        with tracing(detail="full") as tracer:
            results = run_experiments(FANNED_BATCH, max_workers=workers)
        runs[workers] = (results, STATS.as_dict(), tracer.export())
    return runs[None], runs[2]


class TestRegistryFanOut:
    """The registry is where plan work fans out: a batch fanned over
    worker processes prints the serial tables, moves the serial
    counters and records the serial spans (the tier-1 form of CI's
    fan-out smoke)."""

    def test_fanned_batch_prints_the_serial_tables(self, serial_and_fanned_batch):
        (serial, _, _), (fanned, _, _) = serial_and_fanned_batch
        assert list(fanned) == list(serial) == FANNED_BATCH
        for name in FANNED_BATCH:
            assert fanned[name] == serial[name]
            assert fanned[name].passed

    def test_fanned_batch_counters_equal_serial(self, serial_and_fanned_batch):
        (_, serial, _), (_, fanned, _) = serial_and_fanned_batch
        assert fanned == serial
        assert serial["newton_solves"] > 0
        assert serial["session_plans"] > 0

    def test_fanned_batch_trace_equals_serial(self, serial_and_fanned_batch):
        (_, _, serial), (_, _, fanned) = serial_and_fanned_batch
        assert _clockless(fanned) == _clockless(serial)
        assert [row["span"] for row in serial] == ["plan"] * len(serial) != []
        # The fanned spans really crossed the pool.
        assert all(row["attrs"]["worker_pid"] != os.getpid() for row in fanned)


class TestReportRendering:
    def test_render_result(self, all_results):
        from repro.experiments import render_result

        text = render_result(all_results["table1"])
        assert "Table 1" in text
        assert "PASS" in text

    def test_render_summary(self, all_results):
        from repro.experiments import render_summary

        text = render_summary(all_results)
        assert "fig8" in text

    def test_result_dataclass_helpers(self):
        result = ExperimentResult(
            experiment_id="x",
            title="t",
            columns=["a"],
            rows=[(1,)],
            checks={"ok": True, "bad": False},
        )
        assert not result.passed
        assert result.failing_checks() == ["bad"]
