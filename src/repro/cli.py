"""Command-line experiment runner: ``python -m repro [options] [experiment ...]``.

With no experiment names, runs every registered experiment and prints
the summary followed by each rendered section.  ``--list`` prints the
registered experiment names (one per line) and exits; ``--export DIR``
also writes each regenerated table as ``DIR/<experiment>.csv``.

``--bench`` times each named experiment and prints its wall time plus
the solver-statistics snapshot (Newton iterations, factorizations, LU
reuses, assembly-path counters, vectorized device-group counters,
sparse-assembly counts, AC solve/factorization-reuse counters, the
Session solved-point-cache counters — exact hits / warm starts /
misses — and plan counts, DC strategies) both human-readably and
as a machine-scrapable ``BENCH {json}`` line, so perf trajectories can
be collected from plain CI logs.  Bench rows carry a ``trace_summary``
with per-plan wall times and counter deltas (a plans-level tracer runs
during each timed experiment), so experiments sharing one session no
longer blend their work into a single total.  ``--workers N`` fans the
named experiments, whole, over N processes (0 = all cores; bench runs
stay in-process); results, counters and traces are identical to a
serial run.

Bench runs print a one-line provenance stamp (git SHA, host
fingerprint) and can be *governed* through the campaign index
(``benchmarks/index.json``, schema ``repro-bench-index/1``):
``--bench-record`` appends the run's rows as a dated campaign entry
with full provenance; ``--bench-check`` resolves a baseline from the
index (latest same-host entry by default, or ``--baseline REF`` by
id/label/date/``latest``) and gates the run against it — counter
metrics are hard gates (exact), wall times advisory within
``--bench-tolerance`` (default 0.25 relative) — exiting non-zero on
any hard-gate regression with a named-metric diff; ``--bench-report``
renders the index as a markdown trajectory to ``benchmarks/TREND.md``
(standalone, or composed with a bench run).  ``--bench-index PATH``
points all three at a different index file.  Recording and gating
refuse to run while ``REPRO_FAULTS`` is set: a perturbed run must
never become a baseline.

``--trace FILE`` records the full telemetry span tree of the run
(nested solve spans with per-iteration Newton convergence records) as
JSONL; ``--metrics FILE`` writes the solver-counter snapshot in the
Prometheus text exposition format.  Both compose with ``--bench``.

``--retries N`` runs each experiment under a supervised
:class:`~repro.resilience.RunPolicy` (N retries of transient failures,
failures recorded instead of aborting the batch): a crashed experiment
is reported with its attempt count and captured exception while the
rest of the run completes, and the resilience counters (``retries``,
``worker_failures``, ``serial_fallbacks``) appear in the bench rows'
``resil=`` segment and the Prometheus export.  Composes
with the ``REPRO_FAULTS`` deterministic fault-injection spec (see
:mod:`repro.faultinject`), which only arms under a policy.

``--serve`` starts the simulation service instead of running
experiments: an HTTP job server (``POST /jobs`` validated by the
PlanError boundary before any solve, ``GET /jobs/<id>[/result]``,
``GET /metrics``, ``GET /healthz``, ``POST /shutdown``) over a bounded
Session pool, with ``--cache-dir DIR`` attaching the persistent
solved-point store shared across jobs, sessions and server restarts.
``--port``/``--host`` set the bind address (default
``127.0.0.1:8347`` — loopback only, no authentication);
``--serve-workers N`` sets the job worker threads.  See
:mod:`repro.serve` and ``python -m repro.serve.client`` for the
matching client.

Exit status is non-zero if any shape check fails or any experiment
failed terminally, and 2 for usage errors (unknown experiment names
are reported together with the registry).
"""

from __future__ import annotations

import json
import sys
import time
from typing import List, Optional

from . import telemetry
from .experiments import EXPERIMENTS, render_result, render_summary, run_experiment
from .experiments.export import write_csv
from .experiments.registry import run_experiments
from .resilience import RunPolicy, supervised_call
from .spice.stats import STATS, SolverStats

#: Exit status for usage errors (unknown experiment, bad flags).
USAGE_ERROR = 2


def _pop_value_flag(argv: List[str], flag: str, what: str = "an argument"):
    """Remove ``flag VALUE`` from argv, returning VALUE (or None/error)."""
    if flag not in argv:
        return None, None
    index = argv.index(flag)
    try:
        value = argv[index + 1]
    except IndexError:
        return None, f"{flag} requires {what}"
    del argv[index : index + 2]
    return value, None


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        print("Known experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    if "--list" in argv:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if "--serve" in argv:
        argv.remove("--serve")
        host_raw, error = _pop_value_flag(argv, "--host", "a bind address")
        if error:
            print(error, file=sys.stderr)
            return USAGE_ERROR
        port_raw, error = _pop_value_flag(argv, "--port", "a port number")
        if error:
            print(error, file=sys.stderr)
            return USAGE_ERROR
        cache_dir, error = _pop_value_flag(argv, "--cache-dir", "a directory")
        if error:
            print(error, file=sys.stderr)
            return USAGE_ERROR
        serve_workers_raw, error = _pop_value_flag(
            argv, "--serve-workers", "a worker-thread count"
        )
        if error:
            print(error, file=sys.stderr)
            return USAGE_ERROR
        if argv:
            print(
                "--serve takes no experiment names; unexpected: "
                + " ".join(argv),
                file=sys.stderr,
            )
            return USAGE_ERROR
        try:
            port = int(port_raw) if port_raw is not None else None
            serve_workers = (
                int(serve_workers_raw) if serve_workers_raw is not None else 1
            )
        except ValueError as exc:
            print(f"--serve: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if serve_workers < 1:
            print(
                f"--serve-workers must be at least 1, got {serve_workers}",
                file=sys.stderr,
            )
            return USAGE_ERROR
        if port is not None and not 0 <= port <= 65535:
            print(f"--port must be in 0..65535, got {port}", file=sys.stderr)
            return USAGE_ERROR
        from .serve import server as serve_server

        try:
            serve_server.serve(
                host=host_raw or serve_server.DEFAULT_HOST,
                port=serve_server.DEFAULT_PORT if port is None else port,
                cache_dir=cache_dir,
                workers=serve_workers,
            )
        except OSError as exc:
            print(f"--serve: {exc}", file=sys.stderr)
            return 1
        return 0
    bench = "--bench" in argv
    if bench:
        argv.remove("--bench")
    bench_record = "--bench-record" in argv
    if bench_record:
        argv.remove("--bench-record")
    bench_check = "--bench-check" in argv
    if bench_check:
        argv.remove("--bench-check")
    bench_report = "--bench-report" in argv
    if bench_report:
        argv.remove("--bench-report")
    baseline_ref, error = _pop_value_flag(argv, "--baseline", "a baseline ref")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    bench_index_raw, error = _pop_value_flag(argv, "--bench-index", "an index path")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    tolerance_raw, error = _pop_value_flag(
        argv, "--bench-tolerance", "a relative tolerance"
    )
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    tolerance = None
    if tolerance_raw is not None:
        try:
            tolerance = float(tolerance_raw)
        except ValueError:
            print(
                f"--bench-tolerance needs a number, got {tolerance_raw!r}",
                file=sys.stderr,
            )
            return USAGE_ERROR
        if tolerance < 0:
            print("--bench-tolerance must be >= 0", file=sys.stderr)
            return USAGE_ERROR
    if baseline_ref is not None and not bench_check:
        print("--baseline only makes sense with --bench-check", file=sys.stderr)
        return USAGE_ERROR
    # Recording or gating implies a bench run; both refuse perturbed runs.
    if bench_record or bench_check:
        bench = True
        from . import benchreg
        from .errors import BenchRegError

        try:
            benchreg.ensure_unperturbed("record" if bench_record else "gate")
        except BenchRegError as exc:
            print(str(exc), file=sys.stderr)
            return USAGE_ERROR
    if bench_report and not bench:
        # Standalone report mode: no experiments run, just render the
        # trend from the existing index.
        if argv:
            print(
                "--bench-report is standalone (no experiment names) or "
                "composed with --bench",
                file=sys.stderr,
            )
            return USAGE_ERROR
        from pathlib import Path

        from . import benchreg
        from .errors import BenchRegError

        index_path = Path(bench_index_raw or benchreg.DEFAULT_INDEX_PATH)
        try:
            index = benchreg.load_index(index_path)
            trend_path = benchreg.write_trend(index, index_path.parent / "TREND.md")
        except BenchRegError as exc:
            print(f"bench-report: {exc}", file=sys.stderr)
            return 1
        print(f"bench-report: trend written -> {trend_path}")
        return 0
    workers_raw, error = _pop_value_flag(argv, "--workers", "a worker count")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    max_workers = None
    if workers_raw is not None:
        try:
            max_workers = int(workers_raw)
        except ValueError:
            print(f"--workers needs an integer, got {workers_raw!r}", file=sys.stderr)
            return USAGE_ERROR
    export_dir, error = _pop_value_flag(argv, "--export", "a directory argument")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    trace_path, error = _pop_value_flag(argv, "--trace", "a file path")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    metrics_path, error = _pop_value_flag(argv, "--metrics", "a file path")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    retries_raw, error = _pop_value_flag(argv, "--retries", "a retry count")
    if error:
        print(error, file=sys.stderr)
        return USAGE_ERROR
    policy = None
    if retries_raw is not None:
        try:
            retries = int(retries_raw)
        except ValueError:
            print(f"--retries needs an integer, got {retries_raw!r}", file=sys.stderr)
            return USAGE_ERROR
        try:
            policy = RunPolicy(max_retries=retries, on_failure="record")
        except Exception as exc:
            print(f"--retries: {exc}", file=sys.stderr)
            return USAGE_ERROR
    names = argv or sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment{'s' if len(unknown) > 1 else ''}: "
            + ", ".join(unknown),
            file=sys.stderr,
        )
        print("registered experiments:", file=sys.stderr)
        for name in sorted(EXPERIMENTS):
            print(f"  {name}", file=sys.stderr)
        return USAGE_ERROR
    results = {}
    failures = {}
    bench_rows = []
    trace_spans = []
    metrics_stats = None
    bench_host = None
    bench_sha = None
    if bench:
        from . import benchreg

        # One provenance stamp per bench run: which code, which numeric
        # stack.  The same identity rides --bench-record entries and the
        # repro_build_info labels of --metrics.
        bench_host = benchreg.host_fingerprint()
        bench_sha = benchreg.git_sha()
        print(
            f"bench provenance: git={benchreg.short_sha(bench_sha)} "
            f"host={bench_host['fingerprint']}"
        )

    if bench:
        # Timed one-by-one in this process, so each row's STATS snapshot
        # is exactly that experiment's work.  A plans-level tracer per
        # timed run attributes counters to the individual plan spans
        # (shared-session experiments used to blend their plans into one
        # blended STATS row); --trace upgrades it to full detail, which
        # perturbs the measured walls but buys the whole solve tree.
        detail = "full" if trace_path else "plans"
        metrics_stats = SolverStats()
        batch = {}
        for position, name in enumerate(names):
            STATS.reset()
            tracer = telemetry.install_tracer(detail=detail)
            t0 = time.perf_counter()
            try:
                batch[name] = (
                    run_experiment(name)
                    if policy is None
                    else supervised_call(
                        lambda: run_experiment(name), index=position, policy=policy
                    )
                )
            finally:
                telemetry.uninstall_tracer()
            wall = time.perf_counter() - t0
            bench_rows.append(
                {
                    "experiment": name,
                    "wall_s": round(wall, 4),
                    **STATS.as_dict(),
                    "trace_summary": telemetry.trace_summary(tracer),
                }
            )
            metrics_stats.merge(STATS)
            trace_spans.extend(tracer.roots)
    else:
        tracer = telemetry.install_tracer(detail="full") if trace_path else None
        try:
            batch = run_experiments(names, max_workers, policy)
        finally:
            if tracer is not None:
                telemetry.uninstall_tracer()
                trace_spans.extend(tracer.roots)
    # Without --retries the batch maps names to results; with it, to
    # Outcome records.
    if policy is None:
        results = batch
    else:
        for name, outcome in batch.items():
            if outcome.ok:
                results[name] = outcome.value
            else:
                failures[name] = outcome
    for name in names:
        if name in results:
            print(render_result(results[name]))
        else:
            outcome = failures.get(name)
            detail_msg = (
                f"{outcome.error_type}: {outcome.error} "
                f"(after {outcome.attempts} attempt(s))"
                if outcome is not None
                else "skipped"
            )
            print(f"experiment {name} FAILED: {detail_msg}")
    if export_dir is not None:
        for name in names:
            if name not in results:
                continue
            path = write_csv(results[name], export_dir)
            print(f"exported {name} -> {path}")
    for row in bench_rows:
        strategies = ", ".join(
            f"{key}={value}" for key, value in sorted(row["strategies"].items())
        )
        print(
            f"bench {row['experiment']}: wall={row['wall_s']:.3f} s  "
            f"iterations={row['iterations']}  "
            f"factorizations={row['factorizations']}  "
            f"lu_reuses={row['lu_reuses']}  "
            f"residual_evals={row['residual_evaluations']}  "
            f"assemblies={row['compiled_assemblies']}  "
            f"sparse={row['sparse_assemblies']}a/"
            f"{row['sparse_factorizations']}f/"
            f"{row['sparse_conversions']}cv  "
            f"groups={row['group_evals']}ev/"
            f"{row['grouped_device_evals']}dev  "
            f"ac={row['ac_solves']}s/{row['ac_factorizations']}f/"
            f"{row['ac_factor_reuses']}r  "
            f"cache={row['op_cache_hits']}h/"
            f"{row['op_cache_warm_starts']}w/"
            f"{row['op_cache_misses']}m  "
            f"plans={row['session_plans']}  "
            f"resil={row['retries']}r/{row['worker_failures']}wf/"
            f"{row['serial_fallbacks']}sf  "
            f"strategies: {strategies or '-'}"
        )
        print("BENCH " + json.dumps(row, sort_keys=True))
    gate_failed = False
    if bench and (bench_record or bench_check or bench_report):
        from pathlib import Path

        from . import benchreg
        from .errors import BenchRegError

        index_path = Path(bench_index_raw or benchreg.DEFAULT_INDEX_PATH)
        try:
            # Resolve the baseline BEFORE recording, so a freshly
            # recorded campaign is never compared against itself.
            baseline = resolution = None
            if bench_check:
                index = benchreg.load_index(index_path)
                baseline, resolution = benchreg.resolve_baseline(
                    index, ref=baseline_ref, host=bench_host
                )
            if bench_record:
                if failures:
                    raise BenchRegError(
                        "refusing to record a campaign with failed "
                        "experiments: " + ", ".join(sorted(failures))
                    )
                entry = benchreg.record_campaign(
                    index_path,
                    bench_rows,
                    command="python -m repro --bench " + " ".join(names),
                    sha=bench_sha,
                    host=bench_host,
                )
                print(
                    f"bench-record: campaign {entry['id']} ({entry['date']}) "
                    f"-> {index_path}"
                )
            if bench_check:
                comparison = benchreg.compare_rows(
                    baseline,
                    bench_rows,
                    resolution=resolution,
                    tolerance=(
                        benchreg.DEFAULT_TOLERANCE
                        if tolerance is None
                        else tolerance
                    ),
                )
                print(benchreg.render_check(comparison))
                gate_failed = not comparison.ok
            if bench_report:
                trend_path = benchreg.write_trend(
                    benchreg.load_index(index_path),
                    index_path.parent / "TREND.md",
                )
                print(f"bench-report: trend written -> {trend_path}")
        except BenchRegError as exc:
            print(f"bench governance: {exc}", file=sys.stderr)
            return 1
    if trace_path is not None:
        path = telemetry.write_jsonl(trace_spans, trace_path)
        print(f"trace written -> {path} ({len(telemetry.trace_rows(trace_spans))} spans)")
    if metrics_path is not None:
        from . import benchreg

        path = telemetry.write_prometheus(
            metrics_path,
            metrics_stats,
            build_info=benchreg.build_info(bench_host, bench_sha),
        )
        print(f"metrics written -> {path}")
    print(render_summary(results))
    if failures:
        print(
            f"{len(failures)} experiment(s) failed terminally: "
            + ", ".join(sorted(failures))
        )
        return 1
    if gate_failed:
        return 1
    return 0 if all(result.passed for result in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
