"""Repository benchmark: paper-cell characterisation, large-N arrays and
a two-circuit served mix.

Run from the repository root::

    python3 perfbench/run.py --workload cell_characterize --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with every layer's entry points wrapped
(``perfbench/layers.py``) and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
carry the run's provenance and details (failure attribution, the
service's own queue/execute times).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cell_characterize", "array_scale", "served_mix")
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5

END_TO_END_METRICS = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Engine switches whose non-default value would change what is
#: measured, with their defaults.
_ENGINE_DEFAULTS = {
    "REPRO_VECTORIZED": "1",
    "REPRO_COMPILED": "1",
    "REPRO_SPARSE_THRESHOLD": "200",
    "REPRO_GROUP_MIN": "12",
    "REPRO_WORKERS": "1",
}


def environment_refusal(env) -> Optional[str]:
    """Why the environment would perturb the measurement, or None."""
    if env.get("REPRO_FAULTS", "").strip():
        return "REPRO_FAULTS is armed; fault injection perturbs every measurement"
    for name, default in _ENGINE_DEFAULTS.items():
        value = env.get(name, "").strip()
        if value and value != default:
            return f"{name}={value} is not the default ({default})"
    return None


def provenance(args) -> dict:
    from repro.benchreg import git_sha, host_fingerprint

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "source_sha256": digest.hexdigest(),
        "host": host_fingerprint(),
    }


def pooled_metrics(blocks) -> Dict[str, float]:
    """Throughput, latency percentiles and CPU per op over ``blocks``,
    each ``(seconds, cpu_s, latencies_s)``."""
    import numpy as np

    latencies = [lat for block in blocks for lat in block[2]]
    p50, p90 = np.percentile(latencies, [50, 90])
    return {
        "ops_per_s": len(latencies) / sum(block[0] for block in blocks),
        "op_p50_ms": 1e3 * float(p50),
        "op_p90_ms": 1e3 * float(p90),
        "cpu_ms_per_op": 1e3 * sum(block[1] for block in blocks) / len(latencies),
        "samples": len(latencies),
    }


def host_scaled(blocks, references):
    """``blocks`` with their times scaled to the reference host speed.

    Block ``i`` ran between ``references[i]`` and ``references[i + 1]``
    (``perfbench/calibrate.py``); its wall times and latencies are
    scaled by the wall-clock factor, its CPU time by the CPU factor.
    """
    from perfbench import calibrate

    return [
        (seconds * wall, cpu_s * cpu, [lat * wall for lat in latencies])
        for (seconds, cpu_s, latencies), (wall, cpu) in zip(blocks, calibrate.scales(references))
    ]


def reference_ms(references) -> float:
    """Median wall time of the run's host-speed references [ms]."""
    return 1e3 * statistics.median(wall for wall, _cpu in references)


def _median_setup(spawn) -> float:
    """Median of ``SETUP_REPEATS`` set-ups, each scaled to the reference
    host speed by the references taken right before and after it."""
    from perfbench import calibrate

    scaled = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.measure()
        seconds = spawn()
        (wall, _cpu), = calibrate.scales([before, calibrate.measure()])
        scaled.append(seconds * wall)
    return statistics.median(scaled)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------

def _direct_setup_once(args) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the workload and generated its first op."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
    return elapsed


def direct_untraced(args):
    from perfbench import calibrate, direct

    setup_s = _median_setup(lambda: _direct_setup_once(args))
    loop = direct.run_loop(
        direct.GENERATORS[args.workload](args.seed), args.seconds, reference=calibrate.measure
    )
    # Every op is its own block: scaled by the references either side.
    blocks = [(elapsed, cpu, [elapsed] if ok else []) for elapsed, cpu, ok in loop.ops]
    metrics = pooled_metrics(host_scaled(blocks, loop.references))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details = {
        "samples": metrics.pop("samples"),
        "reference_ms": reference_ms(loop.references),
        "unscaled": pooled_metrics(blocks),
        "failures": loop.failures,
    }
    return loop.attempted, loop.failures, {}, metrics, details


def direct_traced(args):
    from perfbench import direct, layers

    generate = direct.GENERATORS[args.workload]
    untraced = direct.run_loop(generate(args.seed), args.seconds / 2.0, check=False)
    recorder = layers.LayerRecorder()
    layers.install_engine_layers(recorder)
    try:
        traced = direct.run_loop(
            generate(args.seed),
            math.inf,
            max_ops=untraced.attempted,
            build=lambda builder: recorder.wrap("circuits.build", builder),
            recorder=recorder,
            counters=layers.stats_counters,
        )
    finally:
        recorder.uninstall()
    totals = recorder.totals("MainThread")
    metrics = layers.engine_layer_metrics(totals, traced.counters, traced.busy_s)
    metrics.update({
        "serve.queue_wait_frac": 0.0,
        "serve.execute_frac": 0.0,
        "serve.http_overhead_frac": 0.0,
        "serve.cross_topology_failures": 0,
        "unattributed_frac": 1.0 - totals["root_s"] / traced.busy_s,
        "trace.ops": traced.attempted,
        "trace.wall_s": traced.busy_s,
        "trace.overhead_frac": traced.busy_s / untraced.busy_s - 1.0,
    })
    details = {"untraced_s": untraced.busy_s, "traced_s": traced.busy_s,
               "failures": traced.failures}
    return traced.attempted, traced.failures, {}, metrics, details


# ----------------------------------------------------------------------
# The served mix
# ----------------------------------------------------------------------

def _scratch_dir() -> Path:
    path = ROOT / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def _served_outcome(priming, results):
    """Failed ops by reason, and the run's other problems: priming
    errors and the self-test that both circuits were actually served."""
    failures: Dict[str, int] = {}
    for result in results:
        for reason, count in result.failures.items():
            failures[reason] = failures.get(reason, 0) + count
    problems = {reason: 1 for reason in priming.errors}
    for result in results:
        if result.served_ok == 0:
            problems[f"client {result.name}: no job of its circuit was served"] = 1
    return failures, problems


def served_untraced(args):
    from perfbench import calibrate, served

    workload = served.Workload(args.seed)
    workload.compute_references()
    scratch = _scratch_dir()
    dirs = []
    servers = []

    def spawn_once() -> float:
        if servers:
            servers.pop().stop()
        dirs.append(served.fresh_cache_dir(scratch, "setup"))
        servers.append(served.ServerProcess(ROOT, dirs[-1]))
        return servers[-1].wait_healthy()

    try:
        setup_s = _median_setup(spawn_once)
        server = servers[0]
        priming = served.prime(server.endpoint, workload)
        results, _wall, spans = served.run_clients(
            server.endpoint, workload, args.seconds,
            sample=lambda: (calibrate.measure(), server.cpu_s()),
        )
        peak_rss_mb = server.peak_rss_mb()
    finally:
        for running in servers:
            running.stop()
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
    completions = [c for r in results for c in r.completions]
    blocks = [
        (t1 - t0, after[1] - before[1], [lat for end, lat in completions if t0 <= end <= t1])
        for t0, t1, before, after in spans
    ]
    references = [spans[0][2][0]] + [after[0] for _t0, _t1, _before, after in spans]
    metrics = pooled_metrics(host_scaled(blocks, references))
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb
    attempted = sum(r.attempted for r in results)
    failures, problems = _served_outcome(priming, results)
    details = {
        "blocks": len(blocks),
        "samples": metrics.pop("samples"),
        "reference_ms": reference_ms(references),
        "unscaled": pooled_metrics(blocks),
        "per_client": {r.name: {"attempted": r.attempted, "served": r.served_ok} for r in results},
        "server_recorded": served.server_times_ms(results),
        "late_joiner_failure": priming.late_joiner,
        "failures": failures,
        "problems": problems,
    }
    return attempted, failures, problems, metrics, details


def served_traced(args):
    from repro.serve import ReproServer

    from perfbench import layers, served

    workload = served.Workload(args.seed)
    workload.compute_references()
    scratch = _scratch_dir()

    def session(seconds, max_ops=None, recorder=None):
        cache_dir = served.fresh_cache_dir(scratch, "traced")
        server = ReproServer(port=0, cache_dir=cache_dir).start()
        endpoint = served.Endpoint(*server.address)
        try:
            counters_start = layers.parse_metrics(endpoint.metrics())
            if recorder is not None:
                recorder.active = True
            start = time.perf_counter()
            priming = served.prime(endpoint, workload)
            worker_start = None if recorder is None else recorder.totals("repro-serve-")["root_s"]
            results, loop_wall, _ = served.run_clients(endpoint, workload, seconds, max_ops)
            wall = time.perf_counter() - start
            if recorder is not None:
                recorder.active = False
            counters = layers.counter_delta(
                counters_start, layers.parse_metrics(endpoint.metrics())
            )
        finally:
            server.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return priming, results, loop_wall, wall, worker_start, counters

    _, plain, _, plain_wall, _, _ = session(args.seconds / 2.0)
    recorder = layers.LayerRecorder()
    layers.install_engine_layers(recorder)
    try:
        priming, results, loop_wall, wall, worker_start, counters = session(
            math.inf, {r.name: r.attempted for r in plain}, recorder
        )
        worker_s = recorder.totals("repro-serve-")["root_s"] - worker_start
    finally:
        recorder.uninstall()
    metrics = layers.engine_layer_metrics(recorder.totals(), counters, wall)
    metrics.update(served.latency_shares(results))
    execute_s = sum(v for r in results for v in r.execute_s)
    client_gaps_s = sum(loop_wall - r.busy_s for r in results)
    metrics.update({
        "serve.cross_topology_failures": 1 if priming.late_joiner else 0,
        "unattributed_frac": (client_gaps_s + max(0.0, execute_s - worker_s))
        / (len(results) * loop_wall),
        "trace.ops": sum(r.attempted for r in results),
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / plain_wall - 1.0,
    })
    failures, problems = _served_outcome(priming, results)
    details = {"late_joiner_failure": priming.late_joiner, "failures": failures,
               "problems": problems, "server_recorded": served.server_times_ms(results)}
    return metrics["trace.ops"], failures, problems, metrics, details


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro package; run it from a "
              "repository checkout", file=sys.stderr)
        return 2
    refusal = environment_refusal(os.environ)
    if refusal is not None:
        print(f"perfbench: refusing to run: {refusal}", file=sys.stderr)
        return 3
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_probe:
        from perfbench import direct

        next(direct.GENERATORS[args.workload](args.seed))
        print("ready", flush=True)
        return 0

    runner = {
        ("cell_characterize", 0): direct_untraced,
        ("array_scale", 0): direct_untraced,
        ("served_mix", 0): served_untraced,
        ("cell_characterize", 1): direct_traced,
        ("array_scale", 1): direct_traced,
        ("served_mix", 1): served_traced,
    }[(args.workload, args.trace)]
    try:
        stamp = provenance(args)
        attempted, failures, problems, values, details = runner(args)
    except Exception:  # report the broken run, print no result
        traceback.print_exc()
        return 1
    finally:
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass  # absent, or left non-empty by a broken run

    if args.trace:
        from perfbench.layers import PER_LAYER_METRICS as wanted
    else:
        wanted = END_TO_END_METRICS
    failed = sum(failures.values())
    result = {
        "correct": failed == 0 and not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps({"provenance": stamp}))
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
