"""Exporters over a traced run: JSONL spans, Prometheus text metrics,
and a human-readable summary tree.

All three read the same substrate — :class:`~.tracer.Tracer` span
forests and :class:`~repro.spice.stats.SolverStats` snapshots — and
none of them is ever on a hot path, so they favour explicitness over
speed.  The JSONL and Prometheus shapes are part of the telemetry
contract documented in :mod:`repro.telemetry` (the future job-server
metrics endpoint serves exactly these).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .tracer import Span, Tracer

#: Schema tag stamped on the first line of every trace file.
TRACE_SCHEMA = "repro-trace/1"

#: Prometheus metric name prefix.
METRIC_PREFIX = "repro"

#: Help strings for the scalar counters (field-generic fallback below
#: keeps a newly added counter exporting even before it is described
#: here — the same no-silent-drift rule as ``SolverStats`` itself).
_METRIC_HELP = {
    "newton_solves": "Completed Newton runs (one per DC solve attempt / transient step).",
    "newton_failures": "Newton runs that returned no solution.",
    "iterations": "Newton iterations (full Jacobian assembly + linear solve each).",
    "factorizations": "Fresh LU/splu factorizations.",
    "lu_reuses": "Iterations advanced on a stale (reused) factorization.",
    "residual_evaluations": "Residual-only assemblies (line-search and reuse probes).",
    "compiled_assemblies": "Full (J, F) assemblies.",
    "sparse_factorizations": "Factorizations routed to scipy.sparse splu.",
    "group_evals": "Vectorized device-group evaluation passes.",
    "grouped_device_evals": "Devices evaluated through the grouped path.",
    "sparse_assemblies": "Assemblies that returned a scipy.sparse Jacobian.",
    "sparse_conversions": "Jacobian format conversions paid on the way into splu.",
    "linear_stamps": "Static linear elements other than plain resistors stamped while the linear caches are built.",
    "subckt_compiles": ".SUBCKT bodies compiled into templates, plus body lines an instance parsed as text.",
    "ac_solves": "Complex linear solves of the AC subsystem (one per frequency).",
    "ac_factorizations": "Complex G + jwC factorizations.",
    "ac_factor_reuses": "AC solves served by a reused factorization.",
    "op_cache_hits": "Session solved-point cache: exact hits.",
    "op_cache_warm_starts": "Session solved-point cache: warm-started solves.",
    "op_cache_misses": "Session solved-point cache: cold solves.",
    "session_plans": "Analysis plans executed through Session.run.",
    "retries": "Supervised work items re-attempted after a retryable failure.",
    "worker_failures": "Worker-process deaths observed by the supervised layer.",
    "serial_fallbacks": "Fan-outs that fell back to in-process serial execution.",
    "op_store_loads": "Persistent store: files loaded into a session cache.",
    "op_store_points_loaded": "Persistent store: solved points loaded.",
    "op_store_flushes": "Persistent store: flushes, empty ones included.",
    "op_store_points_written": "Persistent store: solved points written.",
    "op_store_corrupt_records": "Persistent store: unreadable records/files skipped.",
    "serve_jobs_submitted": "Service: jobs accepted onto the queue.",
    "serve_jobs_rejected": "Service: submissions rejected before any solve.",
    "serve_jobs_completed": "Service: jobs finished successfully.",
    "serve_jobs_failed": "Service: jobs that terminally failed.",
}


def _stats_dict(stats=None) -> Dict[str, object]:
    if stats is None:
        from ..spice.stats import STATS

        stats = STATS
    return stats if isinstance(stats, dict) else stats.as_dict()


def _escape_label(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def prometheus_text(stats=None, build_info: Optional[Dict[str, object]] = None) -> str:
    """The counter snapshot in the Prometheus text exposition format.

    One ``repro_<counter>_total`` counter per scalar
    :class:`~repro.spice.stats.SolverStats` field, plus the DC strategy
    histogram as a labelled ``repro_dc_strategies_total`` family.  The
    set of metrics is derived from the stats fields themselves, so a
    counter added to ``SolverStats`` lands here automatically.

    ``build_info`` (e.g. :func:`repro.benchreg.build_info`: git SHA,
    machine, python/numpy/scipy versions, cpu count) is rendered as the
    conventional constant-1 ``repro_build_info`` gauge whose labels
    carry the provenance, so scraped counters are attributable to the
    code and numeric stack that produced them.
    """
    lines: List[str] = []
    if build_info:
        metric = f"{METRIC_PREFIX}_build_info"
        labels = ",".join(
            f'{key}="{_escape_label(value)}"'
            for key, value in sorted(build_info.items())
        )
        lines.append(
            f"# HELP {metric} Build/host provenance (constant 1; the labels "
            "carry the data)."
        )
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{{{labels}}} 1")
    for name, value in _stats_dict(stats).items():
        if isinstance(value, dict):
            metric = f"{METRIC_PREFIX}_dc_{name}_total"
            lines.append(f"# HELP {metric} Successful DC solves by strategy.")
            lines.append(f"# TYPE {metric} counter")
            for label, count in sorted(value.items()):
                lines.append(f'{metric}{{strategy="{label}"}} {count}')
            continue
        metric = f"{METRIC_PREFIX}_{name}_total"
        help_text = _METRIC_HELP.get(name, f"Solver counter {name}.")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    path, stats=None, build_info: Optional[Dict[str, object]] = None
) -> Path:
    """Write :func:`prometheus_text` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(prometheus_text(stats, build_info=build_info))
    return path


# ----------------------------------------------------------------------
# JSONL trace export
# ----------------------------------------------------------------------

def _flatten(span: Span, parent: Optional[int], rows: List[dict]) -> None:
    row = {
        "id": len(rows),
        "parent": parent,
        "span": span.name,
        "t_start_s": round(span.t_start, 9),
        "dur_s": round(span.duration_s, 9),
        "attrs": dict(span.attrs),
    }
    if span.counters:
        row["counters"] = dict(span.counters)
    if span.iterations:
        row["iterations"] = [dict(record) for record in span.iterations]
    rows.append(row)
    own_id = row["id"]
    for child in span.children:
        _flatten(child, own_id, rows)


def trace_rows(source: Union[Tracer, List[Span]]) -> List[dict]:
    """The span forest flattened to JSON-ready rows with parent ids
    (depth-first, so a child always follows its parent)."""
    spans = source.roots if isinstance(source, Tracer) else list(source)
    rows: List[dict] = []
    for span in spans:
        _flatten(span, None, rows)
    return rows


def write_jsonl(source: Union[Tracer, List[Span]], path) -> Path:
    """Write the trace as JSONL: a schema header line, then one line per
    span (``id``/``parent`` reconstruct the tree).  Returns the path."""
    rows = trace_rows(source)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        handle.write(json.dumps({"schema": TRACE_SCHEMA, "spans": len(rows)}) + "\n")
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def read_jsonl(path) -> List[dict]:
    """Read a trace file back as its span rows (header verified)."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        return []
    header = json.loads(lines[0])
    if header.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"not a {TRACE_SCHEMA} file: {path}")
    return [json.loads(line) for line in lines[1:]]


# ----------------------------------------------------------------------
# Human-readable summary
# ----------------------------------------------------------------------

#: Attributes worth showing on a summary line, in display order.
_SUMMARY_ATTRS = (
    "kind", "strategy", "cache", "phase", "temperature_k", "frequency_hz",
    "converged", "iterations", "accepted", "reason", "gain_rungs",
    "gmin_rungs", "source_steps", "points", "worker_pid",
)


def _format_attrs(attrs: Dict[str, object]) -> str:
    parts = []
    for key in _SUMMARY_ATTRS:
        if key in attrs:
            value = attrs[key]
            if isinstance(value, float):
                value = f"{value:g}"
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _summary_lines(span: Span, prefix: str, is_last: bool, lines: List[str],
                   top: bool) -> None:
    connector = "" if top else ("└─ " if is_last else "├─ ")
    attrs = _format_attrs(span.attrs)
    label = f"{span.name}" + (f" [{attrs}]" if attrs else "")
    detail = f" ({span.duration_s * 1e3:.2f} ms"
    if span.iterations:
        detail += f", {len(span.iterations)} iterations"
    detail += ")"
    lines.append(prefix + connector + label + detail)
    child_prefix = prefix if top else prefix + ("   " if is_last else "│  ")
    for index, child in enumerate(span.children):
        _summary_lines(child, child_prefix, index == len(span.children) - 1,
                       lines, top=False)


def summary_tree(source: Union[Tracer, List[Span]]) -> str:
    """The span forest rendered as an indented tree with durations."""
    spans = source.roots if isinstance(source, Tracer) else list(source)
    lines: List[str] = []
    for span in spans:
        _summary_lines(span, "", True, lines, top=True)
    return "\n".join(lines)


def trace_summary(source: Union[Tracer, List[Span]]) -> dict:
    """Compact JSON-ready digest of a trace for ``--bench`` rows.

    One entry per root span (normally the ``plan`` spans of a traced
    experiment), carrying its wall time and counter deltas — which is
    what gives a shared-session experiment per-plan counter attribution
    instead of one blended total.
    """
    spans = source.roots if isinstance(source, Tracer) else list(source)
    roots = []
    for span in spans:
        entry = {
            "span": span.name,
            "wall_s": round(span.duration_s, 6),
        }
        for key in ("kind", "strategy", "cache", "worker_pid"):
            if key in span.attrs:
                entry[key] = span.attrs[key]
        if span.counters:
            entry["counters"] = dict(span.counters)
        roots.append(entry)
    total = (
        source.span_count()
        if isinstance(source, Tracer)
        else len(trace_rows(spans))
    )
    return {"spans": total, "roots": roots}
