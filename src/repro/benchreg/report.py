"""Trend reporter: the campaign index rendered as a markdown trajectory.

``--bench-report`` writes ``benchmarks/TREND.md``: one campaign table
(provenance of every recorded entry), then one section per experiment
with each metric's value trajectory across campaigns
(``1059 → 1059 → 132``-style rows — the textual sparkline), annotated
with where the metric first appeared, where it last moved, and a
saturation note once it has been flat for :data:`SATURATION_N`
consecutive campaigns (a saturated counter is a candidate for
*retiring* from close watch, exactly the radslice-style suite-evolution
signal).

Rendering is a pure function of the index — no clock, no host probes —
so the report is byte-stable for a given index and golden-testable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from . import schema

#: A metric flat for this many consecutive campaigns is annotated as
#: saturated in the trend tables.
SATURATION_N = 3

#: Placeholder for "this campaign did not run this experiment".
_GAP = "·"


def _format(value: Optional[float]) -> str:
    if value is None:
        return _GAP
    if isinstance(value, float) and not value.is_integer():
        return f"{value:g}"
    return str(int(value))


def _metric_order(metrics) -> List[str]:
    """wall_s first, hard gates next, the rest alphabetically."""

    def key(name: str) -> Tuple[int, str]:
        if name == "wall_s":
            return (0, name)
        if name in schema.HARD_GATES:
            return (1, name)
        return (2, name)

    return sorted(metrics, key=key)


def _annotate(
    ids: List[str], values: List[Optional[float]], flat_n: int
) -> str:
    """first-seen / last-changed / saturation notes for one trajectory."""
    present = [
        (campaign, value) for campaign, value in zip(ids, values) if value is not None
    ]
    notes: List[str] = []
    first_id = present[0][0]
    if first_id != ids[0]:
        notes.append(f"first @{first_id}")
    changes = [
        campaign
        for (_, previous), (campaign, current) in zip(present, present[1:])
        if current != previous
    ]
    if changes:
        notes.append(f"last changed @{changes[-1]}")
    # Trailing run of equal present values (the saturation window).
    run = 1
    while run < len(present) and present[-1 - run][1] == present[-1][1]:
        run += 1
    if run >= flat_n:
        notes.append(f"flat ×{run} (saturated)")
    return ", ".join(notes) or "—"


def render_trend(index: Mapping[str, object], flat_n: int = SATURATION_N) -> str:
    """The whole index as a markdown trend report (see module doc)."""
    schema.validate_index(index)
    entries = list(index["entries"])
    lines = ["# Benchmark trend report", ""]
    if not entries:
        lines.append("No campaigns recorded yet (`--bench-record` appends one).")
        return "\n".join(lines) + "\n"
    latest = entries[-1]
    lines += [
        f"{len(entries)} campaign(s) in a `{index['schema']}` index · "
        f"latest {latest['id']} ({latest['date']}"
        + (f", {latest['label']}" if latest.get("label") else "")
        + ")",
        "",
        "Counters marked *hard* gate `--bench-check`; *advisory* metrics "
        f"classify against a tolerance band but never fail; metrics flat for "
        f"{flat_n}+ campaigns carry a saturation note.  Regenerate with "
        "`PYTHONPATH=src python -m repro --bench-report`.",
        "",
        "## Campaigns",
        "",
        "| id | date | label | pr | git | host | source |",
        "|---|---|---|---|---|---|---|",
    ]
    for entry in entries:
        sha = str(entry.get("git_sha", "unknown"))
        fingerprint = str(entry["host"].get("fingerprint", "?"))
        if len(fingerprint) > 48:
            fingerprint = fingerprint[:47] + "…"
        fingerprint = fingerprint.replace("|", "\\|")
        lines.append(
            "| {id} | {date} | {label} | {pr} | {git} | {host} | {source} |".format(
                id=entry["id"],
                date=entry["date"],
                label=entry.get("label") or "—",
                pr=entry.get("pr") if entry.get("pr") is not None else "—",
                git=schema.short_sha(sha),
                host=fingerprint,
                source=entry.get("source") or "—",
            )
        )
    ids = [str(entry["id"]) for entry in entries]
    header_arrows = " → ".join(ids)
    # Experiments in first-appearance order; per experiment, one
    # trajectory row per metric that is ever non-zero (all-zero counters
    # would drown the signal in noise rows).
    experiments: List[str] = []
    for entry in entries:
        for name, _row in schema.iter_default_rows(entry):
            if name not in experiments:
                experiments.append(name)
    for experiment in experiments:
        rows = [schema.default_row(entry, experiment) for entry in entries]
        metric_values: Dict[str, List[Optional[float]]] = {}
        for row in rows:
            flat = schema.flatten_metrics(row) if row is not None else {}
            for metric in flat:
                metric_values.setdefault(metric, [])
        for metric, values in metric_values.items():
            for row in rows:
                flat = schema.flatten_metrics(row) if row is not None else {}
                values.append(flat.get(metric))
        lines += [
            "",
            f"## {experiment}",
            "",
            f"| metric | gate | {header_arrows} | notes |",
            "|---|---|---|---|",
        ]
        for metric in _metric_order(metric_values):
            values = metric_values[metric]
            if not any(value for value in values):
                continue
            severity = schema.metric_severity(metric)
            trajectory = " → ".join(_format(value) for value in values)
            lines.append(
                f"| {metric} | {severity} | {trajectory} | "
                f"{_annotate(ids, values, flat_n)} |"
            )
    return "\n".join(lines) + "\n"


def write_trend(index: Mapping[str, object], path, flat_n: int = SATURATION_N) -> Path:
    """Render :func:`render_trend` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_trend(index, flat_n=flat_n))
    return path
