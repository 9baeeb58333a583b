"""Baseline resolution and the regression gate.

``--bench-check`` compares a candidate run (live ``--bench`` rows, or a
recorded entry) against a baseline entry resolved from the index:

* an explicit ``--baseline REF`` matches an entry id (``c0003``), a
  label (``pr5``), a date (latest entry of ``2026-07-27``), or the
  literal ``latest``;
* by default, the **latest same-host entry** (host fingerprint match,
  see :func:`~.schema.host_fingerprint`) — falling back to the latest
  entry of any host, with the fallback named in the resolution note so
  a cross-stack comparison is never silent.

Each metric delta is classified ``improved`` / ``stable`` /
``regressed`` / ``new-metric``.  Counter metrics in
:data:`~.schema.HARD_GATES` compare exactly (tolerance zero — they are
deterministic on a fixed host) and a regression fails the check; the
advisory wall-time metrics classify against a relative tolerance band
and never fail.  Metrics the baseline row lacks are ``new-metric``:
informational by construction, so a schema that *grows* new counters
(the normal direction of travel) never breaks old baselines.

The hard gates also apply per plan: each root of a row's
``trace_summary`` (normally one ``plan`` span) gates its own counters
as ``plan[<index>:<kind>].<counter>``, so one plan's regression cannot
hide behind another plan's gain in the experiment total.  When the
candidate's roots differ from the baseline's in number or kinds, its
per-plan metrics are all ``new-metric``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import BenchRegError
from . import schema

#: Default relative tolerance band for advisory (wall-time) metrics.
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class Delta:
    """One classified metric movement between baseline and candidate."""

    experiment: str
    metric: str
    severity: str  # "hard" | "advisory" | "info"
    direction: str  # "lower" | "higher" (which way is better)
    baseline: Optional[float]  # None <=> new metric
    candidate: float
    status: str  # "improved" | "stable" | "regressed" | "new-metric"

    @property
    def gate_failure(self) -> bool:
        return self.severity == "hard" and self.status == "regressed"

    def describe(self) -> str:
        if self.baseline is None:
            return (
                f"{self.experiment}.{self.metric}: (new metric) -> "
                f"{self.candidate:g}"
            )
        arrow = f"{self.baseline:g} -> {self.candidate:g}"
        return f"{self.experiment}.{self.metric}: {arrow} [{self.status}]"

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "metric": self.metric,
            "severity": self.severity,
            "direction": self.direction,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "status": self.status,
        }


@dataclass
class Comparison:
    """The full result of gating a candidate run against a baseline."""

    baseline_id: str
    resolution: str  # how the baseline was chosen
    tolerance: float
    deltas: List[Delta] = field(default_factory=list)
    #: Experiments the baseline has (default leg) but the candidate run
    #: did not execute — informational, a partial run is a valid check.
    uncompared: List[str] = field(default_factory=list)

    @property
    def hard_failures(self) -> List[Delta]:
        return [delta for delta in self.deltas if delta.gate_failure]

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def counts(self) -> Dict[str, int]:
        out = {"improved": 0, "stable": 0, "regressed": 0, "new-metric": 0}
        for delta in self.deltas:
            out[delta.status] += 1
        return out


def resolve_baseline(
    index: Mapping[str, object],
    ref: Optional[str] = None,
    host: Optional[Mapping[str, object]] = None,
) -> Tuple[Dict[str, object], str]:
    """Pick the baseline entry: ``(entry, how-it-was-chosen)``.

    Raises :class:`BenchRegError` on an empty index or an unknown ref.
    """
    entries = list(index["entries"])
    if not entries:
        raise BenchRegError(
            "cannot resolve a baseline: the campaign index is empty "
            "(record one with --bench-record)"
        )
    if ref is not None and ref != "latest":
        for entry in reversed(entries):
            if ref in (entry.get("id"), entry.get("label"), entry.get("date")):
                return entry, f"explicit ref {ref!r}"
        known = ", ".join(str(entry["id"]) for entry in entries)
        raise BenchRegError(
            f"baseline ref {ref!r} matches no entry id/label/date "
            f"(known ids: {known})"
        )
    if ref == "latest":
        return entries[-1], "explicit ref 'latest'"
    fingerprint = (host or schema.host_fingerprint()).get("fingerprint")
    for entry in reversed(entries):
        if entry["host"].get("fingerprint") == fingerprint:
            return entry, f"latest same-host entry ({entry['id']})"
    return entries[-1], (
        f"latest entry ({entries[-1]['id']}) — NO same-host entry found; "
        "counter gates may reflect a different numeric stack"
    )


def classify(
    baseline: Optional[float],
    candidate: float,
    direction: str,
    tolerance: float,
) -> str:
    """Classify one metric movement (see the module docstring)."""
    if baseline is None:
        return "new-metric"
    delta = candidate - baseline
    if direction == "higher":
        delta = -delta
    # delta > 0 now always means "worse".
    if tolerance > 0:
        span = abs(baseline) * tolerance
        if abs(candidate - baseline) <= span:
            return "stable"
    elif delta == 0:
        return "stable"
    return "regressed" if delta > 0 else "improved"


def _plan_gates(row: Mapping[str, object]) -> List[Tuple[str, Dict[str, float]]]:
    """Per ``trace_summary`` root of a bench row: its label
    (``plan[<index>:<kind>]``) and its hard-gated counters.

    A root's counters are the non-zero deltas of its span, so a gate
    missing from them moved by zero.
    """
    summary = row.get("trace_summary")
    roots = summary.get("roots", []) if isinstance(summary, Mapping) else []
    plans = []
    for index, root in enumerate(roots):
        kind = root.get("kind", root.get("span", "?"))
        counters = schema.flatten_metrics(root.get("counters", {}))
        gated = {
            name: value
            for name, value in counters.items()
            if name in schema.HARD_GATES
        }
        plans.append((f"plan[{index}:{kind}]", gated))
    return plans


def _plan_deltas(
    experiment: str,
    row: Mapping[str, object],
    base_row: Optional[Mapping[str, object]],
) -> List[Delta]:
    """The per-plan hard-gate deltas of one experiment (module docstring)."""
    plans = _plan_gates(row)
    base_plans = _plan_gates(base_row) if base_row is not None else []
    matched = [label for label, _ in plans] == [label for label, _ in base_plans]
    deltas = []
    for position, (label, counters) in enumerate(plans):
        base_counters = base_plans[position][1] if matched else {}
        for counter in sorted(set(counters) | set(base_counters)):
            value = counters.get(counter, 0)
            base_value = base_counters.get(counter, 0) if matched else None
            direction = schema.HARD_GATES[counter]
            deltas.append(
                Delta(
                    experiment=experiment,
                    metric=f"{label}.{counter}",
                    severity="hard",
                    direction=direction,
                    baseline=base_value,
                    candidate=value,
                    status=classify(base_value, value, direction, 0.0),
                )
            )
    return deltas


def compare_rows(
    baseline_entry: Mapping[str, object],
    rows: List[Mapping[str, object]],
    *,
    resolution: str = "",
    tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Gate candidate ``--bench`` rows against one baseline entry.

    Only default-leg baseline rows participate (forced-grouping /
    scalar legs are trajectory colour, not baselines).  Candidate
    experiments absent from the baseline produce ``new-metric`` deltas
    throughout; baseline experiments the candidate did not run are
    listed as ``uncompared``.  Each row's totals are followed by its
    per-plan gates (:func:`_plan_gates`).
    """
    comparison = Comparison(
        baseline_id=str(baseline_entry.get("id", "?")),
        resolution=resolution,
        tolerance=tolerance,
    )
    compared = set()
    for row in rows:
        experiment = row["experiment"]
        compared.add(experiment)
        base_row = schema.default_row(baseline_entry, experiment)
        base_metrics = (
            schema.flatten_metrics(base_row) if base_row is not None else {}
        )
        for metric, value in sorted(schema.flatten_metrics(row).items()):
            severity = schema.metric_severity(metric)
            direction = schema.metric_direction(metric)
            base_value = base_metrics.get(metric)
            # A counter the baseline never recorded is a new metric even
            # when the baseline row exists (schema growth, e.g. PR-4
            # rows predate the session-cache counters).
            status = classify(
                base_value,
                value,
                direction,
                tolerance if severity == "advisory" else 0.0,
            )
            comparison.deltas.append(
                Delta(
                    experiment=experiment,
                    metric=metric,
                    severity=severity,
                    direction=direction,
                    baseline=base_value,
                    candidate=value,
                    status=status,
                )
            )
        comparison.deltas.extend(_plan_deltas(experiment, row, base_row))
    for experiment, _row in schema.iter_default_rows(baseline_entry):
        if experiment not in compared:
            comparison.uncompared.append(experiment)
    return comparison


def render_check(comparison: Comparison, verbose: bool = False) -> str:
    """Human-readable gate verdict with a named-metric diff.

    Always names every hard-gate regression; ``verbose`` adds the full
    classified delta list.
    """
    lines = [
        f"bench-check: baseline {comparison.baseline_id} "
        f"({comparison.resolution}), wall tolerance "
        f"±{comparison.tolerance:.0%}",
    ]
    counts = comparison.counts()
    lines.append(
        "bench-check: "
        + "  ".join(f"{status}={counts[status]}" for status in sorted(counts))
    )
    interesting = [
        delta
        for delta in comparison.deltas
        if verbose
        or delta.gate_failure
        or (delta.status in ("improved", "regressed") and delta.severity != "info")
    ]
    for delta in interesting:
        tag = {"hard": "GATE", "advisory": "advisory", "info": "info"}[delta.severity]
        lines.append(f"  [{tag}] {delta.describe()}")
    for experiment in comparison.uncompared:
        lines.append(f"  (baseline experiment {experiment} not in this run)")
    failures = comparison.hard_failures
    if failures:
        named = ", ".join(f"{d.experiment}.{d.metric}" for d in failures)
        lines.append(
            f"bench-check: FAIL — {len(failures)} hard-gate regression(s): {named}"
        )
    else:
        lines.append("bench-check: PASS — no hard-gate regressions")
    return "\n".join(lines)


def check_against_index(
    index: Mapping[str, object],
    rows: List[Mapping[str, object]],
    *,
    ref: Optional[str] = None,
    host: Optional[Mapping[str, object]] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Comparison:
    """Resolve a baseline from ``index`` and gate ``rows`` against it."""
    baseline, resolution = resolve_baseline(index, ref=ref, host=host)
    return compare_rows(
        baseline, rows, resolution=resolution, tolerance=tolerance
    )
