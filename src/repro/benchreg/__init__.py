"""Benchmark-campaign governance: recorded ``--bench`` runs, counter
gates, and trend reports.

The package turns ``--bench`` from a print statement into a governed
trajectory with three verbs (all wired into the CLI):

* **record** (``--bench-record``) — append the run's bench rows to the
  schema-versioned campaign index ``benchmarks/index.json``, with full
  provenance: date (injectable clock), git SHA (best-effort), host
  fingerprint (machine / python / numpy / scipy / cpu count), and the
  per-plan ``trace_summary`` attribution each row already carries.
* **check** (``--bench-check [--baseline REF]``) — resolve a baseline
  from the index (latest same-host entry by default) and gate the
  current run against it: counter metrics are *hard gates* (exact,
  deterministic — the trustworthy signal on the 1-CPU CI container),
  wall times are *advisory* within a configurable tolerance band, and
  any hard-gate regression exits non-zero with a named-metric diff.
* **report** (``--bench-report``) — render the whole index as a
  markdown trajectory (``benchmarks/TREND.md``) with per-metric
  sparkline-style rows, first-seen/last-changed annotations, and
  saturation notes.

Recording or gating refuses outright while a :mod:`repro.faultinject`
plan is armed — a perturbed run must never become a baseline.

The index schema (``repro-bench-index/1``) and the hard/advisory gate
table are documented in :mod:`repro.benchreg.schema`.  The first two
index entries were lifted from the pre-index ``BENCH_*.json`` snapshots
in ``benchmarks/``, which they cite as ``source`` provenance.
"""

from ..errors import BenchRegError
from .compare import (
    DEFAULT_TOLERANCE,
    Comparison,
    Delta,
    check_against_index,
    classify,
    compare_rows,
    render_check,
    resolve_baseline,
)
from .record import ensure_unperturbed, make_entry, record_campaign
from .report import SATURATION_N, render_trend, write_trend
from .schema import (
    ADVISORY_GATES,
    DEFAULT_INDEX_PATH,
    HARD_GATES,
    INDEX_SCHEMA,
    build_info,
    flatten_metrics,
    git_sha,
    host_fingerprint,
    load_index,
    new_index,
    save_index,
    short_sha,
    validate_index,
)

__all__ = [
    "ADVISORY_GATES",
    "BenchRegError",
    "Comparison",
    "DEFAULT_INDEX_PATH",
    "DEFAULT_TOLERANCE",
    "Delta",
    "HARD_GATES",
    "INDEX_SCHEMA",
    "SATURATION_N",
    "build_info",
    "check_against_index",
    "classify",
    "compare_rows",
    "ensure_unperturbed",
    "flatten_metrics",
    "git_sha",
    "host_fingerprint",
    "load_index",
    "make_entry",
    "new_index",
    "record_campaign",
    "render_check",
    "render_trend",
    "resolve_baseline",
    "save_index",
    "short_sha",
    "validate_index",
    "write_trend",
]
