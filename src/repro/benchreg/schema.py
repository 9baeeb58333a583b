"""Campaign-index schema: entry shape, provenance, and the gate table.

The index (``benchmarks/index.json``) is a schema-versioned, append-only
record of benchmark campaigns.  Each entry is one ``--bench`` run:

.. code-block:: json

    {
      "schema": "repro-bench-index/1",
      "entries": [
        {
          "id": "c0003",
          "date": "2026-08-07",
          "recorded_at": "2026-08-07T12:00:00Z",
          "label": "pr8",
          "pr": 8,
          "command": "python -m repro --bench fig8 startup_transient",
          "notes": "",
          "source": null,
          "git_sha": "ad4646e...",
          "host": {"machine": "x86_64", "python": "3.12.3", "numpy": "2.1.0",
                   "scipy": "1.14.1", "cpus": 4, "platform": "Linux-...",
                   "fingerprint": "machine=x86_64|python=3.12.3|..."},
          "rows": [{"experiment": "fig8", "wall_s": 0.08, "factorizations": 0,
                    "...": "every --bench counter, plus trace_summary"}]
        }
      ]
    }

``entries`` is append-only and chronologically ordered; ``id`` is
assigned at record time (``c0001``, ``c0002``...).  ``source`` cites the
legacy ``BENCH_*.json`` snapshot an entry was migrated from (``null``
for natively recorded campaigns).  The host ``fingerprint`` is the
solver-relevant identity — machine/python/numpy/scipy/cpu-count, *not*
the kernel build — because those are what move deterministic counter
trajectories; baseline resolution prefers same-fingerprint entries.

Gate table
----------

Counters are deterministic on a fixed host (the repo's standing 1-CPU
CI caveat: wall clocks there lie, counters do not), so counter metrics
are **hard gates**: any worsening against the baseline fails
``--bench-check``.  Wall times are **advisory**: classified against a
relative tolerance band but never fatal.  Everything else numeric is
**informational** — classified and reported, never gating.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import BenchRegError

#: Schema tag stamped on every index file.
INDEX_SCHEMA = "repro-bench-index/1"

#: Default on-disk home of the campaign index.
DEFAULT_INDEX_PATH = Path("benchmarks") / "index.json"

#: Hard-gated counter metrics and the direction that counts as *better*.
#: A candidate worsening any of these against the baseline fails the
#: check.  ``strategies.<name>`` rows gate the DC strategy ladder: a
#: solve that needs gain/gmin/source stepping where the baseline ran
#: plain Newton is a real robustness regression, not noise.
HARD_GATES: Dict[str, str] = {
    "newton_solves": "lower",
    # Newton runs that returned no solution: a stall window that pushes
    # a convergent run onto the ladder fails here by name.
    "newton_failures": "lower",
    "factorizations": "lower",
    "sparse_factorizations": "lower",
    # Jacobian format conversions into splu: the CSC end-to-end
    # pipeline keeps this at zero, so ANY increment is a regression
    # (someone re-densified or re-formatted a matrix per iteration).
    "sparse_conversions": "lower",
    # Static linear elements stamped through their own ``stamp``: only
    # the non-resistor ones, on every static pass (plain resistors are
    # filled from packed values), so an increment means resistors went
    # back to stamping one by one.
    "linear_stamps": "lower",
    # .SUBCKT text work at parse time: one compile per definition and
    # model scope, plus one per body line an instance parses as text.
    # Falling back to per-instance expansion multiplies it by the
    # instance count (large_n: 2 -> ~620).
    "subckt_compiles": "lower",
    "ac_factorizations": "lower",
    "op_cache_hits": "higher",
    "op_cache_warm_starts": "higher",
    "op_cache_misses": "lower",
    # Persistent-store integrity: any unreadable record is data loss
    # somewhere upstream (a torn write, a bad merge), so increments gate.
    "op_store_corrupt_records": "lower",
    "strategies.gain-stepping": "lower",
    "strategies.gmin-stepping": "lower",
    "strategies.source-stepping": "lower",
    "retries": "lower",
    "worker_failures": "lower",
    "serial_fallbacks": "lower",
}

#: Advisory metrics: classified against a tolerance band, never fatal
#: (wall clocks on shared CI hosts are noise; the counters above are
#: the trustworthy signal).
ADVISORY_GATES: Dict[str, str] = {
    "wall_s": "lower",
}

#: Display direction for informational metrics that are unambiguously
#: better when higher; every other informational metric defaults to
#: "lower" purely for improved/regressed labelling.
_HIGHER_IS_BETTER_INFO = frozenset(
    {"lu_reuses", "ac_factor_reuses", "op_cache_hits", "op_cache_warm_starts"}
)

#: Row keys that are not metrics.
_NON_METRIC_KEYS = frozenset({"experiment", "leg", "trace_summary"})


def metric_severity(metric: str) -> str:
    """``"hard"``, ``"advisory"`` or ``"info"`` for a flattened metric."""
    if metric in HARD_GATES:
        return "hard"
    if metric in ADVISORY_GATES:
        return "advisory"
    return "info"


def metric_direction(metric: str) -> str:
    """Which way is *better* for a flattened metric name."""
    if metric in HARD_GATES:
        return HARD_GATES[metric]
    if metric in ADVISORY_GATES:
        return ADVISORY_GATES[metric]
    base = metric.split(".", 1)[-1]
    return "higher" if base in _HIGHER_IS_BETTER_INFO else "lower"


def flatten_metrics(row: Mapping[str, object]) -> Dict[str, float]:
    """A bench row's numeric metrics as a flat name → value mapping.

    The ``strategies`` histogram flattens to ``strategies.<name>``;
    identity keys and the ``trace_summary`` digest are skipped.
    """
    out: Dict[str, float] = {}
    for key, value in row.items():
        if key in _NON_METRIC_KEYS:
            continue
        if key == "strategies" and isinstance(value, Mapping):
            for name, count in value.items():
                out[f"strategies.{name}"] = count
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[key] = value
    return out


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def host_fingerprint() -> Dict[str, object]:
    """The current host's solver-relevant identity.

    ``fingerprint`` deliberately excludes the kernel build string
    (``platform`` is kept for display only): counter trajectories move
    with the BLAS/numpy/scipy stack and the core count, not with kernel
    point releases, so that is what "same host" means for baseline
    resolution.
    """
    import platform as _platform

    import numpy
    import scipy

    info: Dict[str, object] = {
        "machine": _platform.machine(),
        "python": _platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count() or 1,
        "platform": _platform.platform(),
    }
    info["fingerprint"] = "|".join(
        f"{key}={info[key]}" for key in ("machine", "python", "numpy", "scipy", "cpus")
    )
    return info


#: Suffix of a SHA whose work tree has uncommitted changes to tracked
#: files: the code measured is not the code of that commit.
DIRTY_MARK = "-dirty"


def git_sha(cwd: Optional[os.PathLike] = None) -> str:
    """The current commit SHA, best-effort: ``"unknown"`` outside a git
    work tree (or when git itself is unavailable).  When tracked files
    differ from that commit the SHA carries :data:`DIRTY_MARK`;
    untracked files are ignored."""

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10
        )

    try:
        head = git("rev-parse", "HEAD")
        sha = head.stdout.strip()
        if head.returncode != 0 or not sha:
            return "unknown"
        dirty = git("diff", "--quiet", "HEAD", "--").returncode == 1
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return sha + DIRTY_MARK if dirty else sha


def short_sha(sha: str) -> str:
    """``sha`` cut to 12 characters for display, keeping a dirty mark."""
    sha = str(sha)
    if sha.endswith(DIRTY_MARK):
        return sha[: -len(DIRTY_MARK)][:12] + DIRTY_MARK
    return sha[:12]


def build_info(
    host: Optional[Mapping[str, object]] = None, sha: Optional[str] = None
) -> Dict[str, object]:
    """Flat provenance labels for the ``repro_build_info`` metric (and
    the once-per-run ``--bench`` provenance line)."""
    host = dict(host_fingerprint() if host is None else host)
    labels = {
        key: host[key]
        for key in ("machine", "python", "numpy", "scipy", "cpus")
        if key in host
    }
    labels["git_sha"] = git_sha() if sha is None else sha
    return labels


# ----------------------------------------------------------------------
# Index shape
# ----------------------------------------------------------------------

def new_index() -> Dict[str, object]:
    """An empty, valid campaign index."""
    return {"schema": INDEX_SCHEMA, "entries": []}


def next_entry_id(index: Mapping[str, object]) -> str:
    """Sequential id for the next appended entry (``c0001``, ...).

    Derived from the highest existing id rather than the list length so
    ids stay unique even if an entry is ever pruned by hand.
    """
    highest = 0
    for entry in index["entries"]:
        raw = str(entry.get("id", ""))
        if raw.startswith("c") and raw[1:].isdigit():
            highest = max(highest, int(raw[1:]))
    return f"c{highest + 1:04d}"


def validate_entry(entry: object, where: str = "entry") -> Dict[str, object]:
    """Shape-check one campaign entry, returning it."""
    if not isinstance(entry, dict):
        raise BenchRegError(f"{where}: not a mapping")
    for key in ("id", "date", "host", "rows"):
        if key not in entry:
            raise BenchRegError(f"{where}: missing required key {key!r}")
    host = entry["host"]
    if not isinstance(host, dict) or "fingerprint" not in host:
        raise BenchRegError(f"{where}: host must be a mapping with a 'fingerprint'")
    rows = entry["rows"]
    if not isinstance(rows, list):
        raise BenchRegError(f"{where}: rows must be a list")
    for position, row in enumerate(rows):
        if not isinstance(row, dict) or "experiment" not in row:
            raise BenchRegError(
                f"{where}: rows[{position}] must be a mapping with an 'experiment'"
            )
    return entry


def validate_index(data: object, where: str = "index") -> Dict[str, object]:
    """Shape-check a whole index document, returning it."""
    if not isinstance(data, dict):
        raise BenchRegError(f"{where}: not a mapping")
    if data.get("schema") != INDEX_SCHEMA:
        raise BenchRegError(
            f"{where}: schema is {data.get('schema')!r}, expected {INDEX_SCHEMA!r}"
        )
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise BenchRegError(f"{where}: entries must be a list")
    seen: set = set()
    for position, entry in enumerate(entries):
        validate_entry(entry, where=f"{where}: entries[{position}]")
        if entry["id"] in seen:
            raise BenchRegError(f"{where}: duplicate entry id {entry['id']!r}")
        seen.add(entry["id"])
    return data


def load_index(path) -> Dict[str, object]:
    """Read and validate the index at ``path``."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchRegError(f"no campaign index at {path}") from None
    except json.JSONDecodeError as exc:
        raise BenchRegError(f"campaign index {path} is not valid JSON: {exc}") from None
    return validate_index(data, where=str(path))


def save_index(index: Mapping[str, object], path) -> Path:
    """Validate and write the index to ``path`` (pretty-printed, stable
    key order — the file is committed, so diffs must be reviewable)."""
    validate_index(index)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")
    return path


def iter_default_rows(
    entry: Mapping[str, object],
) -> Iterable[Tuple[str, Mapping[str, object]]]:
    """The comparable (experiment, row) pairs of an entry: its default
    legs.  Alternate legs (forced grouping, scalar fallback, cache
    seeding experiments) are trajectory colour, not baselines."""
    for row in entry["rows"]:
        leg = row.get("leg")
        if leg in (None, "", "default"):
            yield row["experiment"], row


def default_row(entry: Mapping[str, object], experiment: str):
    """The default-leg row for one experiment, or ``None``."""
    for name, row in iter_default_rows(entry):
        if name == experiment:
            return row
    return None
