"""Disk-backed persistent store for session solved points.

A :class:`CacheStore` persists the exact records a
:class:`~repro.spice.session.SolvedPointCache` exports — keyed by the
existing ``(topology fingerprint, overrides, pinned time, solver
options, temperature)`` cache key — so a session opened in a *new
process* starts with every point its predecessors solved.  The store
never bypasses the cache's warm-start gates: loaded points re-enter
through :meth:`SolvedPointCache.merge` and are re-screened by the value
band, the 50 K temperature band and the pinned-time key on every
lookup, exactly like points solved in-process.  (One deliberate
asymmetry: the session's *baseline* map — pre-override values recorded
when overrides are applied — is not persisted, so a fresh process
treats stored points with unknown override coordinates as
incompatible.  That is the conservative direction: a missing baseline
can only suppress a warm start, never permit one across regimes.)

On-disk format (``repro-opcache/1``)
------------------------------------

A JSONL log: one header line, then one record per solved point::

    {"schema": "repro-opcache/1"}
    {"k": [fp, [[el, attr, val], ...], time, options, temp],
     "x": [...], "i": iterations, "r": residual, "s": strategy}

``k`` is the cache key verbatim (``time`` is ``null`` for plain DC);
``x`` is the solved unknown vector.  The override coordinates a point
was solved at are recoverable from ``k[1]``, so they are not stored
twice.  Floats round-trip exactly through JSON (shortest-repr), so a
re-loaded exact key is byte-identical to the in-memory one.

Durability and concurrency
--------------------------

* **Appends are atomic**: every flush appends whole lines under an
  exclusive ``flock`` on a sidecar lock file (the lock file — not the
  store file — is locked, so compaction's atomic ``os.replace`` of the
  store never strands a waiter on a dead inode).  Two sessions flushing
  to one store interleave records but never interleave bytes; the union
  of their points survives.
* **Compaction** rewrites the log last-write-wins and LRU-bounded
  (append order approximates recency) via a temp file + ``os.replace``
  once the log holds more than twice ``max_points`` records.
* **Corruption is tolerated, not raised**: a missing/garbage header
  makes the store read as empty; a truncated or unparsable record line
  is skipped.  Both are counted (``STATS.op_store_corrupt_records`` and
  :attr:`CacheStore.corrupt_records`) and repaired by the next
  compaction.  No store condition ever crashes a solve.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

try:  # POSIX only; the store degrades to lock-free appends without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..spice.stats import STATS

#: Schema tag stamped on the first line of every store file.
OPCACHE_SCHEMA = "repro-opcache/1"

#: Default capacity (solved points kept after compaction/load).
DEFAULT_MAX_POINTS = 4096


def _key_to_json(key: Tuple) -> list:
    """Cache key tuple -> JSON-able list (overrides triples as lists)."""
    fingerprint, overrides, time_key, options_key, temperature_k = key
    return [
        fingerprint,
        [list(triple) for triple in overrides],
        time_key,
        options_key,
        temperature_k,
    ]


def _key_from_json(raw: list) -> Tuple:
    """Rebuild the exact in-memory key tuple from its JSON form."""
    fingerprint, overrides, time_key, options_key, temperature_k = raw
    return (
        str(fingerprint),
        tuple(
            (str(el), str(attr), float(val)) for el, attr, val in overrides
        ),
        None if time_key is None else float(time_key),
        str(options_key),
        float(temperature_k),
    )


def _key_id(key: Tuple) -> str:
    """Canonical string identity of a key (the dedupe handle)."""
    return json.dumps(_key_to_json(key), sort_keys=False)


class CacheStore:
    """One on-disk solved-point store (see the module docstring).

    ``path`` is the store file; parent directories are created on the
    first flush.  ``max_points`` bounds the record count kept by load
    and compaction (LRU by append order).
    """

    def __init__(self, path, max_points: int = DEFAULT_MAX_POINTS):
        self.path = Path(path)
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.max_points = int(max_points)
        #: Lifetime count of tolerated corrupt records/headers.
        self.corrupt_records = 0
        #: Key identities known to be on disk already (appends skip
        #: them, so repeated flushes of a stable cache write nothing).
        self._persisted: set = set()
        #: Approximate record-line count of the log (drives compaction).
        self._record_lines = 0
        #: Lifetime count of this instance's compactions (a session
        #: re-offers its whole cache after one).
        self.compactions = 0

    # -- locking --------------------------------------------------------
    def _lock_path(self) -> Path:
        return self.path.with_name(self.path.name + ".lock")

    class _Locked:
        """Exclusive advisory lock over every mutating/reading op."""

        def __init__(self, store: "CacheStore"):
            self._store = store
            self._fh = None

        def __enter__(self):
            if fcntl is not None:
                self._store._lock_path().parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self._store._lock_path(), "a")
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc):
            if self._fh is not None:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
                self._fh.close()
            return False

    # -- reading --------------------------------------------------------
    def _read_records(self) -> Tuple[Dict[str, Tuple[Tuple, tuple]], int]:
        """Parse the log: ``{key_id: (key, value)}`` last-write-wins in
        append order, plus the tolerated-corruption count."""
        records: Dict[str, Tuple[Tuple, tuple]] = {}
        bad = 0
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return records, 0
        except OSError:
            return records, 1
        lines = text.splitlines()
        self._record_lines = max(0, len(lines) - 1)
        if not lines:
            return records, 0
        try:
            header = json.loads(lines[0])
            schema = header.get("schema")
        except (json.JSONDecodeError, AttributeError):
            schema = None
        if schema != OPCACHE_SCHEMA:
            # Unknown/garbage header: the whole file is unreadable as a
            # store.  Treated as empty; the next compaction rewrites it.
            return records, 1
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                key = _key_from_json(row["k"])
                value = (
                    key[4],                      # temperature_k
                    key[2],                      # time_key
                    key[3],                      # options_key
                    {(el, attr): val for el, attr, val in key[1]},
                    [float(v) for v in row["x"]],
                    int(row["i"]),
                    float(row["r"]),
                    str(row["s"]),
                )
            except (json.JSONDecodeError, KeyError, IndexError, TypeError,
                    ValueError):
                bad += 1
                continue
            key_id = _key_id(key)
            if key_id in records:
                del records[key_id]  # re-insert at the tail (recency)
            records[key_id] = (key, value)
        return records, bad

    def load(self) -> List[Tuple[Tuple, tuple]]:
        """Read the store into the ``SolvedPointCache.export()`` format.

        Feeds ``cache.merge(store.load())`` on session open.  Corrupt
        headers/records are tolerated and counted; the newest
        ``max_points`` records win.
        """
        with self._Locked(self):
            records, bad = self._read_records()
        self._note_corruption(bad)
        out = list(records.values())
        if len(out) > self.max_points:
            out = out[-self.max_points:]
        self._persisted.update(_key_id(key) for key, _value in out)
        STATS.op_store_loads += 1
        STATS.op_store_points_loaded += len(out)
        return out

    def __len__(self) -> int:
        """Distinct solved points currently readable from disk."""
        with self._Locked(self):
            records, _bad = self._read_records()
        return min(len(records), self.max_points)

    # -- writing --------------------------------------------------------
    @staticmethod
    def _record_line(key: Tuple, value: tuple) -> str:
        _temp, _time, _okey, _coords, x, iterations, residual, strategy = value
        x_list = x.tolist() if hasattr(x, "tolist") else [float(v) for v in x]
        return json.dumps(
            {
                "k": _key_to_json(key),
                "x": x_list,
                "i": int(iterations),
                "r": float(residual),
                "s": str(strategy),
            }
        )

    def absorb(self, exported: List[Tuple[Tuple, tuple]]) -> int:
        """Append the not-yet-persisted points of a cache export.

        One flush = one atomic locked append of whole lines; returns
        the number of records written.  Triggers compaction when the
        log has grown past twice ``max_points``.
        """
        fresh = [
            (key, value)
            for key, value in exported
            if _key_id(key) not in self._persisted
        ]
        STATS.op_store_flushes += 1
        if not fresh:
            return 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = "".join(
            self._record_line(key, value) + "\n" for key, value in fresh
        )
        bad_header = 0
        with self._Locked(self):
            new_file = not self.path.exists() or self.path.stat().st_size == 0
            if not new_file:
                # Appending after a garbage header would write records
                # no load could ever see; replace the unreadable file.
                with open(self.path) as fh:
                    first = fh.readline()
                try:
                    valid = json.loads(first).get("schema") == OPCACHE_SCHEMA
                except (json.JSONDecodeError, AttributeError):
                    valid = False
                if not valid:
                    new_file = True
                    bad_header = 1
                    self.path.unlink()
                    self._record_lines = 0
            with open(self.path, "a") as fh:
                if new_file:
                    fh.write(json.dumps({"schema": OPCACHE_SCHEMA}) + "\n")
                fh.write(payload)
        self._note_corruption(bad_header)
        self._persisted.update(_key_id(key) for key, _value in fresh)
        self._record_lines += len(fresh)
        STATS.op_store_points_written += len(fresh)
        if self._record_lines > 2 * self.max_points:
            self.compact()
        return len(fresh)

    def compact(self) -> int:
        """Rewrite the log: last-write-wins, newest ``max_points`` kept.

        Atomic (temp file + ``os.replace``) under the store lock; also
        repairs any tolerated corruption.  Returns the record count of
        the compacted store.
        """
        with self._Locked(self):
            records, bad = self._read_records()
            kept = list(records.items())
            if len(kept) > self.max_points:
                kept = kept[-self.max_points:]
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                fh.write(json.dumps({"schema": OPCACHE_SCHEMA}) + "\n")
                for _key_str, (key, value) in kept:
                    fh.write(self._record_line(key, value) + "\n")
            os.replace(tmp, self.path)
            self._record_lines = len(kept)
        self._note_corruption(bad)
        self._persisted = {_key_id(key) for _k, (key, _v) in kept}
        # Last, so a flush that sees the new count sees the new set.
        self.compactions += 1
        return len(kept)

    def _note_corruption(self, bad: int) -> None:
        if bad:
            self.corrupt_records += bad
            STATS.op_store_corrupt_records += bad


__all__ = ["CacheStore", "OPCACHE_SCHEMA", "DEFAULT_MAX_POINTS"]
