"""The unified Session analysis API: one engine lifecycle per topology.

A :class:`Session` is the engine's one front door for every analysis.
It owns ONE :class:`~repro.spice.mna.MNASystem` per topology
(``set_temperature``/``invalidate`` handled internally), one shared
:class:`~repro.spice.solver.NewtonWorkspace`, and a
**solved-point cache** that warm-starts Newton from the nearest
previously solved point — which is what amortises the cold-start
gain-stepping ladder across analyses and experiment families.  The
ladder is ~60 % of a 16-point Fig. 8 sweep's factorizations (39 of
65), because the sweep's chained points follow the solution curve from
secant starts (:class:`~repro.spice.solver.SecantChain`).

Analyses are declarative plans (:mod:`repro.spice.plans`), each run in
this process by :meth:`Session.run`; plans run on one session share its
solved-point cache.  The planner validates a plan before any solve (typed
:class:`~repro.errors.PlanError`), and every analysis returns an
:class:`AnalysisResult` with the uniform
``voltage`` / ``branch_current`` / ``to_dict`` / ``export`` accessors.

Solved-point cache
------------------

Cache key: ``(topology fingerprint, parameter overrides, pinned time,
solver options, temperature)``.

* An **exact** key match returns the stored solution with no Newton run
  at all (``op_cache_hits``).  Exact hits are only possible for
  conditions the session itself solved (or loaded from its store) — a
  temperature nudge, a changed override or a different pinned time is a
  different key, so a stale point can never be returned for new
  conditions.  The lookup runs on every solve.  A chained sweep point
  (one given the previous point's ``x0``) takes the hit only when the
  cached point was solved from the same start, bit for bit: where a
  circuit has two states at one key (a cold operating point and a
  supply sweep coming down through a fold), a sweep still follows its
  own branch, and a sweep rerun on a session that holds its points
  costs one lookup per point.  Points solved without a chained start,
  or loaded from a store, serve only unchained lookups (an operating
  point, a sweep's first point).
* On a miss, a chained sweep point starts from its ``x0`` (a
  ``"seeded"`` solve span).  Any other solve starts from the
  **nearest** cached point with the same pinned time and compatible
  override values (small absolute/relative deltas only — never across
  e.g. a 0 V vs 5 V supply, where a dead-state warm start could pull
  Newton onto a degenerate branch) as Newton's ``x0``
  (``op_cache_warm_starts``); the solve itself always runs, with the
  full fallback ladder available, so a warm start can change iteration
  counts but never the converged answer beyond solver tolerance.
* Everything else is a cold solve (``op_cache_misses``).

The cache holds ``cache_points`` points and evicts the least recently
used one: a solve inserts its point, and an exact hit refreshes it.

Mutating circuit element values *outside* the plan-override mechanism is
not tracked — call :meth:`Session.invalidate` afterwards (it clears the
cache and the system's compiled caches), exactly like the underlying
:meth:`MNASystem.invalidate` contract.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..errors import NetlistError, PlanError
from ..telemetry import tracer as _tele
from .ac import ACSystem
from .analysis import ACResult, OperatingPoint, SweepResult, _wrap_point
from .mna import MNASystem
from .netlist import Circuit
from .plans import (
    ACSweep,
    AnalysisPlan,
    DCSweep,
    MonteCarlo,
    OP,
    Overrides,
    TempSweep,
    Transient,
)
from .solver import (
    NewtonWorkspace,
    RawSolution,
    SecantChain,
    SolverOptions,
    solve_dc_system,
)
from .stats import STATS
from .transient import TransientOptions, TransientResult, run_transient_system


def _fingerprint(circuit: Circuit) -> str:
    """Topology fingerprint: element classes, names and connectivity.

    Element *values* are deliberately excluded — they are tracked by the
    override half of the cache key (and by the
    :meth:`Session.invalidate` contract for out-of-band mutation), while
    the fingerprint pins what a cached ``x`` vector *means*: the unknown
    ordering of this exact netlist.
    """
    digest = hashlib.sha1()
    digest.update(repr(circuit.title).encode())
    for element in circuit.elements:
        digest.update(type(element).__name__.encode())
        digest.update(element.name.encode())
        for node in element.nodes:
            digest.update(node.encode())
        # CCCS/CCVS connectivity includes which element's branch current
        # they sense — that reference is not in ``nodes``, and two
        # netlists differing only in it must not share cached points.
        sensed = getattr(element, "sensed", None)
        if sensed is not None:
            digest.update(b"@")
            digest.update(sensed.name.encode())
        digest.update(b";")
    return digest.hexdigest()[:16]


def _options_key(options: SolverOptions) -> str:
    """Hashable identity of a SolverOptions bundle (repr of a frozen
    dataclass is stable and value-complete)."""
    return repr(options)


#: Warm-start compatibility band for override values: two points may
#: seed each other only when every differing override is within
#: ``_WARM_ABS + _WARM_REL * |value|``.  Probe-scale deltas (a +-1 mV
#: supply FD probe, a +-1 uA load probe) pass; operating-regime changes
#: (a 0 V vs 5 V supply ramp) do not — a dead-state warm start could
#: otherwise pull Newton onto a degenerate branch of a multistable cell.
_WARM_ABS = 1e-3
_WARM_REL = 0.05
#: Warm-start temperature band [K].  Past this gap a seeded plain
#: Newton routinely fails back onto the gain-stepping ladder (junction
#: voltages move ~2 mV/K, so 50 K is ~100 mV of drift — the edge of the
#: MAX_STEP_V basin), which would make a "warm start" *slower* than a
#: cold solve while the counter still claimed a ladder skip.  Sweep
#: grids bridge larger spans by anchored chaining, not by one jump.
_WARM_MAX_DT = 50.0


class _CachedPoint:
    """One solved DC point plus the coordinates it was solved at."""

    __slots__ = (
        "temperature_k", "time_key", "options_key", "coords",
        "x", "iterations", "residual", "strategy", "start", "seq",
    )

    def __init__(self, temperature_k, time_key, options_key, coords, raw,
                 start: Optional[str] = None):
        self.temperature_k = temperature_k
        self.time_key = time_key
        self.options_key = options_key
        self.coords = coords  # {(element, attribute): value} overrides
        self.x = raw.x.copy()
        self.iterations = raw.iterations
        self.residual = raw.residual
        self.strategy = raw.strategy
        #: :func:`_start_digest` of the chained start the point was
        #: solved from; None for an unchained solve or a merged point.
        self.start = start
        #: The cache's insert count when the point went in.
        self.seq = 0


def _start_digest(x0: np.ndarray, predicted: Optional[np.ndarray]) -> str:
    """Bitwise identity of a chained solve's start (``x0`` and the
    secant ``predicted``): equal digests mean Newton ran from the same
    place, so it lands on the same branch."""
    digest = hashlib.blake2b(np.asarray(x0, float).tobytes(), digest_size=16)
    if predicted is not None:
        digest.update(b"|")
        digest.update(np.asarray(predicted, float).tobytes())
    return digest.hexdigest()


class SolvedPointCache:
    """Solved-point store with exact and nearest-neighbour lookup.

    Bounded at ``max_points``, least recently used first out: an insert
    or an exact hit makes a point the most recent.
    """

    def __init__(self, max_points: int = 512):
        if max_points < 1:
            raise ValueError(f"max_points must be >= 1, got {max_points}")
        self.max_points = max_points
        self._exact: Dict[Tuple, _CachedPoint] = {}
        #: Lifetime count of inserted points, merged ones included: a
        #: store flush exports the points inserted since its last one.
        self.inserts = 0

    def __len__(self) -> int:
        return len(self._exact)

    def clear(self) -> None:
        self._exact.clear()

    @staticmethod
    def _values_compatible(a: Mapping, b: Mapping, baseline: Mapping) -> bool:
        """True when every override value differs by at most the warm
        band.  Keys missing on one side compare against the session's
        recorded baseline value for that attribute."""
        for key in set(a) | set(b):
            va = a.get(key, baseline.get(key))
            vb = b.get(key, baseline.get(key))
            if va is None or vb is None:
                return False
            if abs(va - vb) > _WARM_ABS + _WARM_REL * max(abs(va), abs(vb)):
                return False
        return True

    def exact(self, key: Tuple, start: Optional[str] = None) -> Optional[_CachedPoint]:
        """The point cached at ``key``, or None.  A chained lookup
        passes its :func:`_start_digest` and hits only a point solved
        from that same start."""
        point = self._exact.get(key)
        if point is None or (start is not None and point.start != start):
            return None
        del self._exact[key]
        self._exact[key] = point  # a hit is the most recent use
        return point

    def nearest(
        self,
        coords: Mapping,
        time_key: Optional[float],
        temperature_k: float,
        baseline: Mapping,
        gates: Optional[Dict[str, object]] = None,
    ) -> Optional[np.ndarray]:
        """The ``x`` of the nearest compatible point, or None.

        When ``gates`` (a dict) is supplied and no candidate survives,
        it is filled with the gate that rejected each one —
        ``no_candidates`` (cache size; nothing shares the pinned time),
        ``temperature_band`` (nearest candidate's |dT| in K) or
        ``value_band`` (candidates rejected over override deltas) — the
        telemetry explanation of why a solve went cold.
        """
        best = None
        best_distance = None
        candidates = 0
        value_rejected = 0
        nearest_dt = None
        for point in self._exact.values():
            if point.time_key != time_key:
                continue
            candidates += 1
            distance = abs(point.temperature_k - temperature_k)
            if distance > _WARM_MAX_DT:
                if nearest_dt is None or distance < nearest_dt:
                    nearest_dt = distance
                continue
            if not self._values_compatible(coords, point.coords, baseline):
                value_rejected += 1
                continue
            if best_distance is None or distance < best_distance:
                best, best_distance = point, distance
        if best is None and gates is not None:
            if candidates == 0:
                gates["no_candidates"] = len(self._exact)
            else:
                if nearest_dt is not None:
                    gates["temperature_band"] = round(float(nearest_dt), 3)
                if value_rejected:
                    gates["value_band"] = value_rejected
        return None if best is None else best.x

    def compatible_temperatures(
        self,
        coords: Mapping,
        time_key: Optional[float],
        baseline: Mapping,
    ) -> List[float]:
        """Temperatures of every cached point a solve under ``coords``
        could warm-start from (sweeps use this to anchor their
        traversal at the grid point closest to cached state)."""
        return [
            point.temperature_k
            for point in self._exact.values()
            if point.time_key == time_key
            and self._values_compatible(coords, point.coords, baseline)
        ]

    def insert(self, key: Tuple, point: _CachedPoint) -> None:
        # The tail is the most recent use: re-inserting a key moves it
        # there, and a full cache evicts from the head, so the point
        # dropped is the least recently inserted or hit.
        self.inserts += 1
        point.seq = self.inserts
        if key in self._exact:
            del self._exact[key]
        elif len(self._exact) >= self.max_points:
            del self._exact[next(iter(self._exact))]
        self._exact[key] = point

    # -- persistent store support --------------------------------------
    def export(self, since: int = 0) -> List[Tuple[Tuple, Tuple]]:
        """Plain-data snapshot of the points inserted after the
        ``since``-th insert, by default every point (what a store
        persists)."""
        return [
            (key, (p.temperature_k, p.time_key, p.options_key, dict(p.coords),
                   p.x, p.iterations, p.residual, p.strategy))
            for key, p in self._exact.items()
            if p.seq > since
        ]

    def merge(self, exported) -> None:
        for key, (temperature_k, time_key, options_key, coords, x,
                  iterations, residual, strategy) in exported:
            if key in self._exact:
                continue
            raw = RawSolution(
                x=np.asarray(x, float), iterations=iterations,
                residual=residual, strategy=strategy,
            )
            self.insert(
                key,
                _CachedPoint(temperature_k, time_key, options_key, coords, raw),
            )


# ----------------------------------------------------------------------
# Result hierarchy
# ----------------------------------------------------------------------

class AnalysisResult:
    """Base of every Session result: uniform accessors over every
    analysis kind.

    ``voltage(node)`` / ``branch_current(element)`` return whatever
    shape the analysis naturally produces (a float for an operating
    point, an array over sweep values / timepoints, an array over
    temperatures for an AC sweep's operating points); ``to_dict`` is a
    JSON-ready snapshot and ``export(path)`` writes it to disk.
    """

    kind = "analysis"

    def __init__(self, session: "Session", plan: AnalysisPlan):
        self.plan = plan
        self.circuit = session.circuit
        self.fingerprint = session.fingerprint

    # -- accessors subclasses implement --------------------------------
    def voltage(self, node: str):
        raise NotImplementedError

    def branch_current(self, element_name: str):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    # -- shared machinery ----------------------------------------------
    def recorded_nodes(self) -> List[str]:
        """The nodes ``to_dict`` ships: ``plan.record`` or all of them."""
        return list(self.plan.record) or list(self.circuit.nodes)

    def export(self, path) -> Path:
        """Write :meth:`to_dict` as JSON; returns the written path."""
        path = Path(path)
        if path.suffix == "":
            path = path.with_suffix(".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    def _base_dict(self) -> dict:
        return {
            "analysis": self.kind,
            "circuit": self.circuit.title,
            "fingerprint": self.fingerprint,
            "plan": self.plan.describe(),
        }


class OPResult(AnalysisResult):
    """One solved operating point (wraps the legacy OperatingPoint)."""

    kind = "op"

    def __init__(self, session, plan, op: OperatingPoint):
        super().__init__(session, plan)
        self.op = op

    @property
    def temperature_k(self) -> float:
        return self.op.temperature_k

    def voltage(self, node: str) -> float:
        return self.op.voltage(node)

    def branch_current(self, element_name: str) -> float:
        return self.op.branch_current(element_name)

    def voltages(self) -> Dict[str, float]:
        return self.op.voltages()

    def to_dict(self) -> dict:
        out = self._base_dict()
        out.update(
            temperature_k=self.op.temperature_k,
            iterations=self.op.iterations,
            residual=self.op.residual,
            strategy=self.op.strategy,
            voltages={node: self.op.voltage(node) for node in self.recorded_nodes()},
        )
        return out


class _SweepResultBase(AnalysisResult):
    """Shared body of the DC-value and temperature sweeps."""

    def __init__(self, session, plan, sweep: SweepResult):
        super().__init__(session, plan)
        self.sweep = sweep

    @property
    def points(self) -> List[OperatingPoint]:
        return self.sweep.points

    @property
    def values(self) -> np.ndarray:
        return self.sweep.values

    def voltage(self, node: str) -> np.ndarray:
        return self.sweep.voltage(node)

    def branch_current(self, element_name: str) -> np.ndarray:
        return self.sweep.branch_current(element_name)

    def __len__(self) -> int:
        return len(self.sweep)

    def to_dict(self) -> dict:
        out = self._base_dict()
        out.update(
            parameter=self.sweep.parameter,
            values=[float(v) for v in self.sweep.values],
            temperatures_k=[p.temperature_k for p in self.points],
            iterations=[p.iterations for p in self.points],
            strategies=[p.strategy for p in self.points],
            voltages={
                node: [float(v) for v in self.voltage(node)]
                for node in self.recorded_nodes()
            },
        )
        return out


class DCSweepResult(_SweepResultBase):
    kind = "dc_sweep"


class TempSweepResult(_SweepResultBase):
    kind = "temp_sweep"


class ACSweepResult(AnalysisResult):
    """AC sweeps at each temperature's operating point.

    ``ac_results`` holds one legacy :class:`ACResult` per temperature
    (phasors, bode, margins — the full frequency-domain accessor set);
    the uniform ``voltage`` accessor reports the *operating-point*
    voltage per temperature, since that is the sweep's DC baseline.
    """

    kind = "ac_sweep"

    def __init__(self, session, plan, ac_results: List[ACResult]):
        super().__init__(session, plan)
        self.ac_results = ac_results

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.ac_results[0].frequencies_hz

    def result_at(self, index: int = 0) -> ACResult:
        return self.ac_results[index]

    def voltage(self, node: str) -> np.ndarray:
        return np.array([r.op.voltage(node) for r in self.ac_results])

    def branch_current(self, element_name: str) -> np.ndarray:
        return np.array([r.op.branch_current(element_name) for r in self.ac_results])

    def phasor(self, node: str, index: int = 0) -> np.ndarray:
        return self.ac_results[index].phasor(node)

    def magnitude_db(self, node: str, index: int = 0) -> np.ndarray:
        return self.ac_results[index].magnitude_db(node)

    def phase_deg(self, node: str, index: int = 0) -> np.ndarray:
        return self.ac_results[index].phase_deg(node)

    def to_dict(self) -> dict:
        out = self._base_dict()
        nodes = self.recorded_nodes()
        out.update(
            frequencies_hz=[float(f) for f in self.frequencies_hz],
            temperatures_k=[r.temperature_k for r in self.ac_results],
            op_voltages={node: [float(v) for v in self.voltage(node)] for node in nodes},
            magnitude_db={
                node: [
                    [float(v) for v in r.magnitude_db(node)] for r in self.ac_results
                ]
                for node in nodes
            },
            phase_deg={
                node: [
                    [float(v) for v in r.phase_deg(node)] for r in self.ac_results
                ]
                for node in nodes
            },
        )
        return out


class TransientRunResult(AnalysisResult):
    """A completed transient run (wraps the legacy TransientResult)."""

    kind = "transient"

    def __init__(self, session, plan, result: TransientResult):
        super().__init__(session, plan)
        self.result = result

    @property
    def times(self) -> np.ndarray:
        return self.result.times

    def voltage(self, node: str) -> np.ndarray:
        return self.result.voltage(node)

    def branch_current(self, element_name: str) -> np.ndarray:
        return self.result.branch_current(element_name)

    def final_op(self) -> OperatingPoint:
        return self.result.final_op()

    def to_dict(self) -> dict:
        res = self.result
        out = self._base_dict()
        out.update(
            temperature_k=res.temperature_k,
            method=res.method,
            times=[float(t) for t in res.times],
            accepted_steps=res.accepted_steps,
            rejected_lte=res.rejected_lte,
            newton_retries=res.newton_retries,
            initial_strategy=res.initial_strategy,
            voltages={
                node: [float(v) for v in res.voltage(node)]
                for node in self.recorded_nodes()
            },
        )
        return out


class MonteCarloResult(AnalysisResult):
    """Per-trial results of a :class:`~repro.spice.plans.MonteCarlo`
    plan, one per trial in trial order (the run is all-or-nothing)."""

    kind = "montecarlo"

    def __init__(self, session, plan, results: List[AnalysisResult]):
        super().__init__(session, plan)
        self.results = results

    def __len__(self) -> int:
        return len(self.results)

    def voltage(self, node: str) -> np.ndarray:
        return np.array([r.voltage(node) for r in self.results])

    def branch_current(self, element_name: str) -> np.ndarray:
        return np.array([r.branch_current(element_name) for r in self.results])

    def to_dict(self) -> dict:
        out = self._base_dict()
        out["trials"] = [r.to_dict() for r in self.results]
        return out


# ----------------------------------------------------------------------
# The session itself
# ----------------------------------------------------------------------

class Session:
    """One engine lifecycle for one circuit topology.

    ``circuit`` is either a live :class:`Circuit` instance or a
    *builder* — a callable returning the circuit, called with ``args``
    and ``kwargs``.  The session builds the circuit once, binds one
    :class:`MNASystem` to it, keeps one Newton workspace, and feeds
    every solved DC point into the solved-point cache described in the
    module docstring.
    """

    def __init__(
        self,
        circuit: Union[Circuit, Callable[..., Circuit]],
        args: Tuple = (),
        kwargs: Optional[Mapping] = None,
        *,
        temperature_k: float = 300.15,
        cache_points: int = 512,
        store=None,
    ):
        if callable(circuit):
            circuit = circuit(*args, **dict(kwargs or {}))
            if not isinstance(circuit, Circuit):
                raise NetlistError(
                    f"session builder returned {type(circuit).__name__}, "
                    "expected a Circuit"
                )
        elif args or kwargs:
            raise NetlistError(
                "builder args given but the first argument is a Circuit "
                "instance, not a builder"
            )
        self.circuit = circuit
        self.system = MNASystem(self.circuit, temperature_k=temperature_k)
        self.workspace = NewtonWorkspace()
        self.fingerprint = _fingerprint(self.circuit)
        self.cache = SolvedPointCache(cache_points)
        #: Values seen *before* the first override of each attribute —
        #: the coordinates un-overridden cache points sit at.
        self._baseline: Dict[Tuple[str, str], float] = {}
        #: Optional persistent solved-point store
        #: (:class:`repro.serve.cachestore.CacheStore`, or a path to
        #: one).  Loaded into the cache on open; :meth:`flush_store` /
        #: :meth:`close` write solved points back, so warm starts
        #: survive process death.  Only points of this topology (same
        #: fingerprint) are loaded: a store shared by several circuits
        #: keeps the others on disk, since their unknown vectors mean
        #: nothing here.  Loaded points pass through the same
        #: ``SolvedPointCache`` gates as in-process ones — the value
        #: band, temperature band and pinned-time key still screen
        #: every warm-start candidate.
        self.store = None
        #: ``(cache.inserts, store.compactions)`` when the last flush's
        #: ``absorb`` returned (or the store was loaded): the next flush
        #: offers the points inserted since, or the whole cache once the
        #: store has compacted.
        self._flushed_at = (0, 0)
        if store is not None:
            if not hasattr(store, "load"):
                from ..serve.cachestore import CacheStore

                store = CacheStore(store)
            self.store = store
            self.cache.merge(
                (key, value)
                for key, value in store.load()
                if key[0] == self.fingerprint
            )
            self._flushed_at = (self.cache.inserts, store.compactions)

    # -- persistent store ----------------------------------------------
    def flush_store(self) -> int:
        """Write this session's solved points to the attached store.

        Offers :meth:`CacheStore.absorb`, which appends only points the
        store has not persisted yet, the cached points inserted since
        the last flush that returned, so a job that solved nothing new
        hands it an empty list instead of exporting every cached point
        to find that out; ``absorb`` still runs, so every flush counts.
        A flush that raises leaves its points to the next one.  Once
        the store has compacted, which can drop a point this session
        still caches, the next flush offers the whole cache and the
        store appends that point again.  Returns the number written;
        no-op (returning 0) without a store.
        """
        if self.store is None:
            return 0
        inserts, compactions = self.cache.inserts, self.store.compactions
        flushed, seen = self._flushed_at
        since = flushed if compactions == seen else 0
        exported = self.cache.export(since) if inserts > since else []
        written = self.store.absorb(exported)
        self._flushed_at = (inserts, compactions)
        return written

    def close(self) -> None:
        """Flush the persistent store (if any).  The session remains
        usable afterwards — ``close`` marks a durability point, not an
        invalidation."""
        self.flush_store()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- lifecycle -----------------------------------------------------
    def invalidate(self) -> None:
        """Drop cached engine state after out-of-band value mutation.

        Clears the solved-point cache AND the system's compiled caches
        (same contract as :meth:`MNASystem.invalidate`, which this
        calls).  Plan overrides do this bookkeeping automatically; only
        direct mutation of ``session.circuit`` elements needs it.
        """
        self.system.invalidate()
        self.cache.clear()

    # -- the engine-level solved-point entry ---------------------------
    def solve_raw(
        self,
        temperature_k: float = 300.15,
        x0: Optional[np.ndarray] = None,
        time: Optional[float] = None,
        options: Optional[SolverOptions] = None,
        _overrides: Overrides = (),
        predicted: Optional[np.ndarray] = None,
    ) -> RawSolution:
        """Solve one DC point on the session's system, cache-assisted.

        The engine-level entry: every plan body solves its DC points
        here, and a one-shot raw solve is ``Session(circuit).solve_raw()``.
        A chained sweep hands each point the previous point's solution
        as ``x0`` and its secant extrapolation as ``predicted``.  An
        exact cache hit wins when the cached point was solved from that
        same start (or, without ``x0``, from any), so a point the
        session already holds on this branch costs one lookup.  On a
        miss, ``x0`` wins over the nearest cached point, and both are
        passed on to :func:`~repro.spice.solver.solve_dc_system`
        unchanged.
        """
        options = options or SolverOptions()
        temperature_k = float(temperature_k)
        trc = _tele.ACTIVE
        span = (
            trc.begin("solve", temperature_k=temperature_k)
            if trc is not None
            else None
        )
        try:
            self.system.set_temperature(temperature_k)
            time_key = None if time is None else float(time)
            okey = _options_key(options)
            overrides_key = tuple(sorted(_overrides))
            exact_key = (self.fingerprint, overrides_key, time_key, okey, temperature_k)
            start = None if x0 is None else _start_digest(x0, predicted)
            cached = self.cache.exact(exact_key, start)
            if cached is not None:
                STATS.op_cache_hits += 1
                if span is not None:
                    span.attrs["cache"] = "hit"
                return RawSolution(
                    x=cached.x.copy(),
                    iterations=cached.iterations,
                    residual=cached.residual,
                    strategy=cached.strategy,
                )
            coords = {(e, a): v for e, a, v in _overrides}
            if x0 is None:
                gates: Optional[Dict[str, object]] = (
                    {} if span is not None else None
                )
                warm = self.cache.nearest(
                    coords, time_key, temperature_k, self._baseline, gates=gates
                )
                if warm is not None:
                    x0 = warm
                    STATS.op_cache_warm_starts += 1
                    if span is not None:
                        span.attrs["cache"] = "warm"
                else:
                    STATS.op_cache_misses += 1
                    if span is not None:
                        span.attrs["cache"] = "miss"
                        if gates:
                            span.attrs["cache_gates"] = gates
            elif span is not None:
                span.attrs["cache"] = "seeded"
            raw = solve_dc_system(
                self.system, options=options, x0=x0, time=time,
                workspace=self.workspace, predicted=predicted,
            )
            self.cache.insert(
                exact_key,
                _CachedPoint(temperature_k, time_key, okey, coords, raw, start),
            )
            return raw
        finally:
            if span is not None:
                trc.end(span)

    def _record_baseline(self, element_name: str, attribute: str, value) -> None:
        """Remember the pre-override value of an attribute (the warm-band
        coordinate un-overridden cache points sit at).  Non-numeric
        values — a temperature-law callable, a waveform — have no
        coordinate; points involving them simply never cross-match."""
        try:
            self._baseline.setdefault((element_name, attribute), float(value))
        except (TypeError, ValueError):
            pass

    # -- overrides -----------------------------------------------------
    @contextmanager
    def _applied(self, overrides: Overrides):
        """Apply plan overrides to the live circuit, restore on exit."""
        if not overrides:
            yield
            return
        saved = []
        for element_name, attribute, value in overrides:
            element = self.circuit.element(element_name)
            old = getattr(element, attribute)
            self._record_baseline(element_name, attribute, old)
            saved.append((element, attribute, old))
            setattr(element, attribute, value)
        self.system.invalidate()
        try:
            yield
        finally:
            for element, attribute, old in reversed(saved):
                setattr(element, attribute, old)
            self.system.invalidate()

    # -- plan execution ------------------------------------------------
    def validate(self, plan: AnalysisPlan) -> None:
        """Planner validation: typed PlanError before any solve."""
        if not isinstance(plan, AnalysisPlan):
            raise PlanError(
                f"expected an AnalysisPlan, got {type(plan).__name__}"
            )
        plan.validate(self.circuit)

    def run(self, plan: AnalysisPlan) -> AnalysisResult:
        """Validate and execute one plan; returns an :class:`AnalysisResult`."""
        self.validate(plan)
        trc = _tele.ACTIVE
        span = (
            trc.begin("plan", kind=type(plan).__name__)
            if trc is not None
            else None
        )
        try:
            STATS.session_plans += 1
            return self._dispatch(plan)
        finally:
            if span is not None:
                trc.end(span)

    def _dispatch(self, plan: AnalysisPlan) -> AnalysisResult:
        if isinstance(plan, OP):
            return self._run_op(plan)
        if isinstance(plan, DCSweep):
            return self._run_dc_sweep(plan)
        if isinstance(plan, TempSweep):
            return self._run_temp_sweep(plan)
        if isinstance(plan, ACSweep):
            return self._run_ac_sweep(plan)
        if isinstance(plan, Transient):
            return self._run_transient(plan)
        if isinstance(plan, MonteCarlo):
            return self._run_montecarlo(plan)
        raise PlanError(f"unknown plan type {type(plan).__name__}")

    # -- per-plan bodies -----------------------------------------------
    def _run_op(self, plan: OP) -> OPResult:
        with self._applied(plan.overrides):
            raw = self.solve_raw(
                plan.temperature_k,
                time=plan.time,
                options=plan.options,
                _overrides=plan.overrides,
            )
        op = _wrap_point(self.circuit, plan.temperature_k, raw)
        return OPResult(self, plan, op)

    def _run_dc_sweep(self, plan: DCSweep) -> DCSweepResult:
        element = self.circuit.element(plan.source)
        with self._applied(plan.overrides):
            original = element.dc
            self._record_baseline(plan.source, "dc", original)
            points: List[OperatingPoint] = []
            chain = SecantChain()
            try:
                for value in plan.values:
                    # A source's dc enters the residual only.
                    element.dc = float(value)
                    self.system.invalidate_sources()
                    raw = self.solve_raw(
                        plan.temperature_k,
                        x0=chain.x,
                        options=plan.options,
                        _overrides=plan.overrides + ((plan.source, "dc", value),),
                        predicted=chain.start(value),
                    )
                    points.append(_wrap_point(self.circuit, plan.temperature_k, raw))
                    chain.push(value, raw.x)
            finally:
                element.dc = original
                self.system.invalidate_sources()
        sweep = SweepResult(
            parameter=plan.source,
            values=np.asarray(plan.values, float),
            points=points,
        )
        return DCSweepResult(self, plan, sweep)

    def _run_temp_sweep(self, plan: TempSweep) -> TempSweepResult:
        temps = plan.temperatures_k
        with self._applied(plan.overrides):
            # Anchor the traversal at the grid point nearest a cached
            # solution and chain outward from it: a cached room-temp op
            # then amortises the cold gain-stepping ladder over the
            # WHOLE grid, where a naive first-point warm start across
            # 100+ K would just fail plain Newton back onto the ladder.
            # With an empty cache the anchor is index 0 and the sweep is
            # one chain up the grid.  Each leg chains outward from the
            # anchor, starting every point from the secant through the
            # two solved points behind it on that leg, and falling back
            # to the previous point.
            anchor = 0
            if len(self.cache):
                coords = {(e, a): v for e, a, v in plan.overrides}
                cached = self.cache.compatible_temperatures(
                    coords, None, self._baseline
                )
                if cached:
                    anchor = min(
                        range(len(temps)),
                        key=lambda j: min(abs(temps[j] - tc) for tc in cached),
                    )
            points: List[Optional[OperatingPoint]] = [None] * len(temps)

            def leg(indices, chain: SecantChain) -> None:
                for index in indices:
                    raw = self.solve_raw(
                        temps[index],
                        x0=chain.x,
                        options=plan.options,
                        _overrides=plan.overrides,
                        predicted=chain.start(temps[index]),
                    )
                    points[index] = _wrap_point(self.circuit, temps[index], raw)
                    chain.push(temps[index], raw.x)

            anchored = SecantChain()
            leg((anchor,), anchored)
            for indices in (range(anchor - 1, -1, -1), range(anchor + 1, len(temps))):
                chain = SecantChain()
                chain.push(anchored.value, anchored.x)
                leg(indices, chain)
        sweep = SweepResult(
            parameter="temperature",
            values=np.asarray(temps, float),
            points=points,
        )
        return TempSweepResult(self, plan, sweep)

    def _run_ac_sweep(self, plan: ACSweep) -> ACSweepResult:
        with self._applied(plan.overrides):
            results: List[ACResult] = []
            chain = SecantChain()
            for temperature in plan.temperatures_k:
                raw = self.solve_raw(
                    temperature,
                    x0=chain.x,
                    options=plan.options,
                    _overrides=plan.overrides,
                    predicted=chain.start(temperature),
                )
                chain.push(temperature, raw.x)
                ac_system = ACSystem(
                    self.system,
                    raw.x,
                    options=plan.options,
                    op=_wrap_point(self.circuit, temperature, raw),
                )
                results.append(ac_system.solve(plan.frequencies_hz))
        return ACSweepResult(self, plan, results)

    def _run_transient(self, plan: Transient) -> TransientRunResult:
        options = plan.options or TransientOptions()
        with self._applied(plan.overrides):
            initial = self.solve_raw(
                plan.temperature_k,
                time=plan.t_start,
                options=options.newton,
                _overrides=plan.overrides,
            )
            # The integration loop gets its own workspace, exactly like
            # the legacy engine: cross-timestep LU reuse starts clean
            # instead of probing the initial DC point's factorization.
            result = run_transient_system(
                self.circuit,
                self.system,
                NewtonWorkspace(),
                initial,
                plan.t_stop,
                options=options,
                t_start=plan.t_start,
            )
        return TransientRunResult(self, plan, result)

    def _run_montecarlo(self, plan: MonteCarlo) -> MonteCarloResult:
        results = [self.run(plan.trial_plan(trial)) for trial in plan.trials]
        return MonteCarloResult(self, plan, results)


__all__ = [
    "AnalysisResult",
    "OPResult",
    "DCSweepResult",
    "TempSweepResult",
    "ACSweepResult",
    "TransientRunResult",
    "MonteCarloResult",
    "Session",
    "SolvedPointCache",
]
