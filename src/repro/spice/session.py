"""The unified Session analysis API: one engine lifecycle per topology.

A :class:`Session` is the engine's one front door for every analysis.
It owns ONE :class:`~repro.spice.mna.MNASystem` per topology
(``set_temperature``/``invalidate`` handled internally), one shared
:class:`~repro.spice.solver.NewtonWorkspace`, and a
**solved-point cache** that warm-starts Newton from the nearest
previously solved point — which is what finally amortises the cold-start
gain-stepping ladder (~60 % of a 16-point Fig. 8 sweep) across
analyses and experiment families.

Analyses are declarative plans (:mod:`repro.spice.plans`) submitted via
:meth:`Session.run` / :meth:`Session.run_many`; cross-topology batches
go through :func:`run_plans`.  The planner validates every plan before
any solve (typed :class:`~repro.errors.PlanError`), and every analysis
returns an :class:`AnalysisResult` with the uniform
``voltage`` / ``branch_current`` / ``to_dict`` / ``export`` accessors.

Solved-point cache
------------------

Cache key: ``(topology fingerprint, parameter overrides, pinned time,
solver options, temperature)``.

* An **exact** key match returns the stored solution with no Newton run
  at all (``op_cache_hits``).  Exact hits are only possible for
  conditions the session itself solved — a temperature nudge, a changed
  override or a different pinned time is a different key, so a stale
  point can never be returned for new conditions.
* Otherwise the **nearest** cached point with the same pinned time and
  compatible override values (small absolute/relative deltas only —
  never across e.g. a 0 V vs 5 V supply, where a dead-state warm start
  could pull Newton onto a degenerate branch) seeds Newton's ``x0``
  (``op_cache_warm_starts``); the solve itself always runs, with the
  full fallback ladder available, so a warm start can change iteration
  counts but never the converged answer beyond solver tolerance.
* Everything else is a cold solve (``op_cache_misses``).

Mutating circuit element values *outside* the plan-override mechanism is
not tracked — call :meth:`Session.invalidate` afterwards (it clears the
cache and the system's compiled caches), exactly like the underlying
:meth:`MNASystem.invalidate` contract.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import NetlistError, PlanError
from ..parallel import (
    absorb_worker_telemetry,
    parallel_map,
    resolve_workers,
    supervised_map,
    worker_telemetry,
)
from ..resilience import Outcome, RunPolicy
from ..resilience.supervisor import supervised_call
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
from .solver import NewtonWorkspace, RawSolution, SolverOptions, solve_dc_system
from .stats import STATS, SolverStats
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
#: max_step_v basin), which would make a "warm start" *slower* than a
#: cold solve while the counter still claimed a ladder skip.  Sweep
#: grids bridge larger spans by anchored chaining, not by one jump.
_WARM_MAX_DT = 50.0


class _CachedPoint:
    """One solved DC point plus the coordinates it was solved at."""

    __slots__ = (
        "temperature_k", "time_key", "options_key", "coords",
        "x", "iterations", "residual", "strategy",
    )

    def __init__(self, temperature_k, time_key, options_key, coords, raw):
        self.temperature_k = temperature_k
        self.time_key = time_key
        self.options_key = options_key
        self.coords = coords  # {(element, attribute): value} overrides
        self.x = raw.x.copy()
        self.iterations = raw.iterations
        self.residual = raw.residual
        self.strategy = raw.strategy


class SolvedPointCache:
    """Solved-point store with exact and nearest-neighbour lookup."""

    def __init__(self, max_points: int = 512):
        self.max_points = max_points
        self._exact: Dict[Tuple, _CachedPoint] = {}

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

    def exact(self, key: Tuple) -> Optional[_CachedPoint]:
        return self._exact.get(key)

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
        if key in self._exact:
            del self._exact[key]  # re-insert at the tail (LRU-ish)
        elif len(self._exact) >= self.max_points:
            self._exact.pop(next(iter(self._exact)))
        self._exact[key] = point

    # -- process fan-out support ---------------------------------------
    def export(self) -> List[Tuple[Tuple, Tuple]]:
        """Picklable snapshot for merging a worker's cache back."""
        return [
            (key, (p.temperature_k, p.time_key, p.options_key, dict(p.coords),
                   p.x, p.iterations, p.residual, p.strategy))
            for key, p in self._exact.items()
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
    """Per-trial results of a :class:`~repro.spice.plans.MonteCarlo` plan.

    With a :class:`~repro.resilience.RunPolicy` on the plan the
    population may be *partial*: ``results`` holds the successful
    trials only, ``trial_indices[i]`` names the original trial each
    ``results[i]`` came from, and ``failed_trials`` carries one
    :class:`~repro.resilience.Outcome` per casualty — the exact trial
    index, captured exception, attempt count and worker pid.  Without a
    policy the run is all-or-nothing and ``trial_indices`` is simply
    ``0..n-1``.
    """

    kind = "montecarlo"

    def __init__(
        self,
        session,
        plan,
        results: List[AnalysisResult],
        trial_indices: Optional[Sequence[int]] = None,
        failed_trials: Sequence[Outcome] = (),
    ):
        super().__init__(session, plan)
        self.results = results
        self.trial_indices: Tuple[int, ...] = (
            tuple(range(len(results)))
            if trial_indices is None
            else tuple(int(i) for i in trial_indices)
        )
        self.failed_trials: Tuple[Outcome, ...] = tuple(failed_trials)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def complete(self) -> bool:
        return not self.failed_trials

    def failed_indices(self) -> Tuple[int, ...]:
        """The original trial indices that produced no result."""
        return tuple(outcome.index for outcome in self.failed_trials)

    def voltage(self, node: str) -> np.ndarray:
        return np.array([r.voltage(node) for r in self.results])

    def branch_current(self, element_name: str) -> np.ndarray:
        return np.array([r.branch_current(element_name) for r in self.results])

    def to_dict(self) -> dict:
        out = self._base_dict()
        out["trials"] = [r.to_dict() for r in self.results]
        if self.failed_trials or self.trial_indices != tuple(range(len(self.results))):
            out["trial_indices"] = list(self.trial_indices)
            out["failed_trials"] = [o.to_dict() for o in self.failed_trials]
        return out


# ----------------------------------------------------------------------
# The session itself
# ----------------------------------------------------------------------

class Session:
    """One engine lifecycle for one circuit topology.

    ``circuit`` is either a live :class:`Circuit` instance or a
    *builder* — a picklable module-level callable returning the circuit
    (required for process fan-out, because circuits routinely hold
    closures).  The session builds the circuit once, binds one
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
        options: Optional[SolverOptions] = None,
        temperature_k: float = 300.15,
        cache_points: int = 512,
        store=None,
    ):
        if callable(circuit):
            self._builder = circuit
            self._args = tuple(args)
            self._kwargs = dict(kwargs or {})
            self.circuit = circuit(*self._args, **self._kwargs)
            if not isinstance(self.circuit, Circuit):
                raise NetlistError(
                    f"session builder returned {type(self.circuit).__name__}, "
                    "expected a Circuit"
                )
        else:
            if args or kwargs:
                raise NetlistError(
                    "builder args given but the first argument is a Circuit "
                    "instance, not a builder"
                )
            self._builder = None
            self._args = ()
            self._kwargs = {}
            self.circuit = circuit
        self.options = options or SolverOptions()
        self.system = MNASystem(self.circuit, temperature_k=temperature_k)
        self.workspace = NewtonWorkspace()
        self.fingerprint = _fingerprint(self.circuit)
        self.cache = SolvedPointCache(cache_points)
        #: Values seen *before* the first override of each attribute —
        #: the coordinates un-overridden cache points sit at.
        self._baseline: Dict[Tuple[str, str], float] = {}
        #: Per-session mirrors of the global STATS cache counters.
        self.cache_hits = 0
        self.cache_warm_starts = 0
        self.cache_misses = 0
        #: Session-local counter collector: every top-level :meth:`run`
        #: (and each fanned worker's shipped delta) is folded in, so the
        #: session can report its own share of the process ``STATS``.
        self.stats = SolverStats()
        self._run_depth = 0
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

    # -- persistent store ----------------------------------------------
    def flush_store(self) -> int:
        """Write this session's solved points to the attached store.

        Appends only points the store has not persisted yet; returns
        the number written.  No-op (returning 0) without a store.
        """
        if self.store is None:
            return 0
        return self.store.absorb(self.cache.export())

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

    def recipe(self) -> "SessionRecipe":
        """The picklable recipe re-creating this session in a worker."""
        if self._builder is None:
            raise NetlistError(
                "this session wraps a live Circuit instance; construct it "
                "from a module-level builder to enable process fan-out"
            )
        return SessionRecipe(
            builder=self._builder,
            args=self._args,
            kwargs=tuple(sorted(self._kwargs.items())),
            options=None if self.options == SolverOptions() else self.options,
        )

    # -- the engine-level solved-point entry ---------------------------
    def solve_raw(
        self,
        temperature_k: float = 300.15,
        x0: Optional[np.ndarray] = None,
        time: Optional[float] = None,
        options: Optional[SolverOptions] = None,
        _overrides: Overrides = (),
    ) -> RawSolution:
        """Solve one DC point on the session's system, cache-assisted.

        The engine-level entry (:func:`repro.spice.solver.solve_dc`
        routes one-shot solves through a short-lived session via this
        method).  ``x0`` wins over the cache when given — warm-start
        *chains* (sweeps) are ordering-sensitive and keep their legacy
        semantics bit for bit.
        """
        options = options or self.options
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
            coords = {(e, a): v for e, a, v in _overrides}
            if x0 is None:
                cached = self.cache.exact(exact_key)
                if cached is not None:
                    self.cache_hits += 1
                    STATS.op_cache_hits += 1
                    if span is not None:
                        span.attrs["cache"] = "hit"
                    return RawSolution(
                        x=cached.x.copy(),
                        iterations=cached.iterations,
                        residual=cached.residual,
                        strategy=cached.strategy,
                    )
                gates: Optional[Dict[str, object]] = (
                    {} if span is not None else None
                )
                warm = self.cache.nearest(
                    coords, time_key, temperature_k, self._baseline, gates=gates
                )
                if warm is not None:
                    x0 = warm
                    self.cache_warm_starts += 1
                    STATS.op_cache_warm_starts += 1
                    if span is not None:
                        span.attrs["cache"] = "warm"
                else:
                    self.cache_misses += 1
                    STATS.op_cache_misses += 1
                    if span is not None:
                        span.attrs["cache"] = "miss"
                        if gates:
                            span.attrs["cache_gates"] = gates
            elif span is not None:
                span.attrs["cache"] = "seeded"
            raw = solve_dc_system(
                self.system, options=options, x0=x0, time=time, workspace=self.workspace
            )
            self.cache.insert(
                exact_key, _CachedPoint(temperature_k, time_key, okey, coords, raw)
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

    def run(self, plan: AnalysisPlan, x0: Optional[np.ndarray] = None) -> AnalysisResult:
        """Validate and execute one plan; returns an :class:`AnalysisResult`."""
        self.validate(plan)
        trc = _tele.ACTIVE
        span = (
            trc.begin("plan", kind=type(plan).__name__)
            if trc is not None
            else None
        )
        # Only the outermost run of a nesting chain (MonteCarlo trials
        # re-enter run per trial) snapshots/merges, so the session-local
        # collector counts each solve exactly once.
        self._run_depth += 1
        baseline = STATS.snapshot() if self._run_depth == 1 else None
        try:
            STATS.session_plans += 1
            return self._dispatch(plan, x0)
        finally:
            self._run_depth -= 1
            if baseline is not None:
                self.stats.merge(STATS.delta_since(baseline))
            if span is not None:
                trc.end(span)

    def _dispatch(self, plan: AnalysisPlan, x0) -> AnalysisResult:
        if isinstance(plan, OP):
            return self._run_op(plan, x0)
        if isinstance(plan, DCSweep):
            return self._run_dc_sweep(plan, x0)
        if isinstance(plan, TempSweep):
            return self._run_temp_sweep(plan, x0)
        if isinstance(plan, ACSweep):
            return self._run_ac_sweep(plan, x0)
        if isinstance(plan, Transient):
            return self._run_transient(plan, x0)
        if isinstance(plan, MonteCarlo):
            return self._run_montecarlo(plan)
        raise PlanError(f"unknown plan type {type(plan).__name__}")

    def run_many(
        self,
        plans: Sequence[AnalysisPlan],
        workers: Optional[int] = None,
        policy: Optional[RunPolicy] = None,
    ) -> List[AnalysisResult]:
        """Run several plans against this topology.

        Every plan is validated before the first solve.  Serial by
        default (sharing this session's cache, so later plans warm-start
        off earlier ones); with ``workers`` > 1 — or ``REPRO_WORKERS``
        set — builder-backed sessions fan plans out across processes and
        merge the workers' solved points back into this cache.

        With a :class:`~repro.resilience.RunPolicy` the batch runs
        supervised and returns one :class:`~repro.resilience.Outcome`
        per plan instead of raw results: a failed plan becomes a failure
        record (per the policy's on-failure action) rather than killing
        the batch, retryable errors are re-attempted with backoff, and
        the active fault-injection plan is honoured (indexed by plan
        position).  ``policy.on_failure == "raise"`` keeps fail-fast
        semantics while still retrying.
        """
        plans = list(plans)
        for plan in plans:
            self.validate(plan)
        effective = min(resolve_workers(workers), len(plans))
        if effective <= 1 or len(plans) <= 1 or self._builder is None:
            if policy is None:
                return [self.run(plan) for plan in plans]
            return [
                supervised_call(
                    lambda plan=plan: self.run(plan),
                    index=index,
                    policy=policy,
                )
                for index, plan in enumerate(plans)
            ]
        # Each worker session is seeded with THIS session's cache
        # snapshot, so fanned plans still warm-start off everything the
        # session solved before the call.  What fan-out cannot give is
        # plans warm-starting off *each other* within one run_many —
        # they run concurrently; serial execution (workers=1) keeps
        # that extra sharing.  Either way every converged point is
        # equal to solver tolerance.
        recipe = self.recipe()
        seed = self.cache.export()
        detail = None if _tele.ACTIVE is None else _tele.ACTIVE.detail
        tasks = [(recipe, (plan,), seed, detail) for plan in plans]
        if policy is None:
            payloads = parallel_map(_run_plans_task, tasks, max_workers=workers)
            results = []
            for plan, payload in zip(plans, payloads):
                self._absorb_payload(payload)
                results.append(_result_from_payload(self, plan, payload["results"][0]))
            return results
        outcomes = supervised_map(
            _run_plans_task, tasks, policy=policy, max_workers=workers
        )
        for plan, outcome in zip(plans, outcomes):
            if outcome is not None and outcome.ok:
                payload = outcome.value
                self._absorb_payload(payload)
                outcome.value = _result_from_payload(
                    self, plan, payload["results"][0]
                )
        return outcomes

    def _absorb_payload(self, payload: dict) -> None:
        """Fold a worker session's state into this one: solved points,
        cache-counter mirrors, and the telemetry box (whose STATS delta
        is pid-guarded — a worker process has its own STATS singleton
        whose movement would otherwise be lost, while the serial
        fallback already incremented ours directly)."""
        self.cache.merge(payload["cache"])
        hits, warm_starts, misses = payload["counters"]
        self.cache_hits += hits
        self.cache_warm_starts += warm_starts
        self.cache_misses += misses
        box = payload.get("telemetry")
        absorb_worker_telemetry(box)
        if box:
            self.stats.merge(box.get("stats", {}))

    # -- per-plan bodies -----------------------------------------------
    def _run_op(self, plan: OP, x0) -> OPResult:
        with self._applied(plan.overrides):
            raw = self.solve_raw(
                plan.temperature_k,
                x0=x0,
                time=plan.time,
                options=plan.options,
                _overrides=plan.overrides,
            )
        op = _wrap_point(self.circuit, plan.temperature_k, raw)
        return OPResult(self, plan, op)

    def _run_dc_sweep(self, plan: DCSweep, x0) -> DCSweepResult:
        element = self.circuit.element(plan.source)
        with self._applied(plan.overrides):
            original = element.dc
            self._record_baseline(plan.source, "dc", original)
            points: List[OperatingPoint] = []
            x_prev = x0
            try:
                for value in plan.values:
                    element.dc = float(value)
                    self.system.invalidate()
                    raw = self.solve_raw(
                        plan.temperature_k,
                        x0=x_prev,
                        options=plan.options,
                        _overrides=plan.overrides + ((plan.source, "dc", value),),
                    )
                    points.append(_wrap_point(self.circuit, plan.temperature_k, raw))
                    x_prev = raw.x
            finally:
                element.dc = original
                self.system.invalidate()
        sweep = SweepResult(
            parameter=plan.source,
            values=np.asarray(plan.values, float),
            points=points,
        )
        return DCSweepResult(self, plan, sweep)

    def _run_temp_sweep(self, plan: TempSweep, x0) -> TempSweepResult:
        temps = plan.temperatures_k
        with self._applied(plan.overrides):
            # Anchor the traversal at the grid point nearest a cached
            # solution and chain outward from it: a cached room-temp op
            # then amortises the cold gain-stepping ladder over the
            # WHOLE grid, where a naive first-point warm start across
            # 100+ K would just fail plain Newton back onto the ladder.
            # With an empty cache the anchor is index 0 and the
            # traversal — and therefore every solution bit — is
            # identical to the legacy chained sweep.
            anchor = 0
            if x0 is None and len(self.cache):
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

            def solve_at(index: int, x_prev) -> np.ndarray:
                raw = self.solve_raw(
                    temps[index],
                    x0=x_prev,
                    options=plan.options,
                    _overrides=plan.overrides,
                )
                points[index] = _wrap_point(self.circuit, temps[index], raw)
                return raw.x

            x_anchor = solve_at(anchor, x0)
            x_prev = x_anchor
            for index in range(anchor - 1, -1, -1):
                x_prev = solve_at(index, x_prev)
            x_prev = x_anchor
            for index in range(anchor + 1, len(temps)):
                x_prev = solve_at(index, x_prev)
        sweep = SweepResult(
            parameter="temperature",
            values=np.asarray(temps, float),
            points=points,
        )
        return TempSweepResult(self, plan, sweep)

    def _run_ac_sweep(self, plan: ACSweep, x0) -> ACSweepResult:
        options = plan.options or self.options
        with self._applied(plan.overrides):
            results: List[ACResult] = []
            x_prev = x0
            for temperature in plan.temperatures_k:
                raw = self.solve_raw(
                    temperature,
                    x0=x_prev,
                    options=plan.options,
                    _overrides=plan.overrides,
                )
                x_prev = raw.x
                ac_system = ACSystem(
                    self.system,
                    raw.x,
                    options=options,
                    op=_wrap_point(self.circuit, temperature, raw),
                )
                results.append(ac_system.solve(plan.frequencies_hz))
        return ACSweepResult(self, plan, results)

    def _run_transient(self, plan: Transient, x0) -> TransientRunResult:
        options = plan.options or TransientOptions()
        with self._applied(plan.overrides):
            initial = self.solve_raw(
                plan.temperature_k,
                x0=x0,
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
        if plan.policy is None:
            results: List[AnalysisResult] = []
            for trial in plan.trials:
                results.append(self.run(plan.trial_plan(trial)))
            return MonteCarloResult(self, plan, results)
        # Supervised population: every trial runs under the plan's
        # policy (retries, deadline, deterministic fault injection keyed
        # by trial index), and a terminal casualty costs exactly its own
        # trial — the survivors ship with precise attribution of the
        # dead.  ``on_failure="raise"`` restores fail-fast inside
        # supervised_call.
        outcomes = [
            supervised_call(
                lambda trial=trial: self.run(plan.trial_plan(trial)),
                index=index,
                policy=plan.policy,
            )
            for index, trial in enumerate(plan.trials)
        ]
        survivors = [outcome for outcome in outcomes if outcome.ok]
        return MonteCarloResult(
            self,
            plan,
            [outcome.value for outcome in survivors],
            trial_indices=[outcome.index for outcome in survivors],
            failed_trials=[outcome for outcome in outcomes if not outcome.ok],
        )


# ----------------------------------------------------------------------
# Cross-topology batching
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SessionRecipe:
    """A picklable description of a Session (builder plus plain data)."""

    builder: Callable[..., Circuit]
    args: Tuple = ()
    kwargs: Tuple[Tuple[str, object], ...] = ()
    options: Optional[SolverOptions] = None

    def build(self) -> Session:
        return Session(
            self.builder, self.args, dict(self.kwargs), options=self.options
        )


def _run_plans_task(task) -> dict:
    """Worker: build a session from its recipe, seed its cache from the
    optional parent snapshot, run its plans serially (sharing the cache
    within the group), and return picklable payloads plus the solved
    points and telemetry for the parent to merge back.

    ``task`` is ``(recipe, plans[, cache_seed[, trace_detail]])`` —
    ``trace_detail`` is the parent tracer's detail level (or None), so
    a traced fanned run captures the same span tree a serial run would.
    """
    recipe, plans = task[0], task[1]
    session = recipe.build()
    if len(task) > 2 and task[2]:
        session.cache.merge(task[2])
    detail = task[3] if len(task) > 3 else None
    with worker_telemetry(detail) as box:
        payloads = [_payload_from_result(session.run(plan)) for plan in plans]
    return {
        "results": payloads,
        "cache": session.cache.export(),
        "counters": (
            session.cache_hits,
            session.cache_warm_starts,
            session.cache_misses,
        ),
        "telemetry": box,
    }


def _pair_outcome(group_outcome: Outcome, pair_index: int, value=None) -> Outcome:
    """Project a group-level Outcome onto one of its member pairs."""
    return Outcome(
        index=pair_index,
        status=group_outcome.status,
        value=value,
        error=group_outcome.error,
        attempts=group_outcome.attempts,
        worker_pid=group_outcome.worker_pid,
        wall_s=group_outcome.wall_s,
        traceback=group_outcome.traceback,
    )


def run_plans(
    pairs: Sequence[Tuple[SessionRecipe, AnalysisPlan]],
    workers: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
) -> List[AnalysisResult]:
    """Run ``(recipe, plan)`` pairs, batching compatible plans.

    Plans whose recipes compare equal are grouped onto ONE session (in
    submission order), so they share its solved-point cache — that is
    the cross-analysis amortisation; groups are independent and fan out
    across processes via :func:`repro.parallel.parallel_map` (workers
    resolve like everywhere else: argument, else ``REPRO_WORKERS``,
    else serial).  Results are identical between the serial and fanned
    paths because grouping is deterministic and each group runs
    sequentially inside one process either way.  Pairs that must not
    share warm starts need recipes that compare unequal.

    With a :class:`~repro.resilience.RunPolicy` the batch runs
    supervised and returns one :class:`~repro.resilience.Outcome` per
    pair.  The supervision unit is the session *group* (the atom of
    both execution paths), indexed by group ordinal — with one recipe
    per pair that is simply the pair index.  A failed group yields one
    failure record per member pair; retries re-run the whole group.
    The same policy supervises the serial and fanned paths, so
    outcomes, attempt counts and resilience counters match.
    """
    pairs = list(pairs)
    groups: List[Tuple[SessionRecipe, List[int]]] = []
    for index, (recipe, _plan) in enumerate(pairs):
        for grouped_recipe, indices in groups:
            if grouped_recipe == recipe:
                indices.append(index)
                break
        else:
            groups.append((recipe, [index]))
    # Parent-side sessions: validation before any solve, and the
    # rehydration context for fanned results.
    sessions = [recipe.build() for recipe, _indices in groups]
    for session, (_recipe, indices) in zip(sessions, groups):
        for index in indices:
            session.validate(pairs[index][1])

    results: List[Optional[AnalysisResult]] = [None] * len(pairs)
    effective = min(resolve_workers(workers), len(groups))
    if effective <= 1 or len(groups) <= 1:
        if policy is None:
            for session, (_recipe, indices) in zip(sessions, groups):
                for index in indices:
                    results[index] = session.run(pairs[index][1])
            return results
        for group_index, (session, (_recipe, indices)) in enumerate(
            zip(sessions, groups)
        ):
            outcome = supervised_call(
                lambda session=session, indices=indices: [
                    session.run(pairs[index][1]) for index in indices
                ],
                index=group_index,
                policy=policy,
            )
            for position, index in enumerate(indices):
                results[index] = _pair_outcome(
                    outcome,
                    index,
                    outcome.value[position] if outcome.ok else None,
                )
        return results
    detail = None if _tele.ACTIVE is None else _tele.ACTIVE.detail
    tasks = [
        (recipe, tuple(pairs[index][1] for index in indices), None, detail)
        for recipe, indices in groups
    ]
    if policy is None:
        payloads = parallel_map(_run_plans_task, tasks, max_workers=workers)
        for session, (_recipe, indices), payload in zip(sessions, groups, payloads):
            session._absorb_payload(payload)
            for index, result_payload in zip(indices, payload["results"]):
                results[index] = _result_from_payload(
                    session, pairs[index][1], result_payload
                )
        return results
    outcomes = supervised_map(
        _run_plans_task, tasks, policy=policy, max_workers=workers
    )
    for session, (_recipe, indices), outcome in zip(sessions, groups, outcomes):
        if outcome is not None and outcome.ok:
            payload = outcome.value
            session._absorb_payload(payload)
            for index, result_payload in zip(indices, payload["results"]):
                results[index] = _pair_outcome(
                    outcome,
                    index,
                    _result_from_payload(session, pairs[index][1], result_payload),
                )
        elif outcome is not None:
            for index in indices:
                results[index] = _pair_outcome(outcome, index)
    return results


# ----------------------------------------------------------------------
# Picklable payload round trip (process fan-out)
# ----------------------------------------------------------------------

def _payload_from_result(result: AnalysisResult) -> dict:
    if isinstance(result, OPResult):
        op = result.op
        return {
            "kind": "op",
            "x": op.x,
            "temperature_k": op.temperature_k,
            "iterations": op.iterations,
            "residual": op.residual,
            "strategy": op.strategy,
        }
    if isinstance(result, _SweepResultBase):
        points = result.points
        return {
            "kind": "sweep",
            "parameter": result.sweep.parameter,
            "values": result.sweep.values,
            "x": np.stack([p.x for p in points]),
            "temperatures_k": [p.temperature_k for p in points],
            "iterations": [p.iterations for p in points],
            "residuals": [p.residual for p in points],
            "strategies": [p.strategy for p in points],
        }
    if isinstance(result, ACSweepResult):
        return {
            "kind": "ac",
            "frequencies_hz": result.frequencies_hz,
            "ac_x": np.stack([r.x for r in result.ac_results]),
            "op_x": np.stack([r.op.x for r in result.ac_results]),
            "temperatures_k": [r.temperature_k for r in result.ac_results],
            "iterations": [r.op.iterations for r in result.ac_results],
            "residuals": [r.op.residual for r in result.ac_results],
            "strategies": [r.op.strategy for r in result.ac_results],
        }
    if isinstance(result, TransientRunResult):
        res = result.result
        return {
            "kind": "transient",
            "times": res.times,
            "states": res.states,
            "temperature_k": res.temperature_k,
            "method": res.method,
            "step_iterations": res.step_iterations,
            "step_residuals": res.step_residuals,
            "initial_strategy": res.initial_strategy,
            "rejected_lte": res.rejected_lte,
            "newton_retries": res.newton_retries,
            "factorizations": res.factorizations,
            "lu_reuses": res.lu_reuses,
        }
    if isinstance(result, MonteCarloResult):
        # Outcomes are picklable by construction (worker exceptions are
        # capture_error'd), so failure attribution survives the trip.
        return {
            "kind": "mc",
            "inner": [_payload_from_result(r) for r in result.results],
            "trial_indices": result.trial_indices,
            "failed": result.failed_trials,
        }
    raise NetlistError(f"cannot serialise result kind {type(result).__name__}")


def _result_from_payload(session: Session, plan: AnalysisPlan, payload: dict):
    """Rehydrate a worker payload against a parent-side session."""
    circuit = session.circuit
    kind = payload["kind"]
    if kind == "op":
        op = OperatingPoint(
            circuit=circuit,
            temperature_k=payload["temperature_k"],
            x=payload["x"],
            iterations=payload["iterations"],
            residual=payload["residual"],
            strategy=payload["strategy"],
        )
        return OPResult(session, plan, op)
    if kind == "sweep":
        points = [
            OperatingPoint(
                circuit=circuit,
                temperature_k=payload["temperatures_k"][i],
                x=payload["x"][i],
                iterations=payload["iterations"][i],
                residual=payload["residuals"][i],
                strategy=payload["strategies"][i],
            )
            for i in range(len(payload["temperatures_k"]))
        ]
        sweep = SweepResult(
            parameter=payload["parameter"],
            values=np.asarray(payload["values"], float),
            points=points,
        )
        cls = DCSweepResult if isinstance(plan, DCSweep) else TempSweepResult
        return cls(session, plan, sweep)
    if kind == "ac":
        freqs = np.asarray(payload["frequencies_hz"], float)
        ac_results = [
            ACResult(
                circuit=circuit,
                temperature_k=payload["temperatures_k"][i],
                frequencies_hz=freqs,
                x=payload["ac_x"][i],
                op=OperatingPoint(
                    circuit=circuit,
                    temperature_k=payload["temperatures_k"][i],
                    x=payload["op_x"][i],
                    iterations=payload["iterations"][i],
                    residual=payload["residuals"][i],
                    strategy=payload["strategies"][i],
                ),
            )
            for i in range(len(payload["temperatures_k"]))
        ]
        return ACSweepResult(session, plan, ac_results)
    if kind == "transient":
        result = TransientResult(
            circuit=circuit,
            temperature_k=payload["temperature_k"],
            method=payload["method"],
            times=payload["times"],
            states=payload["states"],
            step_iterations=payload["step_iterations"],
            step_residuals=payload["step_residuals"],
            initial_strategy=payload["initial_strategy"],
            rejected_lte=payload["rejected_lte"],
            newton_retries=payload["newton_retries"],
            factorizations=payload["factorizations"],
            lu_reuses=payload["lu_reuses"],
        )
        return TransientRunResult(session, plan, result)
    if kind == "mc":
        trial_indices = payload.get("trial_indices")
        if trial_indices is None:
            trial_indices = tuple(range(len(payload["inner"])))
        inner_results = [
            _result_from_payload(
                session, plan.trial_plan(plan.trials[trial_index]), inner
            )
            for trial_index, inner in zip(trial_indices, payload["inner"])
        ]
        return MonteCarloResult(
            session,
            plan,
            inner_results,
            trial_indices=trial_indices,
            failed_trials=payload.get("failed", ()),
        )
    raise NetlistError(f"cannot rehydrate result kind {kind!r}")


__all__ = [
    "AnalysisResult",
    "OPResult",
    "DCSweepResult",
    "TempSweepResult",
    "ACSweepResult",
    "TransientRunResult",
    "MonteCarloResult",
    "Session",
    "SessionRecipe",
    "SolvedPointCache",
    "run_plans",
]
