"""Job execution layer of the simulation service.

Three pieces, all transport-agnostic (the HTTP front end in
:mod:`repro.serve.server` is a thin shell over them):

* **Wire codec** — :func:`plan_from_wire` / :func:`plan_to_wire` map
  the declarative :mod:`repro.spice.plans` dataclasses to/from plain
  JSON dicts (``{"analysis": "TempSweep", "temperatures_k": [...]}``),
  :func:`circuit_from_wire` parses the submitted netlist text, and
  :func:`policy_from_wire` builds the per-job
  :class:`~repro.resilience.RunPolicy`.  Every malformed request raises
  a typed :class:`~repro.errors.PlanError` (or another
  ``NetlistError``) *before any solve* — the same validation boundary
  the Session planner enforces, which the server maps to HTTP 400.
* **SessionPool** — one :class:`~repro.spice.session.Session` per
  distinct (netlist, solver options) submission, bounded and
  LRU-evicted; every pooled session shares the service's persistent
  :class:`~.cachestore.CacheStore`, so jobs against the same topology
  warm-start off each other *and* off previous server processes.
* **JobService** — the async queue: ``submit`` validates and enqueues,
  worker threads execute each job under ``supervised_call`` with the
  job's :class:`RunPolicy` (retries / per-job timeout), and the
  :class:`JobRecord` carries ``Outcome``-style failure attribution
  (error type, message, attempts, wall time).  Completed jobs flush
  the owning session to the store immediately (write-through), so a
  server kill after job completion never loses solved points.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import NetlistError, PlanError
from ..resilience import RunPolicy
from ..resilience.supervisor import supervised_call
from ..spice.parser import parse_netlist
from ..spice.plans import (
    ACSweep,
    AnalysisPlan,
    DCSweep,
    MonteCarlo,
    OP,
    TempSweep,
    Transient,
)
from ..spice.session import Session
from ..spice.solver import SolverOptions
from ..spice.stats import STATS
from ..spice.transient import TransientOptions
from .cachestore import CacheStore

#: Wire names -> plan classes.
PLAN_TYPES = {
    cls.__name__: cls
    for cls in (OP, DCSweep, TempSweep, ACSweep, Transient, MonteCarlo)
}

#: RunPolicy knobs a job may set over the wire (`retryable`, `sleep`
#: and `on_failure` stay server-side: the executor always records).
_POLICY_WIRE_KEYS = ("max_retries", "backoff_s", "backoff_factor", "timeout_s")


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

def _triples(name: str, value) -> Tuple[Tuple[str, str, float], ...]:
    try:
        return tuple((el, attr, val) for el, attr, val in value)
    except (TypeError, ValueError):
        raise PlanError(
            f"{name} must be a list of [element, attribute, value] triples"
        ) from None


def _solver_options_from_wire(value) -> SolverOptions:
    if not isinstance(value, Mapping):
        raise PlanError(f"options must be an object, got {type(value).__name__}")
    allowed = {spec.name for spec in fields(SolverOptions)}
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise PlanError(f"unknown solver option(s): {', '.join(unknown)}")
    kwargs = {
        # JSON arrays arrive as lists; SolverOptions equality (and the
        # session cache key, which is its repr) expects tuples.
        key: tuple(v) if isinstance(v, list) else v
        for key, v in value.items()
    }
    try:
        return SolverOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise PlanError(f"invalid solver options: {exc}") from None


def _transient_options_from_wire(value) -> TransientOptions:
    if not isinstance(value, Mapping):
        raise PlanError(f"options must be an object, got {type(value).__name__}")
    allowed = {spec.name for spec in fields(TransientOptions)}
    unknown = sorted(set(value) - allowed)
    if unknown:
        raise PlanError(f"unknown transient option(s): {', '.join(unknown)}")
    kwargs = dict(value)
    if "newton" in kwargs and kwargs["newton"] is not None:
        kwargs["newton"] = _solver_options_from_wire(kwargs["newton"])
    try:
        return TransientOptions(**kwargs)
    except (TypeError, ValueError, NetlistError) as exc:
        raise PlanError(f"invalid transient options: {exc}") from None


def plan_from_wire(data) -> AnalysisPlan:
    """Build an :class:`AnalysisPlan` from its JSON wire form.

    Raises :class:`PlanError` — before any solve — on an unknown
    analysis name, unknown fields, or any construction-time validation
    failure of the plan itself.
    """
    if not isinstance(data, Mapping):
        raise PlanError(f"plan must be an object, got {type(data).__name__}")
    payload = dict(data)
    name = payload.pop("analysis", None)
    cls = PLAN_TYPES.get(name)
    if cls is None:
        raise PlanError(
            f"unknown analysis {name!r}; known: {', '.join(sorted(PLAN_TYPES))}"
        )
    allowed = {spec.name for spec in fields(cls)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise PlanError(f"{name} has no field(s): {', '.join(unknown)}")
    kwargs = {}
    for key, value in payload.items():
        if key == "options":
            if value is not None:
                kwargs[key] = (
                    _transient_options_from_wire(value)
                    if cls is Transient
                    else _solver_options_from_wire(value)
                )
        elif key == "overrides":
            kwargs[key] = _triples(f"{name}.overrides", value)
        elif key == "trials":
            try:
                kwargs[key] = tuple(
                    _triples(f"{name}.trials[{i}]", trial)
                    for i, trial in enumerate(value)
                )
            except TypeError:
                raise PlanError(f"{name}.trials must be a list of trials") from None
        elif key == "inner":
            kwargs[key] = plan_from_wire(value)
        elif key == "policy":
            if value is not None:
                raise PlanError(
                    "MonteCarlo.policy does not travel on the wire; submit "
                    "it as the job-level \"policy\" instead"
                )
        elif isinstance(value, list):
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    return cls(**kwargs)


def plan_to_wire(plan: AnalysisPlan) -> dict:
    """The JSON wire form of a plan (inverse of :func:`plan_from_wire`)."""
    if not isinstance(plan, AnalysisPlan):
        raise PlanError(f"expected an AnalysisPlan, got {type(plan).__name__}")
    out: Dict[str, object] = {"analysis": type(plan).__name__}
    for spec in fields(plan):
        value = getattr(plan, spec.name)
        if spec.name == "options":
            if value is not None:
                out[spec.name] = asdict(value)
        elif spec.name == "policy":
            if value is not None:
                raise PlanError(
                    "MonteCarlo.policy does not travel on the wire; submit "
                    "it as the job-level \"policy\" instead"
                )
        elif spec.name == "inner":
            out[spec.name] = plan_to_wire(value)
        elif spec.name == "trials":
            out[spec.name] = [
                [list(triple) for triple in trial] for trial in value
            ]
        elif spec.name == "overrides":
            out[spec.name] = [list(triple) for triple in value]
        elif isinstance(value, tuple):
            out[spec.name] = list(value)
        else:
            out[spec.name] = value
    return out


def _circuit_fields(data) -> Tuple[str, str]:
    """``(netlist, title)`` of a wire circuit, shape-checked unparsed.

    The wire circuit is an object with only ``netlist`` (non-empty
    text) and an optional ``title``; anything else raises
    :class:`PlanError`.
    """
    if not isinstance(data, Mapping):
        raise PlanError(f"circuit must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - {"netlist", "title"})
    if unknown:
        raise PlanError(f"circuit has no field(s): {', '.join(unknown)}")
    netlist = data.get("netlist")
    if not isinstance(netlist, str) or not netlist.strip():
        raise PlanError("circuit.netlist must be non-empty netlist text")
    return netlist, str(data.get("title", ""))


def circuit_from_wire(data):
    """Parse the wire circuit ``{"netlist": text[, "title": t]}``."""
    netlist, title = _circuit_fields(data)
    return parse_netlist(netlist, title=title)


def policy_from_wire(data) -> Optional[RunPolicy]:
    """Build the per-job :class:`RunPolicy` (``None`` wire => None)."""
    if data is None:
        return None
    if not isinstance(data, Mapping):
        raise PlanError(f"policy must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_POLICY_WIRE_KEYS))
    if unknown:
        raise PlanError(f"policy has no field(s): {', '.join(unknown)}")
    try:
        return RunPolicy(on_failure="record", **dict(data))
    except Exception as exc:
        raise PlanError(f"invalid policy: {exc}") from None


# ----------------------------------------------------------------------
# Session pool
# ----------------------------------------------------------------------

class SessionPool:
    """Bounded pool of live sessions, one per distinct submission.

    Keyed by the raw netlist text (plus title): textually identical
    submissions reuse one session — and its in-memory solved-point
    cache and execution lock — while distinct texts get their own
    session but still share the persistent ``store``, so equal
    *topologies* share warm starts across the pool and across
    processes.  Per-plan solver options ride on the plans themselves
    and need no pool keying.  Eviction is LRU in lease order and
    flushes the evicted session to the store first, so evicting never
    loses solved points.
    """

    def __init__(self, store: Optional[CacheStore] = None, limit: int = 8):
        if limit < 1:
            raise ValueError(f"session pool limit must be >= 1, got {limit}")
        self.store = store
        self.limit = limit
        self._lock = threading.Lock()
        self._sessions: Dict[Tuple[str, str], Tuple[Session, threading.Lock]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def lease(self, netlist: str, title: str) -> Tuple[Session, threading.Lock]:
        """Get (building if needed) the session for a submission key.

        The returned lock serializes plan execution on that session;
        callers hold it for the duration of validation and solves.
        """
        key = (netlist, title)
        with self._lock:
            entry = self._sessions.pop(key, None)
            if entry is None:
                try:
                    circuit = parse_netlist(netlist, title=title)
                except NetlistError:
                    raise
                except (TypeError, ValueError) as exc:
                    # Parser leaves over malformed numerics; keep the
                    # submit contract: every bad netlist is typed.
                    raise NetlistError(f"netlist parse failed: {exc}") from None
                entry = (
                    Session(circuit, store=self.store),
                    threading.Lock(),
                )
                while len(self._sessions) >= self.limit:
                    oldest_key = next(iter(self._sessions))
                    evicted, _evicted_lock = self._sessions.pop(oldest_key)
                    evicted.flush_store()
            self._sessions[key] = entry  # re-insert at the tail (LRU)
            return entry

    def flush_all(self) -> int:
        """Flush every pooled session to the store; returns points written."""
        with self._lock:
            sessions = [session for session, _lock in self._sessions.values()]
        return sum(session.flush_store() for session in sessions)


# ----------------------------------------------------------------------
# Job records and the service
# ----------------------------------------------------------------------

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"


class JobRecord:
    """One submitted job: identity, lifecycle, attribution, result."""

    def __init__(self, job_id: str, request: dict, plan: AnalysisPlan,
                 circuit_title: str, fingerprint: str):
        self.id = job_id
        self.request = request
        self.plan = plan
        self.circuit_title = circuit_title
        self.fingerprint = fingerprint
        self.state = QUEUED
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.attempts = 0
        self.error: Optional[dict] = None
        self.result: Optional[dict] = None

    def to_dict(self, include_result: bool = False) -> dict:
        out = {
            "id": self.id,
            "state": self.state,
            "analysis": type(self.plan).__name__,
            "circuit": self.circuit_title,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
        }
        if include_result:
            out["result"] = self.result
        return out


class JobService:
    """The async job engine: validate-submit-queue-execute-record.

    ``workers`` threads drain the queue; each job executes inside its
    session's lock under ``supervised_call`` with the job's policy (or
    ``default_policy``).  ``cache_dir`` attaches a persistent
    :class:`CacheStore` (``<cache_dir>/opcache.jsonl``) shared by every
    pooled session.
    """

    def __init__(
        self,
        cache_dir=None,
        workers: int = 1,
        default_policy: Optional[RunPolicy] = None,
        session_limit: int = 8,
        store_points: int = 4096,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = (
            None
            if cache_dir is None
            else CacheStore(Path(cache_dir) / "opcache.jsonl", max_points=store_points)
        )
        self.pool = SessionPool(store=self.store, limit=session_limit)
        self.default_policy = default_policy or RunPolicy(on_failure="record")
        self.started_at = time.time()
        self._queue: "queue.Queue" = queue.Queue()
        self._jobs: Dict[str, JobRecord] = {}
        self._jobs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stopping = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- submission ----------------------------------------------------
    def submit(self, request) -> JobRecord:
        """Validate a wire request and enqueue it.

        Everything checkable without a solve happens here: the request
        shape, the netlist parse, plan construction, the planner's
        circuit-dependent validation, and the policy.  Any failure
        raises the typed :class:`PlanError`/``NetlistError`` the HTTP
        layer maps to 400 — and costs the submitter nothing but the
        validation itself.
        """
        try:
            if not isinstance(request, Mapping):
                raise PlanError(
                    f"job must be an object, got {type(request).__name__}"
                )
            unknown = sorted(set(request) - {"circuit", "plan", "policy"})
            if unknown:
                raise PlanError(f"job has no field(s): {', '.join(unknown)}")
            if "circuit" not in request or "plan" not in request:
                raise PlanError('job needs "circuit" and "plan" fields')
            netlist, title = _circuit_fields(request["circuit"])
            plan = plan_from_wire(request["plan"])
            policy_from_wire(request.get("policy"))  # validated here, built per run
            # The pool parses the netlist once, on the first lease.
            session, lock = self.pool.lease(netlist, title)
            with lock:
                session.validate(plan)
        except NetlistError:
            STATS.serve_jobs_rejected += 1
            raise
        if self._stopping:
            raise PlanError("service is shutting down; not accepting jobs")
        with self._jobs_lock:
            job = JobRecord(
                f"j{next(self._ids):04d}",
                dict(request),
                plan,
                session.circuit.title,
                session.fingerprint,
            )
            self._jobs[job.id] = job
        STATS.serve_jobs_submitted += 1
        self._queue.put(job.id)
        return job

    # -- queries -------------------------------------------------------
    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        with self._jobs_lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        out = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        for job in self.jobs():
            out[job.state] += 1
        return out

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:  # shutdown sentinel
                self._queue.task_done()
                return
            try:
                self._execute(self._jobs[job_id])
            finally:
                self._queue.task_done()

    def _execute(self, job: JobRecord) -> None:
        job.state = RUNNING
        job.started_at = time.time()
        circuit_wire = job.request["circuit"]
        session, lock = self.pool.lease(
            circuit_wire["netlist"], str(circuit_wire.get("title", ""))
        )
        policy = policy_from_wire(job.request.get("policy")) or self.default_policy
        with lock:
            outcome = supervised_call(
                lambda: session.run(job.plan).to_dict(), index=0, policy=policy
            )
            flushed = session.flush_store()
        job.attempts = outcome.attempts
        job.finished_at = time.time()
        if outcome.ok:
            job.result = outcome.value
            job.state = DONE
            STATS.serve_jobs_completed += 1
        else:
            failure = outcome.to_dict()
            failure.pop("index", None)
            job.error = failure
            job.state = FAILED
            STATS.serve_jobs_failed += 1
        del flushed  # write-through: points persisted before the state flip

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued/running job has finished."""
        deadline = None if timeout is None else time.time() + timeout
        while True:
            counts = self.counts()
            if counts[QUEUED] == 0 and counts[RUNNING] == 0:
                return True
            if deadline is not None and time.time() > deadline:
                return False
            time.sleep(0.01)

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop accepting, drain, flush the store."""
        self._stopping = True
        if drain:
            self.drain(timeout)
        for _thread in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=5.0)
        self.pool.flush_all()


__all__ = [
    "PLAN_TYPES",
    "JobRecord",
    "JobService",
    "SessionPool",
    "circuit_from_wire",
    "plan_from_wire",
    "plan_to_wire",
    "policy_from_wire",
]
