"""Simulation-as-a-service: a persistent solved-point store and an
async HTTP job server over a Session pool.

The Session layer (PR 5) owns a solved-point cache that amortises the
cold gain-stepping ladder across analyses — but the cache dies with the
process.  This package is the missing durability-and-transport layer:

* :mod:`repro.serve.cachestore` — :class:`~.cachestore.CacheStore`, a
  disk-backed store for solved points keyed by the *existing* session
  cache key ``(topology fingerprint, overrides, pinned time, solver
  options, temperature)``.  Sessions load it on open and flush to it on
  close (``Session(..., store=...)``), so warm starts survive process
  death and are shared across concurrent sessions.  The on-disk format
  is a schema-versioned JSONL log (``repro-opcache/1``) with
  flock-serialized atomic appends, last-write-wins compaction, an
  LRU-style capacity bound, and corruption tolerance: a truncated or
  garbage file is treated as empty (counted in
  ``STATS.op_store_corrupt_records``), never a crash.  The multistable
  warm-start gates are untouched by construction — the store only
  *feeds* :class:`~repro.spice.session.SolvedPointCache`, whose value
  band, 50 K temperature band and pinned-time key still gate every
  candidate, so a dead-supply state loaded from disk can never seed a
  powered solve.
* :mod:`repro.serve.jobs` — the execution layer: the JSON wire codec
  for plans/circuits, a bounded :class:`~.jobs.SessionPool` (one
  session per netlist and title, LRU-evicted through the store), and
  :class:`~.jobs.JobService`, whose worker threads run each job under a
  :class:`~repro.resilience.RunPolicy` via ``supervised_call`` —
  bounded per-job retries with ``Outcome``-style failure attribution in
  the job record.
* :mod:`repro.serve.server` — the stdlib-only HTTP front end
  (``ThreadingHTTPServer``).  Endpoints:

  ================================  ==================================
  ``POST /jobs``                    submit ``{"circuit": {"netlist":
                                    ...}, "plan": {...}}``; rejected
                                    *before any solve* by the existing
                                    ``PlanError`` validation boundary
                                    => HTTP 400 with the typed message;
                                    accepted => 202 + job id
  ``GET /jobs``                     the retained job records (most
                                    recent last)
  ``GET /jobs/<id>``                one job's status record (410 once
                                    evicted: the service keeps the
                                    last ``MAX_FINISHED_JOBS``
                                    finished jobs)
  ``GET /jobs/<id>/result``         the ``AnalysisResult.to_dict()``
                                    payload (409 while pending, 500
                                    with the failure record, 410 once
                                    evicted)
  ``GET /metrics``                  ``telemetry.prometheus_text()``
                                    plus job-queue gauges
  ``GET /healthz``                  liveness + job/session counts
  ``POST /shutdown``                graceful drain-and-stop
  ================================  ==================================

* :mod:`repro.serve.client` — a urllib client plus the
  ``python -m repro.serve.client`` CLI (``healthz``/``submit``/
  ``status``/``result``/``metrics``/``shutdown``).

Start a server with ``python -m repro --serve [--port P] [--cache-dir
D]``; it binds ``127.0.0.1`` by default (there is no authentication —
fronting a network deployment is out of scope by design).  Graceful
shutdown (SIGINT/SIGTERM or ``POST /shutdown``) drains in-flight jobs
and flushes every pooled session to the cache store.

The package's exports load their module on first access (PEP 562), so
``from repro.serve import JobService`` works as before while
``python -m repro.serve.client`` imports the urllib client alone: no
server, no numpy, no engine.  The default address lives here, where
both the server and the client read it.
"""

import importlib

#: Default bind address: loopback only (no authentication by design).
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8347

#: Lazy export -> the submodule that defines it.
_EXPORTS = {
    "CacheStore": "cachestore",
    "OPCACHE_SCHEMA": "cachestore",
    "JobService": "jobs",
    "SessionPool": "jobs",
    "ReproServer": "server",
    "serve": "server",
    "ServeClient": "client",
    "ServeError": "client",
}


def __getattr__(name):
    # Lazy also for the client: the package import that precedes
    # ``python -m repro.serve.client`` must not pre-import the client
    # module (runpy would warn about the double import).
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


__all__ = [
    "CacheStore",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JobService",
    "OPCACHE_SCHEMA",
    "ReproServer",
    "ServeClient",
    "ServeError",
    "SessionPool",
    "serve",
]
