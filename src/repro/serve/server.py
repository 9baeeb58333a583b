"""Stdlib-only HTTP front end over the :class:`~.jobs.JobService`.

One ``ThreadingHTTPServer`` (the handler threads only queue/read — all
solving happens on the service's worker threads) exposing the endpoint
table in the package docstring.  Error contract:

* Submission failures caught by the :class:`~repro.errors.PlanError`
  validation boundary (or any other typed ``NetlistError``) => **400**
  with ``{"error": {"type": ..., "message": ...}}`` — before any solve.
* Unknown job id, or any path under ``/jobs/<id>`` other than
  ``/result`` => **404**; result of a pending job => **409**; result
  of a failed job => **500** carrying the job's failure record.
* ``/jobs/<id>`` or ``/jobs/<id>/result`` of a job this server ran but
  no longer keeps => **410** (``type: "Gone"``): the service retains
  the last :data:`~.jobs.MAX_FINISHED_JOBS` finished jobs.
* Malformed JSON or a non-JSON body => **400** (``type: "ValueError"``).
* A body whose framing cannot be trusted is refused before it is read,
  and the connection is closed: a missing, non-integer or negative
  ``Content-Length``, or fewer body bytes than it declared => **400**;
  a ``Content-Length`` above :data:`MAX_BODY_BYTES` => **413**.  No job
  is queued in any of these cases.

The server binds ``127.0.0.1`` by default and has no authentication —
it is a local simulation daemon, not a network deployment (see the
security note in the package docstring and README).  Graceful shutdown
— SIGINT/SIGTERM or ``POST /shutdown`` — stops accepting jobs, drains
the queue, flushes every pooled session to the cache store, then stops
the listener.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..errors import NetlistError
from ..spice.stats import STATS
from ..telemetry import prometheus_text
from . import DEFAULT_HOST, DEFAULT_PORT
from .jobs import FAILED, QUEUED, RUNNING, JobService

#: Largest request body the server reads (8 MiB); a longer declared
#: ``Content-Length`` is answered 413 before a byte of it is read.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BodyError(ValueError):
    """A request body refused before (or while) reading it."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; the owning :class:`ReproServer` injects
    itself as ``self.server.repro`` (the ThreadingHTTPServer instance
    carries the reference)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY: a response goes out as two sends (headers, body), and
    # under Nagle the body would wait for a keep-alive client's delayed
    # ACK — tens of milliseconds per response.
    disable_nagle_algorithm = True

    # Quiet by default: the BaseHTTPRequestHandler per-request stderr
    # log is noise under pytest and CI.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing ------------------------------------------------------
    def _send(self, status: int, payload, content_type="application/json",
              close: bool = False) -> None:
        body = (
            payload.encode()
            if isinstance(payload, str)
            else (json.dumps(payload, sort_keys=True) + "\n").encode()
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also ends this handler's keep-alive loop.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc_type: str, message: str,
               close: bool = False) -> None:
        self._send(
            status, {"error": {"type": exc_type, "message": message}}, close=close
        )

    def _read_json(self):
        """The request body as JSON, its ``Content-Length`` checked
        before anything is read (:class:`_BodyError` otherwise)."""
        text = self.headers.get("Content-Length")
        if text is None:
            raise _BodyError(400, "missing Content-Length; expected a JSON body")
        text = text.strip()
        if not (text.isascii() and text.isdigit()):
            raise _BodyError(
                400,
                f"invalid Content-Length {text!r}: expected a non-negative integer",
            )
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise _BodyError(
                413,
                f"request body of {length} bytes exceeds the limit of "
                f"{MAX_BODY_BYTES} bytes",
            )
        raw = self.rfile.read(length)
        if len(raw) < length:
            raise _BodyError(
                400, f"short request body: {len(raw)} of {length} bytes"
            )
        if not raw:
            raise ValueError("empty request body; expected JSON")
        return json.loads(raw)

    @property
    def _service(self) -> JobService:
        return self.server.repro.service

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            service = self._service
            self._send(
                200,
                {
                    "status": "ok",
                    "uptime_s": round(time.time() - service.started_at, 3),
                    "jobs": service.counts(),
                    "sessions": len(service.pool),
                    "store": service.store is not None
                    and str(service.store.path),
                },
            )
        elif path == "/metrics":
            service = self._service
            counts = service.counts()
            gauges = (
                "# HELP repro_serve_queue_depth Jobs queued and not yet "
                "running.\n"
                "# TYPE repro_serve_queue_depth gauge\n"
                f"repro_serve_queue_depth {counts[QUEUED]}\n"
                "# HELP repro_serve_jobs_running Jobs currently executing.\n"
                "# TYPE repro_serve_jobs_running gauge\n"
                f"repro_serve_jobs_running {counts[RUNNING]}\n"
                "# HELP repro_serve_sessions_pooled Live sessions in the "
                "pool.\n"
                "# TYPE repro_serve_sessions_pooled gauge\n"
                f"repro_serve_sessions_pooled {len(service.pool)}\n"
            )
            self._send(
                200,
                prometheus_text(STATS) + gauges,
                content_type="text/plain; version=0.0.4",
            )
        elif path == "/jobs":
            self._send(
                200, {"jobs": [job.to_dict() for job in self._service.jobs()]}
            )
        elif path.startswith("/jobs/"):
            parts = path.split("/")[2:]  # ["<id>"] or ["<id>", "result"]
            job = self._service.job(parts[0])
            if job is None:
                if parts[1:] in ([], ["result"]) and self._service.evicted(parts[0]):
                    self._error(
                        410, "Gone", f"job {parts[0]} finished and its record "
                        "was evicted: only the latest finished jobs are kept"
                    )
                else:
                    self._error(404, "NotFound", f"no such job {parts[0]!r}")
            elif len(parts) == 1:
                self._send(200, job.to_dict())
            elif parts[1:] == ["result"]:
                if job.state in (QUEUED, RUNNING):
                    self._error(
                        409, "Pending", f"job {job.id} is {job.state}; poll "
                        f"GET /jobs/{job.id} until it finishes"
                    )
                elif job.state == FAILED:
                    self._send(500, job.to_dict(include_result=False))
                else:
                    self._send(200, job.to_dict(include_result=True))
            else:
                self._error(404, "NotFound", f"no such route {path!r}")
        else:
            self._error(404, "NotFound", f"no such route {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/jobs":
            try:
                request = self._read_json()
            except _BodyError as exc:
                # Unread body bytes would be parsed as the next request.
                self._error(exc.status, "ValueError", str(exc), close=True)
                return
            except (ValueError, json.JSONDecodeError) as exc:
                self._error(400, "ValueError", str(exc))
                return
            try:
                job = self._service.submit(request)
            except NetlistError as exc:
                # The typed validation boundary: PlanError (and every
                # other NetlistError) rejected before any solve.
                self._error(400, type(exc).__name__, str(exc))
                return
            self._send(202, {"id": job.id, "state": job.state})
        elif path == "/shutdown":
            self._send(202, {"status": "stopping"})
            self.server.repro.stop_async()
        else:
            self._error(404, "NotFound", f"no such route {path!r}")


class ReproServer:
    """The bound listener plus its job service.

    ``start()`` serves on a daemon thread (tests and the experiment use
    this in-process); :func:`serve` below is the blocking CLI entry.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        cache_dir=None,
        workers: int = 1,
    ):
        self.service = JobService(cache_dir=cache_dir, workers=workers)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.repro = self
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ReproServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: drain jobs, flush the store, stop listening."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.service.stop(drain=drain)
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def stop_async(self) -> None:
        """Shutdown from a request handler (cannot block its own server
        thread on ``httpd.shutdown``)."""
        threading.Thread(
            target=self.stop, name="repro-serve-stop", daemon=True
        ).start()

    def wait(self) -> None:
        """Block until the server has fully stopped."""
        self._stopped.wait()
        if self._thread is not None:
            self._thread.join()


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    cache_dir=None,
    workers: int = 1,
) -> None:
    """Blocking entry point: ``python -m repro --serve``.

    Installs SIGINT/SIGTERM handlers that trigger the same graceful
    drain-flush-stop path as ``POST /shutdown``.
    """
    server = ReproServer(host=host, port=port, cache_dir=cache_dir, workers=workers)

    def _signalled(_signum, _frame):
        server.stop_async()

    signal.signal(signal.SIGINT, _signalled)
    signal.signal(signal.SIGTERM, _signalled)
    server.start()
    bound_host, bound_port = server.address
    store = server.service.store
    print(f"repro-serve listening on http://{bound_host}:{bound_port}")
    if store is not None:
        print(f"repro-serve cache store: {store.path}")
    print("repro-serve endpoints: POST /jobs, GET /jobs[/<id>[/result]], "
          "GET /metrics, GET /healthz, POST /shutdown")
    server.wait()
    print("repro-serve stopped")


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ReproServer",
    "serve",
]
