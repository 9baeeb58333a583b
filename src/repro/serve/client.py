"""A stdlib (urllib) client for the simulation service.

:class:`ServeClient` wraps the HTTP endpoint table — submit, poll,
fetch result, metrics, health, shutdown — and raises
:class:`ServeError` with the server's typed error record on any non-2xx
response, so callers see ``PlanError`` rejections as structured data
rather than an HTTP stack trace.

The module doubles as the CLI::

    python -m repro.serve.client [--url http://127.0.0.1:8347] CMD ...

    health                      liveness record
    submit <request.json|->     POST a job (file or stdin); prints the id
    run <request.json|->        submit + wait + print the result payload
    status <job-id>             one job's status record
    result <job-id>             a finished job's result payload
    wait <job-id>               poll until done/failed, then print status
    metrics                     raw Prometheus text
    shutdown                    graceful drain-and-stop

A 400 rejection prints ``HTTP 400 PlanError: <message>`` on stderr and
exits 1 — the validation boundary is visible end to end.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional

from . import DEFAULT_HOST, DEFAULT_PORT


class ServeError(Exception):
    """A non-2xx server response, carrying the typed error record."""

    def __init__(self, status: int, error_type: str, message: str):
        super().__init__(f"HTTP {status} {error_type}: {message}")
        self.status = status
        self.error_type = error_type
        self.message = message


class ServeClient:
    """One service endpoint; all methods are blocking HTTP round trips."""

    def __init__(self, url: Optional[str] = None, timeout: float = 30.0):
        self.url = (url or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}").rstrip("/")
        self.timeout = timeout

    # -- plumbing ------------------------------------------------------
    def _request(self, method: str, path: str, payload=None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(
            self.url + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
                content_type = resp.headers.get("Content-Type", "")
        except urllib.error.HTTPError as exc:
            with exc:  # close the response in all paths
                body = exc.read()
            try:
                error = json.loads(body).get("error", {})
            except (json.JSONDecodeError, AttributeError):
                error = {}
            raise ServeError(
                exc.code,
                error.get("type", "HTTPError"),
                error.get("message", body.decode(errors="replace").strip()),
            ) from None
        if content_type.startswith("text/plain"):
            return body.decode()
        return json.loads(body)

    # -- endpoints -----------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, request: dict) -> str:
        """POST a job request; returns the job id (raises ServeError on
        a 400 validation rejection)."""
        return self._request("POST", "/jobs", payload=request)["id"]

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> dict:
        """A finished job's ``AnalysisResult.to_dict`` payload."""
        return self._request("GET", f"/jobs/{job_id}/result")["result"]

    def wait(self, job_id: str, timeout: float = 120.0, poll_s: float = 0.05) -> dict:
        """Poll until the job leaves queued/running; returns its status."""
        deadline = time.time() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] not in ("queued", "running"):
                return record
            if time.time() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )
            time.sleep(poll_s)

    def run(self, request: dict, timeout: float = 120.0) -> dict:
        """Submit, wait, and return the result payload (raises
        :class:`ServeError` if the job terminally failed)."""
        job_id = self.submit(request)
        record = self.wait(job_id, timeout=timeout)
        if record["state"] != "done":
            error = record.get("error") or {}
            raise ServeError(
                500, error.get("error", "JobFailed"),
                f"job {job_id} failed: {error.get('message', record)}",
            )
        return self.result(job_id)

    def metrics(self) -> str:
        return self._request("GET", "/metrics")

    def wait_healthy(self, timeout: float = 15.0, poll_s: float = 0.1) -> dict:
        """Poll ``/healthz`` until the server answers (startup barrier)."""
        deadline = time.time() + timeout
        while True:
            try:
                return self.health()
            except (OSError, ServeError):
                if time.time() > deadline:
                    raise
                time.sleep(poll_s)

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def _load_request(arg: str) -> dict:
    if arg == "-":
        return json.loads(sys.stdin.read())
    with open(arg) as fh:
        return json.loads(fh.read())


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    url = None
    if "--url" in argv:
        at = argv.index("--url")
        if at + 1 >= len(argv):
            print("--url needs a value", file=sys.stderr)
            return 2
        url = argv[at + 1]
        del argv[at:at + 2]
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    command, args = argv[0], argv[1:]
    client = ServeClient(url)
    try:
        if command == "health":
            print(json.dumps(client.health(), indent=2, sort_keys=True))
        elif command == "submit":
            print(client.submit(_load_request(args[0] if args else "-")))
        elif command == "run":
            payload = client.run(_load_request(args[0] if args else "-"))
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif command == "status":
            print(json.dumps(client.status(args[0]), indent=2, sort_keys=True))
        elif command == "result":
            print(json.dumps(client.result(args[0]), indent=2, sort_keys=True))
        elif command == "wait":
            print(json.dumps(client.wait(args[0]), indent=2, sort_keys=True))
        elif command == "metrics":
            print(client.metrics(), end="")
        elif command == "shutdown":
            print(json.dumps(client.shutdown(), sort_keys=True))
        else:
            print(f"unknown command {command!r}", file=sys.stderr)
            return 2
    except ServeError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (IndexError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"bad arguments for {command!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())


__all__ = ["ServeClient", "ServeError", "main"]
