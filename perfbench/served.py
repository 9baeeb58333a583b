"""The ``served_mix`` workload: two clients against the HTTP job service.

The service runs as its own process (``python -m repro --serve``, a
fresh ``--cache-dir``, the default single job worker).  Two client
threads drive it in closed loops, one circuit each:

* client A sends IC(VBE) characterisation jobs on a diode-connected
  PNP bias deck: VEB(T) ``TempSweep`` and ``OP`` jobs, about half with
  a seeded bias-resistor override.  Most come from a small pool, so
  identical jobs repeat (exact solved-point cache hits); a share are
  fresh operating points that solve and write the persistent store;
* client B sends ``OP``/``TempSweep`` jobs on a 60-cell
  ``bandgap_array``;
* one request in each client's cycle (see :class:`RequestStream`) is
  invalid on purpose and passes only on a typed HTTP 400.

Latency is measured at the client, from submit until the result body is
received, polling ``GET /jobs/<id>/result`` every millisecond with one
connection per request (as the repository's own client does).  Every
served result is compared with a direct in-process ``Session.run`` of
the same request, computed before the loop starts.

Before the loop the service is primed in a fixed order: both circuits'
sessions are opened by a rejected request (no solve), then client A's
first operating point is solved and flushed to the store.  A third
"late joiner" circuit then opens a session over that store; at the
time of writing its job fails, because the solved-point cache offers a
warm start from another circuit's points (the topology fingerprint is
not checked for points merged from the store).  That failure is
reproduced on every run and reported as
``serve.cross_topology_failures``; it is not one of the measured ops.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.spice import OP, Session, TempSweep, bandgap_array
from repro.spice import parser as spice_parser

#: The diode-connected substrate PNP bias chain of
#: ``examples/netlist_playground.py``: the IC(VBE) device under test.
PNP_DECK = """
.title PTAT bias chain with a diode-connected PNP
.model QPNP PNP (IS=1.2e-17 BF=80 EG=1.1324 XTI=3.4616 RB=120 RE=18 RC=45)
V1 vdd 0 3.3
R1 vdd e 220k
Q1 0 0 e QPNP        ; diode-connected substrate PNP
"""
ARRAY_CELLS = 60
LATE_JOINER_CELLS = 61
#: VEB(T) grid of client A's sweeps: the paper's -80..145 C, 16 points.
VEB_TEMPS_K = tuple(193.15 + 15.0 * i for i in range(16))
POLL_S = 0.001
FRESH_PER_CYCLE = 3
FRESH_POOL = 600
#: Served and direct solutions of one request agree far better than
#: this [V]; a warm start from a different cached point moves the
#: converged answer by less than solver tolerance.
SAME_POINT_TOL = 1e-6


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------

class Request:
    """One wire request, its encoded body and what counts as correct."""

    def __init__(self, circuit: dict, plan_wire: dict, plan=None, expect_error: str = None):
        self.circuit = circuit
        self.body = json.dumps({"circuit": circuit, "plan": plan_wire}).encode()
        self.plan = plan
        self.expect_error = expect_error
        #: ``(fingerprint, voltages)`` of the direct run, set at setup.
        self.reference: Optional[Tuple[str, dict]] = None


def _overrides_wire(overrides):
    return [list(triple) for triple in overrides]


def _op_request(circuit, temperature_k, overrides=(), record=()):
    plan = OP(temperature_k=temperature_k, overrides=overrides, record=record)
    wire = {"analysis": "OP", "temperature_k": temperature_k,
            "overrides": _overrides_wire(overrides), "record": list(record)}
    return Request(circuit, wire, plan)


def _sweep_request(circuit, temperatures_k, overrides=(), record=()):
    plan = TempSweep(temperatures_k=temperatures_k, overrides=overrides, record=record)
    wire = {"analysis": "TempSweep", "temperatures_k": list(temperatures_k),
            "overrides": _overrides_wire(overrides), "record": list(record)}
    return Request(circuit, wire, plan)


def _invalid(circuit, plan_wire, expect="PlanError", **extra):
    request = Request(circuit, plan_wire, expect_error=expect)
    if extra:
        request.body = json.dumps({"circuit": circuit, "plan": plan_wire, **extra}).encode()
    return request


class Workload:
    """Every request of one seeded run, plus the priming requests."""

    def __init__(self, seed: int):
        rng = random.Random(f"served_mix/{seed}")
        self.seed = seed
        self.circuit_a = {"netlist": PNP_DECK}
        self.circuit_b = {
            "netlist": bandgap_array(cells=ARRAY_CELLS, jitter=rng.uniform(0.05, 0.2))
        }
        record_b = tuple(f"o{i}" for i in range(ARRAY_CELLS))

        def r1_override():
            return (("R1", "resistance", round(220e3 * rng.uniform(0.8, 1.2), 1)),)

        # The seed moves values, not the shape of the mix: which
        # temperatures and how many points each job solves are fixed,
        # so runs with different seeds do comparable work.
        pool_a = []
        for index, temperature_k in enumerate(VEB_TEMPS_K[::3]):
            overrides = r1_override() if index % 2 else ()
            pool_a.append(_op_request(self.circuit_a, temperature_k, overrides))
            pool_a.append(_sweep_request(self.circuit_a, VEB_TEMPS_K, overrides))
        self.pool_a = pool_a
        self.fresh_a = [
            _op_request(self.circuit_a, VEB_TEMPS_K[index % len(VEB_TEMPS_K)], r1_override())
            for index in range(FRESH_POOL)
        ]
        pool_b = []
        for centre in (270.0, 300.0, 330.0, 360.0):
            step = 20.0
            pool_b.append(_op_request(self.circuit_b, centre, record=record_b))
            pool_b.append(_sweep_request(
                self.circuit_b, (centre - step, centre, centre + step), record=record_b
            ))
        self.pool_b = pool_b
        self.invalid_a = [
            _invalid(self.circuit_a, {"analysis": "Noise"}),
            _invalid(self.circuit_a, {"analysis": "OP", "record": ["nowhere"]}),
            _invalid(self.circuit_a, {"analysis": "OP", "overrides": [["R9", "resistance", 1e3]]}),
            _invalid(self.circuit_a, {"analysis": "OP", "temperature_k": -5.0}),
            _invalid({"netlist": "R1 a\n"}, {"analysis": "OP"}, expect="NetlistError"),
        ]
        self.invalid_b = [
            _invalid(self.circuit_b, {"analysis": "TempSweep", "temperatures_k": []}),
            _invalid(self.circuit_b, {"analysis": "DCSweep", "source": "V9", "values": [1.0]}),
            _invalid(self.circuit_b, {"analysis": "OP"}, priority=1),
        ]
        # Priming: a rejected request opens a circuit's session without
        # solving anything; then A's first point reaches the store.
        self.lease_b = _invalid(self.circuit_b, {"analysis": "OP", "record": ["__lease__"]})
        self.lease_a = _invalid(self.circuit_a, {"analysis": "OP", "record": ["__lease__"]})
        self.prime_a = _op_request(self.circuit_a, 300.15)
        self.late_joiner = _op_request(
            {"netlist": bandgap_array(cells=LATE_JOINER_CELLS, title="late joiner")},
            300.15, record=("o0",),
        )

    def valid_requests(self) -> List[Request]:
        return self.pool_a + self.fresh_a + self.pool_b + [self.prime_a]

    def compute_references(self) -> None:
        """Direct in-process runs of every valid request: one session
        per circuit, as the service keeps."""
        sessions: Dict[str, Session] = {}
        for request in self.valid_requests():
            netlist = request.circuit["netlist"]
            session = sessions.get(netlist)
            if session is None:
                session = sessions[netlist] = Session(spice_parser.parse_netlist(netlist))
            result = session.run(request.plan).to_dict()
            request.reference = (result["fingerprint"], result["voltages"])


class RequestStream:
    """A client's seeded request sequence (identical for a given seed).

    The sequence is a series of cycles with a fixed composition in a
    seeded order — client A: its 12 pool jobs, 3 fresh operating points
    and 1 invalid request; client B: its 8 pool jobs twice and 1 invalid
    request — so every second of a run, and every seed, carries the
    same mix of work.
    """

    def __init__(self, workload: Workload, client: str):
        self._rng = random.Random(f"served_mix/{workload.seed}/{client}")
        self._workload = workload
        self._client = client
        self._fresh = 0
        self._cycle: List[Request] = []

    def _next_cycle(self) -> List[Request]:
        w, rng = self._workload, self._rng
        if self._client == "A":
            fresh = [w.fresh_a[(self._fresh + i) % len(w.fresh_a)] for i in range(FRESH_PER_CYCLE)]
            self._fresh += FRESH_PER_CYCLE
            cycle = w.pool_a + fresh + [rng.choice(w.invalid_a)]
        else:
            cycle = w.pool_b * 2 + [rng.choice(w.invalid_b)]
        rng.shuffle(cycle)
        return cycle

    def __next__(self) -> Request:
        if not self._cycle:
            self._cycle = self._next_cycle()
        return self._cycle.pop()


def check_served(request: Request, status: int, record: dict) -> Optional[str]:
    """None when a served response is correct, else why not."""
    if request.expect_error is not None:
        error_type = (record.get("error") or {}).get("type")
        if status == 400 and error_type == request.expect_error:
            return None
        return f"invalid request got HTTP {status} {error_type}, expected 400 {request.expect_error}"
    if status != 200:
        error = record.get("error") or {}
        return f"job failed: {error.get('error_type')}: {error.get('error')}"
    fingerprint, expected = request.reference
    result = record["result"]
    if result["fingerprint"] != fingerprint:
        return "served on another circuit"
    for node, value in expected.items():
        served = result["voltages"].get(node)
        if served is None:
            return f"node {node} missing"
        gap = max(abs(a - b) for a, b in zip(_as_list(served), _as_list(value)))
        if gap > SAME_POINT_TOL:
            return f"V({node}) differs from the direct run by {gap:.3g} V"
    return None


def _as_list(value):
    return value if isinstance(value, list) else [value]


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------

class Endpoint:
    """One service address; every call is its own connection.

    That is what the repository's own client does, and it matters: on a
    kept-alive connection the server's separate header and body writes
    meet the client's delayed ACK, costing ~40 ms per response.
    """

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port

    def call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def run(self, request: Request) -> Tuple[int, dict]:
        """Submit and poll until the result body (or a rejection)."""
        status, body = self.call("POST", "/jobs", request.body)
        if status != 202:
            return status, json.loads(body)
        path = f"/jobs/{json.loads(body)['id']}/result"
        while True:
            status, body = self.call("GET", path)
            if status != 409:
                return status, json.loads(body)
            time.sleep(POLL_S)

    def metrics(self) -> str:
        return self.call("GET", "/metrics")[1].decode()


# ----------------------------------------------------------------------
# The service process
# ----------------------------------------------------------------------

class ServerProcess:
    """``python -m repro --serve`` on a free port with a fresh store."""

    def __init__(self, root: Path, cache_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")])
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--serve", "--port", "0",
             "--cache-dir", str(cache_dir)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.endpoint: Optional[Endpoint] = None

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Block until ``/healthz`` answers; returns seconds since spawn."""
        deadline = self.started + timeout
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            raise RuntimeError(f"service did not start: {line!r}")
        host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
        self.endpoint = Endpoint(host, int(port))
        while True:
            try:
                if self.endpoint.call("GET", "/healthz")[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(POLL_S)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Graceful drain-and-stop; killed if it never became healthy or
        does not exit in time."""
        try:
            if self.endpoint is not None and self.proc.poll() is None:
                self.endpoint.call("POST", "/shutdown")
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


# ----------------------------------------------------------------------
# Priming and the client loop
# ----------------------------------------------------------------------

class Priming:
    """Outcome of the fixed-order priming sequence."""

    def __init__(self):
        self.errors: List[str] = []
        self.late_joiner: Optional[str] = None


def prime(endpoint: Endpoint, workload: Workload) -> Priming:
    out = Priming()
    for request in (workload.lease_b, workload.lease_a, workload.prime_a):
        status, record = endpoint.run(request)
        reason = check_served(request, status, record)
        if reason is not None:
            out.errors.append(f"priming: {reason}")
    status, record = endpoint.run(workload.late_joiner)
    if status != 200:
        error = record.get("error") or {}
        out.late_joiner = f"{error.get('error_type')}: {error.get('error')}"
    return out


class ClientResult:
    def __init__(self, name: str):
        self.name = name
        self.queue_wait_s: List[float] = []
        self.execute_s: List[float] = []
        self.http_overhead_s: List[float] = []
        #: ``(finished_at, latency_s)`` of every successful op
        #: (``time.perf_counter`` clock).
        self.completions: List[Tuple[float, float]] = []
        self.attempted = 0
        self.served_ok = 0
        self.failures: Dict[str, int] = {}
        self.busy_s = 0.0


def client_loop(
    endpoint: Endpoint,
    stream: RequestStream,
    out: ClientResult,
    deadline: Optional[float],
    max_ops: Optional[int],
) -> None:
    """Closed loop until ``deadline`` (perf_counter) or ``max_ops``."""
    while (time.perf_counter() < deadline) if max_ops is None else (out.attempted < max_ops):
        request = next(stream)
        start = time.perf_counter()
        try:
            status, record = endpoint.run(request)
            latency = time.perf_counter() - start
            reason = check_served(request, status, record)
        except (OSError, ValueError, KeyError) as exc:
            latency, reason = 0.0, f"{type(exc).__name__}: {exc}"
        out.busy_s += latency
        out.attempted += 1
        if reason is not None:
            key = f"client {out.name}: {reason}"
            out.failures[key] = out.failures.get(key, 0) + 1
            continue
        out.completions.append((start + latency, latency))
        if request.expect_error is None:
            out.served_ok += 1
            job_s = record["finished_at"] - record["submitted_at"]
            out.queue_wait_s.append(record["started_at"] - record["submitted_at"])
            out.execute_s.append(record["finished_at"] - record["started_at"])
            out.http_overhead_s.append(latency - job_s)


def run_clients(
    endpoint: Endpoint,
    workload: Workload,
    seconds: float,
    max_ops: Optional[Dict[str, int]] = None,
    sample=None,
    block_s: float = 1.0,
) -> Tuple[List[ClientResult], float, list]:
    """Both clients in their own threads, each a closed loop.

    With ``max_ops`` the clients run until each has attempted its
    count.  Otherwise they run for ``seconds`` in blocks of ``block_s``
    seconds; between blocks both are idle (each finishes its op in
    flight) while ``sample()``, when given, runs.  Returns the results,
    the wall time and, per block, ``(start, end, sample before, sample
    after)`` (``time.perf_counter`` clock).
    """
    results = [ClientResult("A"), ClientResult("B")]
    streams = [RequestStream(workload, r.name) for r in results]

    def block(deadline, limits):
        threads = [
            threading.Thread(
                target=client_loop,
                args=(endpoint, stream, r, deadline, limit),
                name=f"bench-client-{r.name}",
            )
            for r, stream, limit in zip(results, streams, limits)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    start = time.perf_counter()
    blocks = []
    if max_ops is not None:
        block(None, [max_ops[r.name] for r in results])
    else:
        before = sample() if sample is not None else None
        while time.perf_counter() < start + seconds:
            begin = time.perf_counter()
            block(begin + block_s, [None, None])
            end = time.perf_counter()
            after = sample() if sample is not None else None
            blocks.append((begin, end, before, after))
            before = after
    return results, time.perf_counter() - start, blocks


def server_times_ms(results: List[ClientResult]) -> Dict[str, float]:
    """Mean server-recorded queue wait / execute and the client-side
    remainder, over every served job."""
    out = {}
    for name, attr in (
        ("queue_wait_ms", "queue_wait_s"),
        ("execute_ms", "execute_s"),
        ("http_overhead_ms", "http_overhead_s"),
    ):
        values = [v for r in results for v in getattr(r, attr)]
        out[name] = 1e3 * statistics.fmean(values) if values else 0.0
    return out


def latency_shares(results: List[ClientResult]) -> Dict[str, float]:
    """How served jobs' client latency splits into server queue wait,
    server execution and the HTTP remainder (shares summing to 1)."""
    parts = {
        name: sum(v for r in results for v in getattr(r, f"{name}_s"))
        for name in ("queue_wait", "execute", "http_overhead")
    }
    total = sum(parts.values())
    return {f"serve.{name}_frac": value / total for name, value in parts.items()}


def fresh_cache_dir(scratch: Path, label: str) -> Path:
    path = scratch / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path

