"""Tests for the HTTP front end and the urllib client.

The servers bind an ephemeral loopback port (``port=0``) and are torn
down in fixtures, so the suite leaks no sockets (the repo-wide
``filterwarnings = error`` would turn a leaked socket's
ResourceWarning into a failure).
"""

import http.client
import json
import socket
import time
import urllib.request

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.server import ReproServer
from repro.spice.stats import STATS

from test_jobs import OUT_OF_RANGE_PLANS, WRONG_TYPED_PLANS

NETLIST = ".model DM D (IS=1e-15 N=1.0)\nV1 in 0 5\nR1 in d 1k\nD1 d 0 DM\n"
REQUEST = {
    "circuit": {"netlist": NETLIST, "title": "http"},
    "plan": {"analysis": "OP", "record": ["d"]},
}


@pytest.fixture(autouse=True)
def _reset_stats():
    STATS.reset()
    yield
    STATS.reset()


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(port=0, cache_dir=tmp_path, workers=1).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    return ServeClient(server.url)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_submit_poll_result(self, client):
        job_id = client.submit(REQUEST)
        record = client.wait(job_id)
        assert record["state"] == "done"
        assert record["analysis"] == "OP"
        payload = client.result(job_id)
        assert 0.6 < payload["voltages"]["d"] < 0.9
        assert [job["id"] for job in client.jobs()] == [job_id]

    def test_plan_error_maps_to_400(self, server, client):
        with pytest.raises(ServeError) as err:
            client.submit(
                {"circuit": {"netlist": NETLIST},
                 "plan": {"analysis": "OP", "record": ["nowhere"]}}
            )
        assert err.value.status == 400
        assert err.value.error_type == "PlanError"
        assert "unknown node" in err.value.message
        # A field of the wrong JSON type or an option no solve can meet
        # is the same typed 400: each moves the rejection counter by one
        # and queues nothing.
        refused = dict(WRONG_TYPED_PLANS)
        refused.update((case, plan) for case, (plan, _) in OUT_OF_RANGE_PLANS.items())
        for case, plan in refused.items():
            rejected = STATS.serve_jobs_rejected
            with pytest.raises(ServeError) as err:
                client.submit({"circuit": {"netlist": NETLIST}, "plan": plan})
            assert (err.value.status, err.value.error_type) == (400, "PlanError"), case
            assert STATS.serve_jobs_rejected == rejected + 1, case
            assert client.jobs() == [], case
        assert server.service._queue.empty()
        assert STATS.newton_solves == 0

    def test_non_finite_override_maps_to_400(self, server, client):
        # The client encodes NaN as a bare JSON literal the server reads
        # back; the plan refuses it before any job is queued.
        plan = {"analysis": "OP", "overrides": [["R1", "resistance", float("nan")]]}
        rejected = STATS.serve_jobs_rejected
        with pytest.raises(ServeError) as err:
            client.submit({"circuit": {"netlist": NETLIST}, "plan": plan})
        assert (err.value.status, err.value.error_type) == (400, "PlanError")
        assert "R1.resistance" in err.value.message
        assert STATS.serve_jobs_rejected == rejected + 1
        assert client.jobs() == []
        assert server.service._queue.empty()
        assert STATS.newton_solves == 0

    def test_unbounded_policy_maps_to_400(self, server, client):
        rejected = STATS.serve_jobs_rejected
        with pytest.raises(ServeError) as err:
            client.submit(
                {**REQUEST, "policy": {"max_retries": 1, "backoff_s": 1e9}}
            )
        assert (err.value.status, err.value.error_type) == (400, "PlanError")
        assert "limit is 60 s" in err.value.message
        assert STATS.serve_jobs_rejected == rejected + 1
        assert client.jobs() == []
        assert server.service._queue.empty()
        assert STATS.newton_solves == 0

    def test_netlist_error_maps_to_400(self, client):
        with pytest.raises(ServeError) as err:
            client.submit(
                {"circuit": {"netlist": "R1 a 0 not-a-value"},
                 "plan": {"analysis": "OP"}}
            )
        assert err.value.status == 400
        assert err.value.error_type == "NetlistError"

    def test_unphysical_model_maps_to_400(self, server, client):
        # A .model card the BJT model rejects (BF=-1) is a bad netlist:
        # a typed 400 before any solve, not a dropped connection.
        netlist = ".model Q NPN (BF=-1)\nV1 c 0 1\nQ1 c c 0 Q\n"
        rejected = STATS.serve_jobs_rejected
        with pytest.raises(ServeError) as err:
            client.submit({"circuit": {"netlist": netlist}, "plan": {"analysis": "OP"}})
        assert (err.value.status, err.value.error_type) == (400, "NetlistError")
        assert "BF" in err.value.message
        assert STATS.serve_jobs_rejected == rejected + 1
        assert client.jobs() == []
        assert server.service._queue.empty()

    def test_malformed_json_maps_to_400(self, server):
        req = urllib.request.Request(
            server.url + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        with err.value as resp:
            assert resp.code == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeError) as err:
            client.status("j9999")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        job_id = client.submit(REQUEST)
        assert client.wait(job_id)["state"] == "done"
        for path in ("/nope", f"/jobs/{job_id}/status",
                     f"/jobs/{job_id}/result/x", f"/jobs/{job_id}/result/x/y"):
            with pytest.raises(ServeError) as err:
                client._request("GET", path)
            assert (err.value.status, err.value.error_type) == (404, "NotFound"), path

    def test_failed_job_result_is_500_with_attribution(self, client, monkeypatch):
        from repro.spice.session import Session

        monkeypatch.setattr(
            Session, "run",
            lambda self, plan: (_ for _ in ()).throw(
                RuntimeError("server-side death")
            ),
        )
        job_id = client.submit(REQUEST)
        record = client.wait(job_id)
        assert record["state"] == "failed"
        assert record["error"]["error_type"] == "RuntimeError"
        with pytest.raises(ServeError) as err:
            client.result(job_id)
        assert err.value.status == 500

    def test_metrics_exposes_counters_and_gauges(self, client):
        client.run(REQUEST)
        text = client.metrics()
        assert "repro_serve_jobs_submitted_total 1" in text
        assert "repro_op_store_points_written_total 1" in text
        assert "repro_serve_queue_depth 0" in text
        assert "repro_serve_jobs_running 0" in text
        assert "repro_serve_sessions_pooled 1" in text

    def test_shutdown_drains_and_stops(self, server, client):
        job_id = client.submit(REQUEST)
        assert client.shutdown() == {"status": "stopping"}
        server.wait()
        # Drained before stopping: the job finished and flushed.
        assert server.service.job(job_id).state == "done"


class TestKeepAlive:
    def test_keep_alive_responses_are_not_held_back(self, server):
        # Each response goes out as two sends (headers, body).  With
        # Nagle's algorithm on, the body of every response after the
        # first waits for the client's delayed ACK (~40 ms), so ten
        # requests on one connection would take 0.4 s or more.
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(10):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.2


class TestRequestBodyLimits:
    """``POST /jobs`` refuses a body whose framing it cannot trust before
    reading it: answered at once, the connection closed, no job queued."""

    BODY = json.dumps(REQUEST).encode()

    def _post_raw(self, server, content_length, body, half_close=False):
        """Send one ``POST /jobs`` over a raw socket; the answer must
        arrive within 0.5 s.  Returns ``(status, error_type)``."""
        host, port = server.address
        head = "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        if content_length is not None:
            head += f"Content-Length: {content_length}\r\n"
        start = time.perf_counter()
        with socket.create_connection((host, port), timeout=0.5) as sock:
            sock.sendall(head.encode() + b"\r\n" + body)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            data = b""
            while b"\r\n\r\n" not in data:
                chunk = sock.recv(65536)
                assert chunk, f"connection closed without a response: {data!r}"
                data += chunk
            headers, _, rest = data.partition(b"\r\n\r\n")
            lines = headers.decode().split("\r\n")
            fields = dict(line.split(": ", 1) for line in lines[1:])
            while len(rest) < int(fields["Content-Length"]):
                chunk = sock.recv(65536)
                assert chunk, "connection closed mid-body"
                rest += chunk
        assert time.perf_counter() - start < 0.5
        assert fields.get("Connection") == "close"
        payload = json.loads(rest[: int(fields["Content-Length"])])
        return int(lines[0].split()[1]), payload["error"]["type"]

    @pytest.mark.parametrize(
        "content_length",
        [None, "-1", "abc", "12x", "1e3"],
        ids=["missing", "negative", "word", "suffix", "float"],
    )
    def test_untrusted_length_is_400(self, server, content_length):
        before = server.service.counts()
        status, error_type = self._post_raw(server, content_length, self.BODY)
        assert (status, error_type) == (400, "ValueError")
        assert server.service.counts() == before

    @pytest.mark.parametrize("content_length", ["2147483648", str(8 * 2**20 + 1)])
    def test_oversized_length_is_413(self, server, content_length):
        before = server.service.counts()
        status, error_type = self._post_raw(server, content_length, self.BODY)
        assert (status, error_type) == (413, "ValueError")
        assert server.service.counts() == before

    def test_short_body_is_400(self, server):
        before = server.service.counts()
        status, error_type = self._post_raw(
            server, len(self.BODY) + 20, self.BODY, half_close=True
        )
        assert (status, error_type) == (400, "ValueError")
        assert server.service.counts() == before

    def test_server_keeps_serving_after_refusals(self, server, client):
        self._post_raw(server, "-1", self.BODY)
        self._post_raw(server, "2147483648", self.BODY)
        assert client.wait(client.submit(REQUEST))["state"] == "done"


class TestRestartWarmStart:
    def test_restart_serves_persistent_cache(self, tmp_path):
        request = {
            "circuit": {"netlist": NETLIST, "title": "restart"},
            "plan": {
                "analysis": "TempSweep",
                "temperatures_k": [280.15, 300.15, 320.15],
                "record": ["d"],
            },
        }
        first = ReproServer(port=0, cache_dir=tmp_path, workers=1).start()
        try:
            before = STATS.snapshot()
            cold_payload = ServeClient(first.url).run(request)
            cold = STATS.delta_since(before)
        finally:
            first.stop()

        second = ReproServer(port=0, cache_dir=tmp_path, workers=1).start()
        try:
            before = STATS.snapshot()
            warm_payload = ServeClient(second.url).run(request)
            warm = STATS.delta_since(before)
        finally:
            second.stop()

        assert warm["op_store_points_loaded"] == 3
        assert warm["op_cache_hits"] >= 1
        assert warm["factorizations"] < cold["factorizations"]
        assert warm_payload == cold_payload


class TestClientCLI:
    def test_submit_wait_result_via_main(self, server, tmp_path, capsys):
        from repro.serve.client import main

        request_file = tmp_path / "req.json"
        request_file.write_text(json.dumps(REQUEST))
        assert main(["--url", server.url, "run", str(request_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.6 < payload["voltages"]["d"] < 0.9

    def test_rejection_exits_nonzero_with_typed_message(
        self, server, tmp_path, capsys
    ):
        from repro.serve.client import main

        request_file = tmp_path / "bad.json"
        request_file.write_text(
            json.dumps(
                {"circuit": {"netlist": NETLIST},
                 "plan": {"analysis": "TempSweep", "temperatures_k": []}}
            )
        )
        assert main(["--url", server.url, "submit", str(request_file)]) == 1
        err = capsys.readouterr().err
        assert "HTTP 400 PlanError" in err

    def test_unknown_command_is_usage_error(self, capsys):
        from repro.serve.client import main

        assert main(["frobnicate"]) == 2


class TestJobRetention:
    def test_evicted_job_is_410_and_never_issued_is_404(
        self, client, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.jobs.MAX_FINISHED_JOBS", 2)
        ids = [client.submit(REQUEST) for _ in range(3)]
        # One worker finishes the jobs in order: the third evicts the first.
        assert client.wait(ids[2])["state"] == "done"
        for fetch in (client.status, client.result):
            with pytest.raises(ServeError) as err:
                fetch(ids[0])
            assert (err.value.status, err.value.error_type) == (410, "Gone")
            assert ids[0] in err.value.message
        assert client.status(ids[2])["state"] == "done"
        assert 0.6 < client.result(ids[2])["voltages"]["d"] < 0.9
        with pytest.raises(ServeError) as err:
            client.status("j9999")
        assert (err.value.status, err.value.error_type) == (404, "NotFound")
        # An evicted id under an unknown route is still no route.
        with pytest.raises(ServeError) as err:
            client._request("GET", f"/jobs/{ids[0]}/status")
        assert err.value.status == 404
        assert [job["id"] for job in client.jobs()] == ids[1:]
        assert client.health()["jobs"] == {
            "queued": 0, "running": 0, "done": 2, "failed": 0
        }
