"""The asyncio HTTP front end, exercised over a real socket."""

import asyncio
import json
import http.client
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.graph import builders
from repro.server import QueryService, RetryPolicy
from repro.server.app import HttpServer, parse_request_body

QN = """
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
"""


class _Harness:
    """One HttpServer on an ephemeral port, its loop on a daemon thread."""

    def __init__(self):
        self.service = QueryService(
            graphs={"default": builders.diamond_chain(6)},
            pool_size=2,
            pool_mode="thread",
            retry=RetryPolicy(max_attempts=2, base_delay=0.005),
        )
        self.server = HttpServer(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        assert started.wait(10), "server failed to start"

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=60
        )
        try:
            conn.request(
                method, path, body=json.dumps(body) if body is not None else None
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read()), dict(resp.getheaders())
        finally:
            conn.close()

    def close(self):
        fut = asyncio.run_coroutine_threadsafe(
            self.server.stop(grace=5.0), self.loop
        )
        fut.result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


@pytest.fixture(scope="module")
def harness():
    h = _Harness()
    yield h
    h.close()


class TestEndpoints:
    def test_healthz(self, harness):
        status, doc, _ = harness.request("GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["workers_alive"] == 2

    def test_query_ok(self, harness):
        status, doc, _ = harness.request(
            "POST",
            "/query",
            {"query": QN, "params": {"srcName": "v0", "tgtName": "v5"}},
        )
        assert status == 200
        assert doc["outcome"] == "ok"
        assert doc["result"]["printed"] == [
            {"R": [{"name": "v5", "pathCount": 32}]}
        ]
        assert doc["http_status"] == 200  # body matches wire status

    def test_query_lint_error_maps_to_400(self, harness):
        status, doc, _ = harness.request(
            "POST", "/query", {"query": "CREATE QUERY broken("}
        )
        assert status == 400
        assert doc["outcome"] == "lint-error"

    def test_malformed_body_is_bad_request(self, harness):
        for body in ({"no_query": 1}, {"query": 42}, {"query": ""}, 7):
            status, doc, _ = harness.request("POST", "/query", body)
            assert status == 400
            assert doc["outcome"] == "bad-request"

    def test_unknown_route_404(self, harness):
        status, _, _ = harness.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, harness):
        status, _, _ = harness.request("PUT", "/query", {"query": "x"})
        assert status == 405

    def test_metrics_exports_counters_and_gauges(self, harness):
        harness.request(
            "POST",
            "/query",
            {"query": QN, "params": {"srcName": "v0", "tgtName": "v5"}},
        )
        status, doc, _ = harness.request("GET", "/metrics")
        assert status == 200
        assert doc["counters"]["server.requests"] >= 1
        outcome_total = sum(
            v
            for k, v in doc["counters"].items()
            if k.startswith("server.outcome.")
        )
        assert outcome_total == doc["counters"]["server.requests"]
        assert "queue_depth" in doc["admission"]
        assert doc["pool"]["size"] == 2
        assert doc["retry"]["max_attempts"] == 2

    def test_unknown_budget_class_400(self, harness):
        status, doc, _ = harness.request(
            "POST", "/query", {"query": QN, "class": "platinum"}
        )
        assert status == 400
        assert doc["outcome"] == "bad-request"


class TestDrainingShutdown:
    def test_stop_drains_then_closes(self):
        h = _Harness()
        try:
            status, doc, _ = h.request("GET", "/healthz")
            assert doc["status"] == "ok"
            # Drain without closing the listener: healthz degrades to
            # 503 and queries shed, exactly what an LB needs to see.
            h.service.drain()
            status, doc, _ = h.request("GET", "/healthz")
            assert status == 503
            assert doc["status"] == "draining"
            status, doc, headers = h.request(
                "POST",
                "/query",
                {"query": QN, "params": {"srcName": "v0", "tgtName": "v5"}},
            )
            assert status == 503
            assert doc["outcome"] == "shed-draining"
            assert int(headers["Retry-After"]) >= 1
        finally:
            h.close()


class TestBodyParsing:
    def test_defaults_applied(self):
        req = parse_request_body({"query": "Q"})
        assert req.graph == "default"
        assert req.tenant == "anonymous"
        assert req.budget_class == "interactive"
        assert req.engine == "counting"
        assert req.deadline_seconds is None

    def test_full_body(self):
        req = parse_request_body(
            {
                "query": "Q",
                "graph": "g",
                "params": {"k": 1},
                "tenant": "alice",
                "class": "batch",
                "deadline_seconds": 2,
                "engine": "nrv",
                "request_id": "r-1",
            }
        )
        assert req.graph == "g"
        assert req.budget_class == "batch"
        assert req.deadline_seconds == 2.0
        assert req.request_id == "r-1"

    @pytest.mark.parametrize(
        "body",
        [
            None,
            [],
            {"query": None},
            {"query": "Q", "params": []},
            {"query": "Q", "deadline_seconds": "soon"},
            {"query": "Q", "tenant": 5},
        ],
    )
    def test_bad_shapes_rejected(self, body):
        with pytest.raises(ValueError):
            parse_request_body(body)


def _start_serve(tmp_path, *flags):
    """``python -m repro serve --port 0 <flags>`` on a small graph; the
    caller reads the banner off ``proc.stderr`` and ends the process."""
    from repro.graph.io import save_graph_json

    graph = tmp_path / "g.json"
    save_graph_json(builders.diamond_chain(3), graph)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--graph", str(graph),
         "--port", "0", *flags],
        stderr=subprocess.PIPE, text=True, env=env,
    )


class TestServeBanner:
    def test_port_zero_prints_the_port_it_bound(self, tmp_path):
        # ``repro serve --port 0`` lets the kernel pick; the banner is
        # printed once the socket is bound, so it names the real port.
        proc = _start_serve(
            tmp_path, "--workers", "1", "--pool-mode", "thread"
        )
        try:
            banner = proc.stderr.readline()
            match = re.fullmatch(
                r"repro serve: thread pool x1 on http://127\.0\.0\.1:(\d+) "
                r"\(graphs: default\)\n",
                banner,
            )
            assert match, banner
            port = int(match.group(1))
            assert port != 0
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            finally:
                conn.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
        assert proc.returncode == 0


def _proc_stat(pid):
    """``(state, parent pid)`` of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def _running(pid):
    stat = _proc_stat(pid)
    # An orphan nobody reaps lingers as a zombie: it has exited.
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestServeKilled:
    def test_sigkill_leaves_no_worker_behind(self, tmp_path):
        # A forked pool worker used to inherit the server's end of its
        # own pipe and of every elder sibling's, so a SIGKILLed server
        # never delivered EOF and its workers lived on.
        proc = _start_serve(
            tmp_path, "--workers", "2", "--pool-mode", "process"
        )
        workers = []
        try:
            banner = proc.stderr.readline()
            assert "process pool x2" in banner, banner
            workers = [
                int(entry) for entry in os.listdir("/proc")
                if entry.isdigit()
                and (_proc_stat(entry) or ("", -1))[1] == proc.pid
            ]
            assert len(workers) == 2, workers
            proc.kill()  # SIGKILL: no drain, no atexit, no goodbye
            proc.wait(timeout=30)
            deadline = time.monotonic() + 10.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers)), workers
        finally:
            if proc.poll() is None:  # pragma: no cover - failed early
                proc.kill()
                proc.wait(timeout=10)
            for pid in workers:
                if _running(pid):  # pragma: no cover - the bug is back
                    os.kill(pid, signal.SIGKILL)
            proc.stderr.close()
