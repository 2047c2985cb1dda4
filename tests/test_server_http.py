"""The blocking HTTP front end, exercised over a real socket."""

import json
import http.client
import os
import re
import signal
import socket
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
    """One HttpServer on an ephemeral port; its handler threads are its own."""

    def __init__(self, service=None, **server_options):
        self.service = service or QueryService(
            graphs={"default": builders.diamond_chain(6)},
            pool_size=2,
            pool_mode="thread",
            retry=RetryPolicy(max_attempts=2, base_delay=0.005),
        )
        self.server = HttpServer(self.service, port=0, **server_options)
        self.server.start()

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
        self.server.stop(grace=5.0)


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


def _raw(port, data, pieces=(), half_close=False, timeout=30.0):
    """Send ``data`` (then each of ``pieces`` after its delay) on a fresh
    connection and read until the server's EOF.  Returns ``(status,
    body bytes, seconds to EOF)``; a peer that never closes is a
    ``socket.timeout`` — which is the bug the EOF tests are after."""
    started = time.monotonic()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        for delay, piece in pieces:
            time.sleep(delay)
            try:
                sock.sendall(piece)
            except OSError:  # the server has answered and closed already
                break
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body, time.monotonic() - started


def _post(path, doc, extra=""):
    body = json.dumps(doc).encode("utf-8")
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n{extra}"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def _handler_threads(server):
    """The live ``http-*`` threads of ``server``."""
    return [
        t for t in server._threads
        if t.name.startswith("http-") and t.is_alive()
    ]


QN_BODY = {"query": QN, "params": {"srcName": "v0", "tgtName": "v5"}}


class _StubService:
    """Just enough of QueryService for the listener: every submit
    reports the thread it ran on and may be held at a gate."""

    def __init__(self):
        self.threads = []
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()
        self.drained = False

    def submit(self, request):
        self.threads.append(threading.current_thread())
        self.entered.set()
        assert self.gate.wait(30), "gate never opened"
        return {"outcome": "ok", "http_status": 200, "n": len(self.threads)}

    def healthz(self):
        raise RuntimeError("stub has no health")

    def drain(self):
        self.drained = True

    def shutdown(self, grace=5.0):
        self.drain()


class TestTransport:
    """The listener's own behaviour: bounds, timeouts, threads."""

    def test_dribbled_header_times_out_and_frees_the_thread(self):
        h = _Harness()
        h.server.header_timeout = 0.4
        try:
            status, body, seconds = _raw(
                h.server.port,
                b"GET /healthz HTTP/1.1\r\n",
                pieces=[(0.15, b"X-Slow: 1\r\n")] * 6,
            )
            assert status == 400
            assert json.loads(body) == {"error": "timed out"}
            assert 0.3 < seconds < 3.0
            # The thread that waited is back in accept(): the next
            # request is answered, and no thread was added for it.
            assert h.request("GET", "/healthz")[0] == 200
            assert len(_handler_threads(h.server)) <= 2
        finally:
            h.close()

    def test_oversized_declared_body_is_refused_unread(self, harness):
        # Only the header block is sent: the 400 cannot have waited for
        # (or read) the 4 MiB + 1 it declares.
        status, body, seconds = _raw(
            harness.server.port,
            b"POST /query HTTP/1.1\r\nContent-Length: 4194305\r\n\r\n",
        )
        assert status == 400
        assert json.loads(body) == {"error": "body too large"}
        assert seconds < 5.0

    @pytest.mark.parametrize(
        "data, half_close",
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: lots\r\n\r\n", False),
            (b"POST /query HTTP/1.1\r\nContent-Length: -1\r\n\r\n", False),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70000 + b"\r\n\r\n", False),
            (b"GET /healthz HTTP/1.1\r\nX: " + b"a" * 70000, False),
            (b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}", True),
            (b"GARBAGE\r\n\r\n", False),
            (b"", True),
        ],
        ids=[
            "non-numeric-length", "negative-length", "header-over-64k",
            "header-over-64k-unterminated", "body-short-then-fin",
            "malformed-request-line", "nothing-then-fin",
        ],
    )
    def test_malformed_requests_are_400(self, harness, data, half_close):
        status, body, seconds = _raw(
            harness.server.port, data, half_close=half_close
        )
        assert status == 400
        assert set(json.loads(body)) == {"error"}
        assert seconds < 5.0

    def test_head_and_body_in_separate_segments(self, harness):
        request = _post("/query", QN_BODY)
        split = request.index(b"\r\n\r\n") + 4
        status, body, _ = _raw(
            harness.server.port,
            request[:split],
            pieces=[(0.1, request[split:split + 7]), (0.1, request[split + 7:])],
        )
        assert status == 200
        assert json.loads(body)["result"]["printed"] == [
            {"R": [{"name": "v5", "pathCount": 32}]}
        ]

    def test_parallel_clients_each_get_one_terminal_document(self, harness):
        before = harness.request("GET", "/metrics")[1]["counters"]
        results = [None] * 64
        request = _post("/query", QN_BODY)

        def client(i):
            results[i] = _raw(harness.server.port, request)

        clients = [threading.Thread(target=client, args=(i,)) for i in range(64)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(60)
        assert all(r is not None for r in results)
        docs = [json.loads(body) for _, body, _ in results]
        # Admission may shed some of a burst this size; whatever it
        # decided, each client holds exactly one whole document whose
        # status is the one on the wire.
        assert [d["http_status"] for d in docs] == [s for s, _, _ in results]
        assert {d["outcome"] for d in docs} <= {
            "ok", "shed-class-limit", "shed-tenant-limit", "shed-queue-full"
        }
        assert sum(d["outcome"] == "ok" for d in docs) >= 8
        after = harness.request("GET", "/metrics")[1]["counters"]
        assert after["server.requests"] - before["server.requests"] == 64
        assert after["server.requests"] == sum(
            v for k, v in after.items() if k.startswith("server.outcome.")
        )

    def test_threads_are_started_on_demand(self):
        # The RSS guard as a count: every thread that has served a
        # request keeps a stack and a malloc arena, so a lone
        # closed-loop client must not fan out over the cap.
        stub = _StubService()
        h = _Harness(service=stub)
        try:
            assert len(_handler_threads(h.server)) == 1
            request = _post("/query", QN_BODY)
            for _ in range(200):
                assert _raw(h.server.port, request)[0] == 200
            assert len(_handler_threads(h.server)) <= 2
            # A burst of N held in flight: N busy + one in accept().
            stub.gate.clear()
            burst = [
                threading.Thread(target=_raw, args=(h.server.port, request))
                for _ in range(6)
            ]
            for t in burst:
                t.start()
            deadline = time.monotonic() + 10
            while len(stub.threads) < 206 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(stub.threads) == 206
            assert len(_handler_threads(h.server)) <= 7
            stub.gate.set()
            for t in burst:
                t.join(30)
            assert len(_handler_threads(h.server)) <= 7
        finally:
            stub.gate.set()
            h.close()

    def test_submit_runs_on_the_thread_that_accepted(self):
        # "No hand-off" as a fact, not a timing.
        stub = _StubService()
        accepted = []

        class Spy(HttpServer):
            def _exchange(self, conn):
                accepted.append(threading.current_thread())
                super()._exchange(conn)

        server = Spy(stub, port=0)
        server.start()
        try:
            for _ in range(5):
                assert _raw(server.port, _post("/query", QN_BODY))[0] == 200
        finally:
            server.stop(grace=5.0)
        assert stub.threads == accepted
        assert all(t.name.startswith("http-") for t in accepted)
        assert stub.drained

    def test_cap_bounds_the_threads(self):
        stub = _StubService()
        stub.gate.clear()
        h = _Harness(service=stub, executor_threads=3)
        request = _post("/query", QN_BODY)
        results = []
        clients = [
            threading.Thread(
                target=lambda: results.append(_raw(h.server.port, request))
            )
            for _ in range(8)
        ]
        try:
            for t in clients:
                t.start()
            deadline = time.monotonic() + 10
            while len(stub.threads) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            # Three are inside submit; five wait in the accept queue.
            assert len(stub.threads) == 3
            assert len(_handler_threads(h.server)) == 3
            stub.gate.set()
            for t in clients:
                t.join(30)
            assert sorted(s for s, _, _ in results) == [200] * 8
            assert len(_handler_threads(h.server)) == 3
        finally:
            stub.gate.set()
            h.close()

    def test_handler_survives_a_route_that_raises(self):
        h = _Harness(service=_StubService())
        try:
            status, body, _ = _raw(
                h.server.port, b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            assert status == 500
            assert "stub has no health" in json.loads(body)["error"]
            assert _raw(h.server.port, _post("/query", QN_BODY))[0] == 200
        finally:
            h.close()

    def test_stop_lets_the_request_in_flight_finish(self):
        stub = _StubService()
        stub.gate.clear()
        h = _Harness(service=stub)
        result = []
        client = threading.Thread(
            target=lambda: result.append(
                _raw(h.server.port, _post("/query", QN_BODY))
            )
        )
        client.start()
        assert stub.entered.wait(10)
        threading.Timer(0.3, stub.gate.set).start()
        started = time.monotonic()
        h.server.stop(grace=5.0)
        elapsed = time.monotonic() - started
        client.join(10)
        assert 0.2 < elapsed < 5.0
        assert result and result[0][0] == 200
        assert json.loads(result[0][1])["outcome"] == "ok"
        # Nobody is left behind in accept(): closing a listening socket
        # does not wake one on Linux, shutting it down does.
        assert _handler_threads(h.server) == []
        assert stub.drained
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", h.server.port), timeout=2)

    def test_a_host_name_binds_the_first_family_it_resolves_to(self):
        # One listening socket: ``localhost`` is ::1 or 127.0.0.1,
        # whichever the resolver names first — not an IPv4-only guess.
        h = _Harness(host="localhost")
        try:
            family = socket.getaddrinfo("localhost", h.server.port)[0][0]
            assert h.server._sock.family == family
            with socket.create_connection(("localhost", h.server.port), timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert sock.recv(64).startswith(b"HTTP/1.1 200 OK")
        finally:
            h.close()

    def test_silent_peers_do_not_starve_a_real_request(self):
        # A peer that connects and says nothing costs a *thread* for
        # the header timeout, so 2 x cap of them ahead of a well-formed
        # request delay it by two rounds of that timeout — and no more.
        h = _Harness(executor_threads=2)
        h.server.header_timeout = 1.0
        silent = [
            socket.create_connection(("127.0.0.1", h.server.port), timeout=30)
            for _ in range(4)
        ]
        try:
            time.sleep(0.1)
            status, _, seconds = _raw(
                h.server.port, b"GET /healthz HTTP/1.1\r\n\r\n"
            )
            assert status == 200
            assert seconds <= 2 * 1.0 + 0.5
        finally:
            for sock in silent:
                sock.close()
            h.close()


class TestOverloadIsShed:
    def test_ninth_interactive_request_gets_429(self, monkeypatch):
        # Admission can only shed what reaches it: with handler threads
        # capped below the class limit (the old listener ran six), the
        # ninth request queued invisibly instead of answering 429.
        import repro.server.pool as pool_module

        gate = threading.Event()
        real = pool_module.execute_job

        def held(job, graphs):
            assert gate.wait(30), "gate never opened"
            return real(job, graphs)

        monkeypatch.setattr(pool_module, "execute_job", held)
        h = _Harness()
        request = _post("/query", QN_BODY)
        results = []
        clients = [
            threading.Thread(
                target=lambda: results.append(_raw(h.server.port, request))
            )
            for _ in range(8)
        ]
        try:
            for t in clients:
                t.start()
            deadline = time.monotonic() + 10
            inflight = None
            while inflight != 8 and time.monotonic() < deadline:
                time.sleep(0.02)
                _, doc, _ = h.request("GET", "/metrics")
                inflight = doc["admission"]["class_inflight"].get("interactive")
            assert inflight == 8
            status, doc, headers = h.request("POST", "/query", QN_BODY)
            assert status == 429
            assert doc["outcome"] == "shed-class-limit"
            assert int(headers["Retry-After"]) >= 1
            gate.set()
            for t in clients:
                t.join(30)
            assert sorted(s for s, _, _ in results) == [200] * 8
            _, doc, _ = h.request("GET", "/metrics")
            counters = doc["counters"]
            assert counters["server.requests"] == 9
            assert counters["server.outcome.ok"] == 8
            assert counters["server.outcome.shed-class-limit"] == 1
            assert counters["server.requests"] == sum(
                v for k, v in counters.items()
                if k.startswith("server.outcome.")
            )
            assert "interactive" not in doc["admission"]["class_inflight"]
        finally:
            gate.set()
            h.close()


def _cpu_ticks(pid):
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _children(pid):
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and (_proc_stat(entry) or ("", -1))[1] == pid
        and _running(int(entry))
    ]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestEofAfterRespawn:
    def test_respawn_leaves_no_client_waiting_for_eof(self, tmp_path):
        # The pool forks a replacement worker from the thread that is
        # serving a connection; the child inherits that socket, every
        # other one in flight and the listener.  A client that reads
        # until EOF (what ``Connection: close`` invites) used to hang
        # until the replacement died.
        proc = _start_serve(
            tmp_path, "--workers", "2", "--pool-mode", "process", chain=30
        )
        params = {"srcName": "v0", "tgtName": "v30"}
        slow = _post("/query", {
            "query": QN, "params": params, "class": "batch",
            "engine": "nre", "deadline_seconds": 3,
        })
        results = {}

        def client(name, request):
            try:
                results[name] = _raw(port, request, timeout=20.0)
            except OSError as exc:  # socket.timeout: EOF never came
                results[name] = exc

        try:
            port = int(re.search(r":(\d+) ", proc.stderr.readline()).group(1))
            workers = _children(proc.pid)
            assert len(workers) == 2, workers
            first = threading.Thread(target=client, args=("slow", slow))
            first.start()
            # Whoever burns CPU is enumerating 2^30 paths; kill the other.
            time.sleep(0.3)
            before = {pid: _cpu_ticks(pid) for pid in workers}
            time.sleep(0.5)
            idle = min(workers, key=lambda pid: _cpu_ticks(pid) - before[pid])
            os.kill(idle, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while _running(idle) and time.monotonic() < deadline:
                time.sleep(0.01)
            # This request finds the corpse, makes the pool fork its
            # replacement while ``slow`` is in flight, and is retried.
            client("plain", _post("/query", {"query": QN, "params": params}))
            assert not isinstance(results["plain"], OSError), results
            status, body, seconds = results["plain"]
            assert status == 200 and seconds < 10
            doc = json.loads(body)
            assert doc["attempts"] == 2
            assert doc["result"]["printed"] == [
                {"R": [{"name": "v30", "pathCount": 2 ** 30}]}
            ]
            # ``slow`` is still in flight: the replacement was forked
            # with its connection and the listener open, and kept neither.
            # (A connection accepted but not yet registered at the fork
            # would leak in; this server is private to the test, and its
            # only two connections were registered long before.)
            assert first.is_alive()
            (fresh,) = set(_children(proc.pid)) - set(workers)
            fds = f"/proc/{fresh}/fd"
            sockets = [
                fd for fd in os.listdir(fds)
                if int(fd) > 2
                and os.readlink(f"{fds}/{fd}").startswith("socket:")
            ]
            assert len(sockets) == 1, sockets  # its own pipe, nothing else
            first.join(30)
            assert not first.is_alive()
            assert not isinstance(results["slow"], OSError), results
            # Whether its governor or the pool's straggler kill ends it
            # at the deadline, the document arrives whole, then EOF.
            status, body, seconds = results["slow"]
            assert json.loads(body)["outcome"] in ("aborted", "straggler-timeout")
            assert seconds < 10
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=10)
            proc.stderr.close()
        assert proc.returncode == 0


def _help(subcommand):
    return (
        "import repro.cli, contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        repro.cli.main([{subcommand!r}, '--help'])\n"
        "    except SystemExit:\n"
        "        pass"
    )


#: Every package whose ``__all__`` the namespace test resolves.
PACKAGES = (
    "repro", "repro.accum", "repro.algorithms", "repro.analysis",
    "repro.bench", "repro.compile", "repro.core", "repro.darpe",
    "repro.enumeration", "repro.governor", "repro.graph", "repro.gsql",
    "repro.ldbc", "repro.obs", "repro.paths", "repro.server",
    "repro.sqlstyle",
)


class TestImportHygiene:
    @pytest.mark.parametrize(
        "statement",
        ["import repro.server.app", _help("serve"), "import repro", _help("run")],
        ids=["server.app", "serve --help", "import repro", "run --help"],
    )
    def test_the_server_does_not_import_asyncio(self, statement):
        # An entry point imports only what it runs.  asyncio: ~30 ms and
        # ~3 MiB per process — the server and every worker forked from
        # it — for an event loop nothing here runs.  The algorithm
        # library, the SNB generator, the SQL-style baseline and the
        # bench harness: source compiled at every start, never executed.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys\nsys.path.insert(0, {str(src)!r})\n{statement}\n"
            "unwanted = ('asyncio', 'repro.algorithms', 'repro.ldbc',\n"
            "            'repro.sqlstyle', 'repro.bench')\n"
            "found = [m for m in sys.modules if m.startswith(unwanted)]\n"
            "sys.exit(f'imported {found}' if found else 0)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_every_public_name_resolves(self):
        # The package namespaces are lazy (PEP 562): a name's submodule is
        # imported on first access, so each listed name must resolve,
        # show in dir() and bind under a star import.
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import importlib, sys\nsys.path.insert(0, {str(src)!r})\n"
            f"for name in {PACKAGES!r}:\n"
            "    package = importlib.import_module(name)\n"
            "    missing = set(package.__all__) - set(dir(package))\n"
            "    assert not missing, (name, 'dir() lacks', missing)\n"
            "    star = {}\n"
            "    exec(f'from {name} import *', star)\n"
            "    for attr in package.__all__:\n"
            "        assert star[attr] is getattr(package, attr), (name, attr)\n"
            "import repro, repro.graph.io\n"
            "assert repro.graph.io is sys.modules['repro.graph.io']\n"
            "assert repro.Graph is repro.graph.graph.Graph\n"
            "import repro.algorithms\n"
            "assert repro.algorithms.pagerank.__module__ == 'repro.algorithms.pagerank'\n"
            "try:\n"
            "    repro.graph.no_such_name\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit('an unknown name resolved')\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr


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


def _start_serve(tmp_path, *flags, chain=3):
    """``python -m repro serve --port 0 <flags>`` on a small graph; the
    caller reads the banner off ``proc.stderr`` and ends the process."""
    from repro.graph.io import save_graph_json

    graph = tmp_path / "g.json"
    save_graph_json(builders.diamond_chain(chain), graph)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--graph", str(graph),
         "--port", "0", *flags],
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
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
