"""Stdlib-only blocking HTTP front end for :class:`QueryService`.

A deliberately minimal HTTP/1.1 server (one listening socket, a few
handler threads — no framework, no dependency) exposing four endpoints:

``POST /query``
    JSON body ``{"query": "...", "graph": "...", "params": {...},
    "tenant": "...", "class": "...", "deadline_seconds": ...,
    "engine": "..."}``.  The response body is the
    outcome document from
    :func:`repro.server.protocol.outcome`; the HTTP status is its
    ``http_status`` field, and shed responses carry ``Retry-After``.

``POST /ingest``
    JSON body ``{"ops": [...], "graph": "...", "tenant": "...",
    "class": "...", "deadline_seconds": ...}`` where ``ops`` holds
    :class:`~repro.graph.mutation.MutationBatch` operation documents.
    Rides the same admission/retry machinery as queries; a batch the
    graph's state rejects is a non-retryable ``conflict`` (HTTP 409),
    and a committed batch answers with the published epoch.

``GET /metrics``
    The service's merged counters, admission gauges, pool stats and
    retry policy as JSON.

``GET /healthz``
    ``{"status": "ok"}`` — degrading to ``"draining"`` (HTTP 503) once
    shutdown has begun, so load balancers stop routing before the
    listener closes.

Query execution is blocking (worker dispatch + bounded retry), so the
listener is too: one handler thread carries a request from ``accept()``
to ``close()`` — reads and bounds it, runs admission and waits for the
worker inside ``QueryService.submit``, writes the response — with no
hand-off in between.  Threads are started on demand, so a lone client
is served by two; a peer that connects and stalls, silent or mid-header,
holds one until the header timeout (``docs/robustness.md``, "Threading model").
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional

from .pool import close_in_forked_workers
from .protocol import IngestRequest, OutcomeKind, QueryRequest, outcome
from .service import QueryService

_MAX_BODY = 4 * 1024 * 1024  # 4 MiB: queries are text, not bulk loads.
_MAX_HEADER = 64 * 1024
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _shared_fields(doc: Dict[str, Any], *extra: str) -> Dict[str, Any]:
    """The fields ``/query`` and ``/ingest`` bodies share, validated."""
    deadline = doc.get("deadline_seconds")
    if deadline is not None and not isinstance(deadline, (int, float)):
        raise ValueError('"deadline_seconds" must be a number')
    for key in ("graph", "tenant", "class", *extra, "request_id"):
        if key in doc and not isinstance(doc[key], str):
            raise ValueError(f'"{key}" must be a string')
    return {
        "graph": doc.get("graph", "default"),
        "tenant": doc.get("tenant", "anonymous"),
        "budget_class": doc.get("class", "interactive"),
        "deadline_seconds": float(deadline) if deadline is not None else None,
        "request_id": doc.get("request_id", ""),
    }


def parse_request_body(doc: Any) -> QueryRequest:
    """Validate a decoded ``POST /query`` JSON body.

    Raises ``ValueError`` with a client-actionable message on any shape
    problem — the HTTP layer (and tests) map that to a 400.
    """
    if not isinstance(doc, dict):
        raise ValueError("request body must be a JSON object")
    query_text = doc.get("query")
    if not isinstance(query_text, str) or not query_text.strip():
        raise ValueError('"query" must be a non-empty string')
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError('"params" must be an object')
    return QueryRequest(
        query_text=query_text, params=params, engine=doc.get("engine", "counting"),
        **_shared_fields(doc, "engine"),
    )


def parse_ingest_body(doc: Any) -> IngestRequest:
    """Validate a decoded ``POST /ingest`` JSON body.

    Checks transport shape only (``ops`` is a list, strings are
    strings); per-op structure and semantics are the service's job —
    bad op documents come back 400, state conflicts 409.
    """
    if not isinstance(doc, dict):
        raise ValueError("request body must be a JSON object")
    ops = doc.get("ops")
    if not isinstance(ops, list) or not ops:
        raise ValueError('"ops" must be a non-empty array')
    return IngestRequest(ops=ops, **_shared_fields(doc))


class HttpServer:
    """The blocking listener wrapping one :class:`QueryService`.

    ``executor_threads`` (the name predates this listener) caps the
    handler threads.  Keep it above the admission limits: overload must
    reach admission and be shed with a 429, not wait in the accept
    queue where nothing can answer it.
    """

    header_timeout = 10.0  # seconds a peer has for its whole header block
    body_timeout = 30.0  # seconds for the declared body in, the response out

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 8080,
        executor_threads: int = 32,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._max_threads = executor_threads
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._accepting = 0  # handler threads in, or on their way to, accept()
        self._closing = False

    # -- HTTP plumbing -------------------------------------------------
    @staticmethod
    def _response(status: int, body: Dict[str, Any], extra_headers=()) -> bytes:
        payload = json.dumps(body).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in extra_headers)
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload

    @staticmethod
    def _fill(conn: socket.socket, buf: bytes, timeout: float, enough) -> bytes:
        """Grow ``buf`` from ``conn`` until ``enough(buf)`` — within
        ``timeout`` seconds in all, however the peer spaces its bytes."""
        deadline = time.monotonic() + timeout
        while not enough(buf):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("timed out")
            conn.settimeout(remaining)
            chunk = conn.recv(65536)
            if not chunk:
                raise ValueError("connection closed mid-request")
            buf += chunk
        return buf

    def _read_request(self, conn: socket.socket):
        """``(method, path, body)`` of the one request on ``conn``; a
        ``ValueError`` or ``socket.timeout`` is the client's 400."""
        buf = self._fill(
            conn, b"", self.header_timeout,
            lambda got: b"\r\n\r\n" in got or len(got) > _MAX_HEADER,
        )
        end = buf.find(b"\r\n\r\n")
        if not 0 <= end <= _MAX_HEADER:
            raise ValueError("header block too large")
        request_line, *header_lines = buf[:end].decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) < 2:
            raise ValueError("malformed request line")
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip() or 0)
        if length < 0:
            raise ValueError("negative Content-Length")
        if length > _MAX_BODY:
            raise ValueError("body too large")
        body = self._fill(conn, buf[end + 4:], self.body_timeout, lambda got: len(got) >= length)
        return parts[0].upper(), parts[1], body[:length]

    def _exchange(self, conn: socket.socket) -> None:
        """One request in, one response out — all on the calling thread."""
        try:
            try:
                method, path, body = self._read_request(conn)
            except (socket.timeout, ValueError) as exc:
                response = self._response(400, {"error": str(exc)})
            else:
                try:
                    response = self._route(method, path, body)
                except Exception:  # noqa: BLE001 - the thread goes back to accept()
                    response = self._response(500, {"error": traceback.format_exc(limit=4)})
            conn.settimeout(self.body_timeout)
            conn.sendall(response)
        except OSError:
            pass  # the peer is gone; there is nobody to tell

    def _route(self, method: str, path: str, body: bytes) -> bytes:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            doc = self.service.healthz()
            return self._response(200 if doc["status"] == "ok" else 503, doc)
        if path == "/metrics" and method == "GET":
            return self._response(200, self.service.metrics_dict())
        if path == "/query":
            return self._post(method, body, parse_request_body, self.service.submit)
        if path == "/ingest":
            return self._post(method, body, parse_ingest_body, self.service.ingest)
        return self._response(404, {"error": f"no route {path}"})

    def _post(self, method: str, body: bytes, parse, run) -> bytes:
        """A POST endpoint: ``parse`` the JSON body into a request and
        ``run`` it to its outcome document, on this thread."""
        if method != "POST":
            return self._response(405, {"error": "POST required"})
        try:
            request = parse(json.loads(body.decode("utf-8") or "null"))
        except (ValueError, UnicodeDecodeError) as exc:
            doc = outcome(OutcomeKind.BAD_REQUEST, error={"message": str(exc)})
            return self._response(400, doc)
        doc = run(request)
        headers = ()
        if doc.get("retry_after_ms") is not None and doc["http_status"] in (429, 503):
            seconds = max(1, -(-doc["retry_after_ms"] // 1000))
            headers = (("Retry-After", str(seconds)),)
        return self._response(doc["http_status"], doc, headers)

    # -- handler threads -----------------------------------------------
    def _spawn(self) -> None:
        """Start one more handler thread; the caller holds ``_lock``."""
        name = f"http-{len(self._threads) + 1}"
        thread = threading.Thread(target=self._serve, name=name, daemon=True)
        self._threads.append(thread)
        self._accepting += 1
        thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                if self._closing:
                    return
                time.sleep(0.05)  # ECONNABORTED, EMFILE: the listener is fine
                continue
            close_in_forked_workers(conn)
            with self._lock:
                self._accepting -= 1
                # Grow on demand, never ahead of it: every thread that has
                # served a request keeps its stack and its malloc arena.
                if not self._accepting and len(self._threads) < self._max_threads:
                    self._spawn()
            self._exchange(conn)
            # Counted back in before the peer can see EOF and return, so a
            # sequential client finds an acceptor and grows nothing.
            with self._lock:
                self._accepting += 1
            # shutdown(), not just close(): a worker forked meanwhile holds
            # a copy of the descriptor, and close() alone sends no EOF.
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            conn.close()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bind, listen and start the first handler thread."""
        # One socket, so one family: that of the first address the host has.
        family = socket.getaddrinfo(self.host or None, self.port, flags=socket.AI_PASSIVE)[0][0]
        self._sock = socket.create_server((self.host, self.port), family=family, backlog=100)
        self.port = self._sock.getsockname()[1]  # resolve port 0
        close_in_forked_workers(self._sock)
        with self._lock:
            self._spawn()

    def stop(self, grace: float = 5.0) -> None:
        """Drain (healthz flips to 503), close the listener, let the
        requests in flight finish, stop the pool — all within ``grace``."""
        deadline = time.monotonic() + grace
        self.service.drain()
        if self._sock is not None and not self._closing:
            self._closing = True
            # close() alone leaves threads blocked in accept() on Linux.
            with contextlib.suppress(OSError):
                self._sock.shutdown(socket.SHUT_RDWR)
            self._sock.close()
            for thread in self._threads:
                thread.join(max(deadline - time.monotonic(), 0.0))
        self.service.shutdown(grace=max(deadline - time.monotonic(), 0.1))

    def serve_forever(self, on_listening=None) -> None:
        """Run until SIGINT/SIGTERM, then drain and exit cleanly — from
        the main thread, where signals arrive.

        ``on_listening(server)`` is called once the socket is bound —
        ``self.port`` is the real port by then, also when 0 was asked.
        """
        self.start()
        if on_listening is not None:
            on_listening(self)
        stopped = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            # Runs on this thread, inside the wait below: it may take no lock.
            signal.signal(sig, lambda *_: stopped.append(True))
        try:
            while not stopped:
                time.sleep(0.1)
        finally:
            self.stop()


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    on_listening=None,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    HttpServer(service, host=host, port=port).serve_forever(on_listening)


__all__ = ["HttpServer", "serve", "parse_request_body", "parse_ingest_body"]
