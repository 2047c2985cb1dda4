"""Stdlib-only asyncio HTTP front end for :class:`QueryService`.

A deliberately minimal HTTP/1.1 server (``asyncio.start_server`` — no
framework, no dependency) exposing three endpoints:

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

Query execution is blocking (worker dispatch + bounded retry), so each
request runs in a thread via ``loop.run_in_executor`` while the event
loop keeps accepting connections; admission itself is decided inside
that call — it is lock-cheap and never blocks on a worker.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple

from .protocol import IngestRequest, OutcomeKind, QueryRequest, outcome
from .service import QueryService

_MAX_BODY = 4 * 1024 * 1024  # 4 MiB: queries are text, not bulk loads.


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
    deadline = doc.get("deadline_seconds")
    if deadline is not None and not isinstance(deadline, (int, float)):
        raise ValueError('"deadline_seconds" must be a number')
    for key in ("graph", "tenant", "class", "engine", "request_id"):
        if key in doc and not isinstance(doc[key], str):
            raise ValueError(f'"{key}" must be a string')
    return QueryRequest(
        query_text=query_text,
        graph=doc.get("graph", "default"),
        params=params,
        tenant=doc.get("tenant", "anonymous"),
        budget_class=doc.get("class", "interactive"),
        deadline_seconds=float(deadline) if deadline is not None else None,
        engine=doc.get("engine", "counting"),
        request_id=doc.get("request_id", ""),
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
    deadline = doc.get("deadline_seconds")
    if deadline is not None and not isinstance(deadline, (int, float)):
        raise ValueError('"deadline_seconds" must be a number')
    for key in ("graph", "tenant", "class", "request_id"):
        if key in doc and not isinstance(doc[key], str):
            raise ValueError(f'"{key}" must be a string')
    return IngestRequest(
        ops=ops,
        graph=doc.get("graph", "default"),
        tenant=doc.get("tenant", "anonymous"),
        budget_class=doc.get("class", "interactive"),
        deadline_seconds=float(deadline) if deadline is not None else None,
        request_id=doc.get("request_id", ""),
    )


class HttpServer:
    """The asyncio listener wrapping one :class:`QueryService`."""

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
        self._executor_threads = executor_threads
        self._server: Optional[asyncio.AbstractServer] = None

    # -- HTTP plumbing -------------------------------------------------
    @staticmethod
    def _response(
        status: int, body: Dict[str, Any], extra_headers: Tuple[Tuple[str, str], ...] = ()
    ) -> bytes:
        payload = json.dumps(body).encode("utf-8")
        reasons = {
            200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            409: "Conflict",
            413: "Payload Too Large", 422: "Unprocessable Entity",
            429: "Too Many Requests", 500: "Internal Server Error",
            502: "Bad Gateway", 503: "Service Unavailable",
            504: "Gateway Timeout",
        }
        head = [
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in extra_headers)
        return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + payload

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        header = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout=10.0
        )
        request_line, *header_lines = header.decode(
            "latin-1"
        ).split("\r\n")
        parts = request_line.split(" ")
        if len(parts) < 2:
            raise ValueError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip() or 0)
        if length > _MAX_BODY:
            raise ValueError("body too large")
        body = await asyncio.wait_for(
            reader.readexactly(length), timeout=30.0
        ) if length else b""
        return method, path, body

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                asyncio.LimitOverrunError,
                ValueError,
            ) as exc:
                writer.write(self._response(400, {"error": str(exc)}))
                return
            writer.write(await self._route(method, path, body))
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            try:
                await writer.drain()
                writer.close()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _route(self, method: str, path: str, body: bytes) -> bytes:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            doc = self.service.healthz()
            status = 200 if doc["status"] == "ok" else 503
            return self._response(status, doc)
        if path == "/metrics" and method == "GET":
            return self._response(200, self.service.metrics_dict())
        if path == "/query":
            if method != "POST":
                return self._response(
                    405, {"error": "POST required"}
                )
            try:
                request = parse_request_body(
                    json.loads(body.decode("utf-8") or "null")
                )
            except (ValueError, UnicodeDecodeError) as exc:
                doc = outcome(
                    OutcomeKind.BAD_REQUEST, error={"message": str(exc)}
                )
                return self._response(400, doc)
            loop = asyncio.get_running_loop()
            doc = await loop.run_in_executor(
                None, self.service.submit, request
            )
            headers = ()
            if doc.get("retry_after_ms") is not None and doc[
                "http_status"
            ] in (429, 503):
                seconds = max(1, -(-doc["retry_after_ms"] // 1000))
                headers = (("Retry-After", str(seconds)),)
            return self._response(doc["http_status"], doc, headers)
        if path == "/ingest":
            if method != "POST":
                return self._response(
                    405, {"error": "POST required"}
                )
            try:
                request = parse_ingest_body(
                    json.loads(body.decode("utf-8") or "null")
                )
            except (ValueError, UnicodeDecodeError) as exc:
                doc = outcome(
                    OutcomeKind.BAD_REQUEST, error={"message": str(exc)}
                )
                return self._response(400, doc)
            loop = asyncio.get_running_loop()
            doc = await loop.run_in_executor(
                None, self.service.ingest, request
            )
            headers = ()
            if doc.get("retry_after_ms") is not None and doc[
                "http_status"
            ] in (429, 503):
                seconds = max(1, -(-doc["retry_after_ms"] // 1000))
                headers = (("Retry-After", str(seconds)),)
            return self._response(doc["http_status"], doc, headers)
        return self._response(404, {"error": f"no route {path}"})

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]  # resolve port 0

    async def stop(self, grace: float = 5.0) -> None:
        """Drain (healthz flips to 503), close the listener, stop the
        pool."""
        self.service.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.service.shutdown(grace=grace)
        )

    async def serve_forever(self, on_listening=None) -> None:
        """Run until SIGINT/SIGTERM, then drain and exit cleanly.

        ``on_listening(server)`` is called once the socket is bound —
        ``self.port`` is the real port by then, also when 0 was asked.
        """
        await self.start()
        if on_listening is not None:
            on_listening(self)
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await stop_event.wait()
        finally:
            await self.stop()


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 8080,
    on_listening=None,
) -> None:
    """Blocking entry point used by ``repro serve``."""
    server = HttpServer(service, host=host, port=port)

    async def _main() -> None:
        await server.serve_forever(on_listening)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - second ^C
        pass


__all__ = ["HttpServer", "serve", "parse_request_body", "parse_ingest_body"]
