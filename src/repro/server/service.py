"""The query service: admission -> dispatch -> bounded retry -> outcome.

:class:`QueryService` is the transport-independent core of ``repro
serve``: the HTTP layer (:mod:`repro.server.app`) is a thin codec
around :meth:`QueryService.submit`, called on the thread that accepted
the connection, and the test/chaos suites drive ``submit`` directly — every robustness property is asserted
below the socket.

The service owns a private :class:`~repro.obs.metrics.Collector` that is
**never activated**: service counters are charged with explicit
``.count()`` calls from whichever client thread is serving the request,
and each worker's per-query counter snapshot is merged in on
completion.  A worker binds its own collector and governor per job, in
its own context (:mod:`repro._exec`), so concurrent requests cannot
charge one another and the service needs no lock around the engine.
Queries and ingest share one admission prologue (:meth:`_serve`) and
one attempt / deadline / backoff loop (:meth:`_attempts`); they differ
only in the per-attempt action.

Invariant the acceptance smoke pins: **every submitted request reaches
exactly one terminal outcome** — counted in ``server.requests`` and in
exactly one ``server.outcome.<kind>`` counter, so the totals reconcile.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Any, Dict, Optional

from ..errors import InjectedFault, MutationConflictError, MutationError
from ..graph.mutation import GraphStore, MutationBatch
from ..obs.metrics import Collector
from .admission import AdmissionController, BudgetClass, Ticket
from .pool import WorkerPool
from .protocol import IngestRequest, Job, OutcomeKind, QueryRequest, outcome
from .retry import RetryPolicy


class QueryService:
    """Fault-tolerant execution of client queries over a worker pool.

    ``submit`` is thread-safe and blocking: the HTTP layer calls it on
    the handler thread that accepted the request's connection — as many
    at once as there are requests in flight, so admission sees them
    all.  Construction loads nothing — the
    pool spawns immediately, so build the service once per process.
    """

    def __init__(
        self,
        graphs: Optional[Dict[str, Any]] = None,
        graph_paths: Optional[Dict[str, str]] = None,
        pool_size: int = 4,
        pool_mode: str = "thread",
        classes: Optional[Dict[str, BudgetClass]] = None,
        max_queue_depth: int = 16,
        max_tenant_inflight: int = 8,
        retry: Optional[RetryPolicy] = None,
        clock=time.monotonic,
        sleep=time.sleep,
        cost_screen_enabled: bool = True,
        wal_dir: Optional[str] = None,
        wal_fsync: bool = True,
    ):
        self.admission = AdmissionController(
            classes=classes,
            max_queue_depth=max_queue_depth,
            max_tenant_inflight=max_tenant_inflight,
            clock=clock,
        )
        # Every loaded graph is managed through a GraphStore so ingest
        # and snapshot isolation work uniformly: with ``wal_dir`` the
        # store is durable (``<wal_dir>/<name>`` is recovered first and
        # every committed batch hits the log); without it, batches are
        # atomic and isolated but in-memory only.  Thread workers share
        # the stores, so committed epochs become queryable immediately;
        # process workers snapshot their graphs from ``graph_paths`` at
        # spawn and serve that version until restarted.
        self._stores: Dict[str, GraphStore] = {}
        managed: Optional[Dict[str, Any]] = None
        base_graphs = dict(graphs) if graphs else {}
        if wal_dir is not None and not base_graphs and graph_paths:
            from ..graph.io import load_graph_json

            base_graphs = {
                name: load_graph_json(path)
                for name, path in graph_paths.items()
            }
        if base_graphs:
            managed = {}
            for name, graph in base_graphs.items():
                if isinstance(graph, GraphStore):
                    store = graph
                elif wal_dir is not None:
                    store = GraphStore.open(
                        os.path.join(wal_dir, name),
                        base=graph,
                        fsync=wal_fsync,
                    )
                else:
                    store = GraphStore(graph)
                self._stores[name] = store
                managed[name] = store
        self.pool = WorkerPool(
            size=pool_size,
            mode=pool_mode,
            graphs=managed if managed is not None else graphs,
            graph_paths=graph_paths,
        )
        self.retry = retry if retry is not None else RetryPolicy()
        #: Static cost screen: the worker prices each plan against the
        #: statistics of the version it is about to run and refuses a
        #: request whose *provable* upper bound already exceeds the class
        #: budget.  Read per request, so it may be flipped while serving.
        self.cost_screen_enabled = cost_screen_enabled
        self._clock = clock
        self._sleep = sleep
        self._draining = False
        self._closed = False
        self._lock = threading.Lock()
        # Private, never-activated collector: explicit .count() only.
        self.collector = Collector()
        self.started_at = clock()

    # -- lifecycle -----------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> None:
        """Stop admitting; running requests finish.  Idempotent."""
        self._draining = True

    def shutdown(self, grace: float = 5.0) -> None:
        """Drain, then stop the pool (bounded by ``grace``)."""
        self.drain()
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.pool.shutdown(grace=grace)
        for store in self._stores.values():
            store.close()

    def healthz(self) -> Dict[str, Any]:
        status = "draining" if self._draining else "ok"
        return {
            "status": status,
            "uptime_seconds": round(self._clock() - self.started_at, 3),
            "workers_alive": self.pool.stats()["alive"],
        }

    # -- the request lifecycle -----------------------------------------
    def submit(self, request: QueryRequest) -> Dict[str, Any]:
        """Run one request to its terminal outcome.  Never raises."""
        return self._serve(request, self._run_admitted)

    def ingest(self, request: IngestRequest) -> Dict[str, Any]:
        """Run one mutation batch to its terminal outcome.  Never raises.

        Ingest rides the same admission control, deadline and retry
        machinery as queries: sheds are 429/503 with ``Retry-After``, a
        transient write-path fault (anything before the WAL sync —
        nothing applied, nothing logged) is retried within the deadline,
        and a batch the graph's current state rejects is a terminal,
        non-retryable :data:`~repro.server.protocol.OutcomeKind.CONFLICT`
        (HTTP 409) — resubmitting it unchanged conflicts again.
        """
        return self._serve(request, self._apply_admitted)

    def _serve(self, request, run_admitted) -> Dict[str, Any]:
        """Admission, then ``run_admitted(request, ticket)``; every way
        out is one terminal outcome document."""
        if not request.request_id:
            request = request._replace(request_id=uuid.uuid4().hex[:12])
        self.collector.count("server.requests")
        self.collector.count(f"server.class.{request.budget_class}.requests")

        try:
            ticket, shed = self.admission.try_admit(
                request, draining=self._draining
            )
        except KeyError as exc:
            return self._finish(
                request,
                outcome(
                    OutcomeKind.BAD_REQUEST,
                    request_id=request.request_id,
                    error={"message": str(exc.args[0])},
                ),
            )
        if shed is not None:
            self.collector.count("server.shed")
            return self._finish(
                request,
                outcome(
                    shed,
                    request_id=request.request_id,
                    retry_after_ms=self.retry.retry_after_ms(
                        request.request_id, 1
                    ),
                ),
            )
        try:
            return self._finish(request, run_admitted(request, ticket))
        except BaseException:  # noqa: BLE001 - must not raise
            self.admission.release(ticket, dispatched=True)
            self.collector.count("server.internal_errors")
            import traceback

            return self._finish(
                request,
                outcome(
                    OutcomeKind.INTERNAL,
                    request_id=request.request_id,
                    error={"message": traceback.format_exc(limit=4)},
                ),
            )

    def _attempts(self, request, ticket: Ticket, attempt_once, pin=None):
        """The attempt / deadline / backoff loop of an admitted request.

        ``attempt_once(attempt, remaining)`` performs one try and
        returns ``(doc, failure)``: ``failure`` is ``None`` when ``doc``
        is terminal, else the :class:`OutcomeKind` the retry policy
        judges — ``doc`` is then what the client gets should the policy,
        or the deadline, say stop.  ``pin`` (the graph version every
        attempt reads) and the admission slot are released on the way
        out, whichever way that is.
        """
        dispatched = False
        attempt = 0
        try:
            while True:
                attempt += 1
                remaining = ticket.remaining(self._clock())
                if remaining <= 0:
                    self.collector.count("server.deadline_at_dispatch")
                    return outcome(
                        OutcomeKind.DEADLINE_AT_DISPATCH,
                        request_id=request.request_id,
                        attempts=attempt,
                        deadline_seconds=ticket.deadline_seconds,
                    )
                if not dispatched:
                    self.admission.note_dispatched(ticket)
                    dispatched = True
                doc, failure = attempt_once(attempt, remaining)
                if failure is None or not self.retry.should_retry(
                    failure, attempt
                ):
                    return doc
                delay = self.retry.delay(request.request_id, attempt)
                if delay >= ticket.remaining(self._clock()):
                    # No budget left to back off and run again.
                    return doc
                self.collector.count("server.retries")
                self._sleep(delay)
        finally:
            if pin is not None:
                pin.release()
            self.admission.release(ticket, dispatched=dispatched)

    def _apply_admitted(
        self, request: IngestRequest, ticket: Ticket
    ) -> Dict[str, Any]:
        """Commit an admitted batch: one ``GraphStore.apply`` per attempt."""
        store = self._stores.get(request.graph)
        problem = None
        if store is None:
            problem = (
                f"unknown or immutable graph {request.graph!r}; mutable "
                f"graphs: {', '.join(sorted(self._stores)) or 'none'}"
            )
        else:
            try:
                batch = MutationBatch.from_ops(request.ops)
            except (ValueError, TypeError) as exc:
                problem = str(exc)
        if problem is not None:
            self.admission.release(ticket, dispatched=False)
            return outcome(
                OutcomeKind.BAD_REQUEST,
                request_id=request.request_id,
                error={"message": problem},
            )

        def commit(attempt: int, remaining: float):
            try:
                result = store.apply(batch)
            except MutationConflictError as exc:
                self.collector.count("server.ingest.conflicts")
                return outcome(
                    OutcomeKind.CONFLICT,
                    request_id=request.request_id,
                    attempts=attempt,
                    error={
                        "message": str(exc),
                        "op_index": exc.index,
                        "op": exc.op,
                    },
                ), None
            except MutationError as exc:
                # The store is poisoned (a crash landed between WAL
                # commit and publish): only recovery can help, so
                # retrying here would be lying to the client.
                return outcome(
                    OutcomeKind.INTERNAL,
                    request_id=request.request_id,
                    attempts=attempt,
                    error={"message": str(exc)},
                ), None
            except InjectedFault as exc:
                # A fault before the WAL sync is transient: the batch
                # never happened (log and memory unchanged), so a retry
                # is safe.  A post-sync fault poisons the store and the
                # next attempt reports INTERNAL above.
                return outcome(
                    OutcomeKind.FAULT,
                    request_id=request.request_id,
                    attempts=attempt,
                    error={
                        "message": str(exc),
                        "site": exc.site,
                        "hit": exc.hit,
                    },
                ), OutcomeKind.FAULT
            self.collector.count("server.ingest.batches")
            self.collector.count("server.ingest.ops", result.ops)
            return outcome(
                OutcomeKind.OK,
                request_id=request.request_id,
                attempts=attempt,
                ingest={
                    "graph": request.graph,
                    "epoch": result.epoch,
                    "ops": result.ops,
                    "durable": result.durable,
                },
            ), None

        return self._attempts(request, ticket, commit)

    def _run_admitted(
        self, request: QueryRequest, ticket: Ticket
    ) -> Dict[str, Any]:
        """Run an admitted query: one pool dispatch per attempt."""
        budget = dict(ticket.budget_class.budget)
        # Pin the graph's epoch for the whole request (retries
        # included): every attempt runs against this exact version, so
        # batches committing mid-request never change the result.
        store = self._stores.get(request.graph)
        pin = store.pin() if store is not None else None

        def dispatch(attempt: int, remaining: float):
            job = Job(
                request_id=request.request_id,
                query_text=request.query_text,
                graph=request.graph,
                params=dict(request.params),
                engine=request.engine,
                budget=dict(budget, deadline_seconds=max(remaining, 0.001)),
                attempt=attempt,
                graph_epoch=pin.epoch if pin is not None else None,
                cost_screen=self.cost_screen_enabled,
            )
            result = self.pool.dispatch(
                job, queue_wait=remaining, run_wait=remaining
            )
            if result.kind is OutcomeKind.OK:
                return self._from_reply(
                    request, result.reply, attempts=attempt
                ), None
            # A dispatch-layer failure: crashed / straggler /
            # deadline-at-dispatch / draining.
            if result.kind is OutcomeKind.WORKER_CRASHED:
                self.collector.count("server.worker_crashes")
            elif result.kind is OutcomeKind.STRAGGLER:
                self.collector.count("server.stragglers")
            elif result.kind is OutcomeKind.DEADLINE_AT_DISPATCH:
                self.collector.count("server.deadline_at_dispatch")
            return outcome(
                result.kind,
                request_id=request.request_id,
                attempts=attempt,
                worker=result.worker or None,
            ), result.kind

        return self._attempts(request, ticket, dispatch, pin=pin)

    def _from_reply(
        self, request: QueryRequest, reply: Dict[str, Any], attempts: int
    ) -> Dict[str, Any]:
        """Convert a worker reply into the terminal outcome document,
        merging the worker's counters into the service collector."""
        for name, value in (reply.get("counters") or {}).items():
            self.collector.count(name, value)
        kind = OutcomeKind(reply["outcome"])
        payload = {
            k: v
            for k, v in reply.items()
            if k not in ("outcome", "request_id", "counters")
        }
        if kind is OutcomeKind.PREDICTED_OVER_BUDGET:
            # Refused before execution: there is no run to time, and
            # the class is the service's to name.
            del payload["elapsed_ms"]
            payload = {"budget_class": request.budget_class, **payload}
        doc = outcome(
            kind,
            request_id=request.request_id,
            attempts=attempts,
            **payload,
        )
        if doc["retryable"] and attempts < self.retry.max_attempts:
            doc["retry_after_ms"] = self.retry.retry_after_ms(
                request.request_id, attempts
            )
        return doc

    def _finish(
        self, request: QueryRequest, doc: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Account the terminal outcome (exactly once per request)."""
        self.collector.count(f"server.outcome.{doc['outcome']}")
        return doc

    # -- metrics -------------------------------------------------------
    def metrics_dict(self) -> Dict[str, Any]:
        """The ``/metrics`` document: merged counters plus gauges."""
        return {
            "counters": dict(sorted(self.collector.counters.items())),
            "admission": self.admission.snapshot(),
            "pool": self.pool.stats(),
            "retry": self.retry.to_dict(),
            "draining": self._draining,
            "graphs": {
                name: {
                    "epoch": store.epoch,
                    "durable": store.durable,
                    "poisoned": store.poisoned is not None,
                }
                for name, store in sorted(self._stores.items())
            },
        }


__all__ = ["QueryService"]
