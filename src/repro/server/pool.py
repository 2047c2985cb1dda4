"""The worker pool: isolated pipeline workers, crash detection, drain.

Each worker runs the full existing pipeline per job — parse ->
cost screen -> analyze -> govern -> execute — and replies with a
structured outcome plus its obs-counter snapshot.  The worker is the
only place a request's text is parsed, certified and lowered: the
service ships the text and reads the verdict.  Two worker transports
share one dispatch protocol:

``process`` (the production default)
    One ``multiprocessing.Process`` per worker with a duplex pipe: a
    crash kills one query, never a sibling.  Crash detection is real: a
    dead process or an EOF on its pipe surfaces as
    :class:`~repro.errors.WorkerCrashed` and the pool respawns a
    replacement.  A worker holds no pipe end but its own, so it sees
    EOF — and exits — the moment the serving process dies, however it
    dies.

``thread`` (deterministic in-process mode, used by tests and chaos)
    One daemon thread per worker.  A job's collector and governor are
    bound per context (:mod:`repro._exec`), so thread workers run their
    jobs concurrently over the shared plan cache and graph stores and
    each reply carries only its own counters.  "Killing" a thread
    worker poisons it: the pool stops routing to it immediately,
    discards any stale reply, and the thread exits after its current
    job (queries are read-only, so the orphaned execution has no side
    effects — exactly like an orphaned process killed mid-query).

Service-layer fault sites (``server.dispatch``, ``server.worker.crash``,
``server.worker.stall`` — see :mod:`repro.governor.faults`) fire in the
*dispatching* process, so chaos tests drive the real crash-detection,
straggler-kill and drain machinery deterministically under both modes.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import queue
import threading
import time
import traceback
import weakref
from typing import Any, Dict, List, Optional

# Everything a job can reach is imported here, at the top: the serving
# process compiles it once before it forks, and every worker — first
# spawn or respawn — inherits it instead of compiling it again at its
# first request.
from .. import _exec
from ..analysis.analyzer import analyze
from ..analysis.cost import budget_breaches
from ..analysis.diagnostics import Severity
from ..analysis.rules import rule_catalog
from ..compile.cache import plan_cache, reset_plan_cache
from ..core.pattern import EngineMode
from ..errors import (
    AccSanViolation,
    GSQLSyntaxError,
    InjectedFault,
    MutationError,
    ParallelSafetyError,
    QueryAbortedError,
    QueryCompileError,
    QueryRuntimeError,
    ReproError,
    WorkerCrashed,
)
from ..governor import faults as _faults
from ..governor.budget import Budget
from ..governor.governor import ExecutionGovernor, govern
from ..graph.io import load_graph_json
from ..graph.mutation import GraphStore
from ..graph.stats import stats_snapshot
from ..obs.metrics import collect
from .protocol import Job, OutcomeKind, jsonify


def execute_job(job: Job, graphs: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job through the full pipeline; never raises.

    The reply is a plain dict: ``outcome`` (an
    :class:`~repro.server.protocol.OutcomeKind` value string), a
    kind-specific payload, the query's obs counters and elapsed time.
    """
    started = time.perf_counter()

    def reply(kind: OutcomeKind, counters: Dict[str, int], **payload: Any):
        return {
            "outcome": kind.value,
            "request_id": job.request_id,
            "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
            "counters": counters,
            **payload,
        }

    graph = graphs.get(job.graph)
    if graph is None:
        return reply(
            OutcomeKind.BAD_REQUEST,
            {},
            error={
                "message": f"unknown graph {job.graph!r}; "
                           f"known: {', '.join(sorted(graphs))}"
            },
        )
    if isinstance(graph, GraphStore):
        # The service pinned job.graph_epoch at admission: resolve to
        # that exact version so a batch committing mid-query never
        # changes this query's result.  The pin is held until the
        # request's terminal outcome, so the version is retained.
        try:
            graph = graph.view(job.graph_epoch)
        except MutationError as exc:
            return reply(
                OutcomeKind.INTERNAL, {}, error={"message": str(exc)}
            )
    try:
        mode = EngineMode.named(job.engine)
    except ValueError as exc:
        return reply(OutcomeKind.BAD_REQUEST, {}, error={"message": str(exc)})

    governor = ExecutionGovernor(Budget(**job.budget)) if job.budget else None
    # The collector opens before the parse/analyze/compile stage so the
    # plan-cache counters (compile.cache.hit/miss, compile.*) land in
    # the reply — a warm hit is visible as compile.cache.hit with zero
    # analysis re-entry.
    with collect() as col:
        # parse + static analysis (the "check" stage): error-severity
        # diagnostics reject the query before any execution work.  Both
        # stages run through the plan cache: a warm hit skips them
        # entirely, reusing the stashed analysis verdict.
        try:
            runnable = plan_cache().get_or_compile(
                job.query_text, schema=getattr(graph, "schema", None)
            )
            refusal = _cost_refusal(job, runnable, graph, col)
            if refusal is not None:
                return reply(
                    OutcomeKind.PREDICTED_OVER_BUDGET,
                    dict(col.counters),
                    **refusal,
                )
            if runnable.lint_errors is None:
                # The reply carries error diagnostics only, so only the
                # error-severity rules run.
                runnable.lint_errors = [
                    d.to_dict() for d in analyze(
                        runnable.query, schema=None, source=job.query_text,
                        rules=_error_rules(),
                    )
                ]
            diag_errors = runnable.lint_errors
        except (GSQLSyntaxError, QueryCompileError) as exc:
            return reply(
                OutcomeKind.LINT_ERROR,
                dict(col.counters),
                error={"message": str(exc), "kind": type(exc).__name__},
            )
        if diag_errors:
            return reply(
                OutcomeKind.LINT_ERROR,
                dict(col.counters),
                error={"message": f"{len(diag_errors)} analysis error(s)"},
                diagnostics=diag_errors,
            )
        try:
            with govern(governor):
                result = runnable.run(graph, mode=mode, **job.params)
        except QueryAbortedError as exc:
            reason = getattr(exc.reason, "value", exc.reason)
            return reply(
                OutcomeKind.ABORTED,
                dict(col.counters),
                abort={
                    "reason": reason,
                    "limit": exc.limit_name,
                    "limit_value": exc.limit_value,
                    "observed": jsonify(exc.observed),
                    "elapsed_seconds": round(exc.elapsed_seconds, 4),
                },
            )
        except AccSanViolation as exc:
            return reply(
                OutcomeKind.SANITIZER,
                dict(col.counters),
                error={
                    "message": str(exc),
                    "accumulator": exc.accumulator,
                    "schedule": exc.schedule,
                },
            )
        except ParallelSafetyError as exc:
            return reply(
                OutcomeKind.PARALLEL_SAFETY,
                dict(col.counters),
                error={"message": str(exc), "status": exc.status},
            )
        except InjectedFault as exc:
            return reply(
                OutcomeKind.FAULT,
                dict(col.counters),
                error={"message": str(exc), "site": exc.site, "hit": exc.hit},
            )
        except (ReproError, TypeError, ValueError) as exc:
            # Engine-surfaced runtime failures stay structured; anything
            # else escapes to the worker loop, which reports INTERNAL.
            if isinstance(exc, QueryRuntimeError) and isinstance(
                exc.__cause__, InjectedFault
            ):
                # A parallel-worker wrapper around an injected fault is
                # still a transient fault, not a query bug.
                cause = exc.__cause__
                return reply(
                    OutcomeKind.FAULT,
                    dict(col.counters),
                    error={
                        "message": str(exc),
                        "site": cause.site,
                        "hit": cause.hit,
                    },
                )
            return reply(
                OutcomeKind.RUNTIME_ERROR,
                dict(col.counters),
                error={"message": str(exc), "kind": type(exc).__name__},
            )
        payload: Dict[str, Any] = {
            "printed": jsonify(result.printed),
            "tables": {
                name: jsonify(table) for name, table in result.tables.items()
            },
        }
        if result.returned is not None:
            payload["returned"] = jsonify(result.returned)
        if governor is not None:
            payload["governor"] = {
                "downgrades": governor.downgrades,
                "soft_stops": governor.soft_stops,
            }
        return reply(OutcomeKind.OK, dict(col.counters), result=payload)


def _error_rules() -> List[Any]:
    """Fresh instances of every error-severity analysis rule."""
    return [cls() for cls in rule_catalog() if cls.severity is Severity.ERROR]


def _cost_refusal(job: Job, runnable, graph, col) -> Optional[Dict[str, Any]]:
    """The static cost screen: the ``predicted`` / ``certificate``
    payload refusing a job whose *predicted* cost provably exceeds its
    budget, or ``None`` to let it run.

    The plan is priced against the statistics of the very version about
    to be executed.  The screen is sound by construction and therefore
    conservative: it only refuses when a **finite** certificate upper
    bound beats a configured cap
    (:func:`~repro.analysis.cost.budget_breaches`).  No caps, no
    statistics or no certificate means no screen — the governor still
    enforces the budget at run time.
    """
    if not job.cost_screen or not any(
        cap != "deadline_seconds" for cap in job.budget
    ):
        return None
    try:
        cert = runnable.cost_for(stats_snapshot(graph))
    except Exception:  # noqa: BLE001 - the screen is best-effort
        return None
    if cert is None:
        return None
    col.count("server.cost.screened")
    breaches = budget_breaches(cert, job.budget, engine=job.engine)
    if not breaches:
        return None
    col.count("server.cost.rejections")
    return {
        "predicted": {
            "confidence": cert.confidence.value,
            "breaches": [
                {"metric": metric, "predicted_max": hi, "cap": cap}
                for metric, hi, cap in breaches
            ],
        },
        "certificate": cert.to_dict(),
    }


def _reset_worker_globals() -> None:
    """Start a forked worker from a clean, inactive engine.

    A fork copies the forking thread's context (whatever collector,
    governor or sanitizer it had bound), the armed fault plan with an
    owner thread that does not exist here, and the parent's plan cache
    (with its lock, possibly held mid-fork by a dispatcher thread).
    """
    _exec.clear()
    _faults.disarm()
    reset_plan_cache()


#: What only the serving process may hold open: its end of every worker
#: pipe, and the HTTP listener and connections (:mod:`repro.server.app`).
#: A forked worker inherits all of them — its own pipe's far end, its
#: elder siblings', whatever the forking handler thread and its peers
#: were serving — and closes them first thing, or no worker would ever
#: see EOF when the server dies and every respawn would leak a
#: descriptor per open connection.  Pipes are made and workers forked
#: under ``_spawn_lock`` so a fork can never capture a pipe end that is
#: not in the set yet.  A connection has no such guarantee — a blocking
#: ``accept()`` cannot sit under the lock — so a fork between a handler's
#: ``accept()`` and its ``close_in_forked_workers(conn)`` leaks that one
#: descriptor into the child; the handler's ``shutdown()`` still ends the
#: exchange with EOF.
_parent_ends: "weakref.WeakSet[Any]" = weakref.WeakSet()
_spawn_lock = threading.Lock()


def close_in_forked_workers(resource) -> None:
    """Have every worker forked from now on ``close()`` its inherited
    copy of ``resource`` (held weakly) before it does anything else."""
    _parent_ends.add(resource)


def _load_worker_graphs(graph_paths: Dict[str, str]) -> Dict[str, Any]:
    """A process worker's graphs, loaded and then frozen out of the
    cyclic garbage collector's reach.

    A worker never frees its graphs, yet every full collection would
    walk each vertex and edge of them again (tens of milliseconds on SNB
    SF1, paid by whichever request triggers it).  ``gc.freeze()`` moves
    everything alive after the load — the graphs and what the worker
    inherited from the serving process — into the permanent generation.
    There is no collection first: it would write to the header of every
    inherited object, copying the pages the fork shares, and add a full
    collection to each worker's start for garbage a fresh fork hardly
    has.
    Process workers only: a thread-mode ``GraphStore`` supersedes its
    epochs, and a superseded epoch must stay collectable.
    """
    graphs = {name: load_graph_json(path) for name, path in graph_paths.items()}
    gc.freeze()
    return graphs


def _process_worker_main(conn, graph_paths: Dict[str, str]) -> None:
    """Entry point of one pool worker process."""
    for inherited in list(_parent_ends):
        inherited.close()
    _reset_worker_globals()
    graphs = _load_worker_graphs(graph_paths)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):  # the serving process is gone
            return
        if job is None:  # orderly shutdown
            return
        try:
            reply = execute_job(job, graphs)
        except BaseException:  # noqa: BLE001 - worker must answer something
            reply = {
                "outcome": OutcomeKind.INTERNAL.value,
                "request_id": job.request_id,
                "counters": {},
                "error": {"message": traceback.format_exc(limit=4)},
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            return


_worker_ids = itertools.count(1)


class _ProcessWorker:
    """One worker process plus its dispatch pipe."""

    mode = "process"

    def __init__(self, graph_paths: Dict[str, str], ctx=None):
        self._ctx = ctx or multiprocessing.get_context("fork")
        self._graph_paths = graph_paths
        self.name = f"worker-{next(_worker_ids)}"
        with _spawn_lock:
            parent, child = self._ctx.Pipe(duplex=True)
            close_in_forked_workers(parent)
            self._conn = parent
            self._proc = self._ctx.Process(
                target=_process_worker_main,
                args=(child, graph_paths),
                name=self.name,
                daemon=True,
            )
            self._proc.start()
            child.close()

    def send(self, job: Job) -> None:
        if not self._proc.is_alive():
            raise WorkerCrashed(f"{self.name} is dead", worker=self.name)
        try:
            self._conn.send(job)
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(
                f"{self.name} pipe closed at dispatch", worker=self.name
            )

    def recv(self, timeout: float) -> Dict[str, Any]:
        """Wait for the reply; raises ``WorkerCrashed`` on death and
        ``TimeoutError`` when the worker overruns ``timeout``."""
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.name} exceeded {timeout:.3f}s")
            try:
                if self._conn.poll(min(remaining, 0.05)):
                    return self._conn.recv()
            except (EOFError, OSError):
                raise WorkerCrashed(
                    f"{self.name} died mid-query", worker=self.name
                )
            if not self._proc.is_alive():
                # Drain any reply that raced the death notification.
                try:
                    if self._conn.poll(0):
                        return self._conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerCrashed(
                    f"{self.name} died mid-query", worker=self.name
                )

    def kill(self) -> None:
        self._proc.kill()

    def shutdown(self, grace: float) -> None:
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=grace)
        if self._proc.is_alive():  # pragma: no cover - stuck worker
            self._proc.kill()
            self._proc.join(timeout=1.0)
        self._conn.close()

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()


class _ThreadWorker:
    """One worker thread with private in/out queues.

    A poisoned worker is never routed to again; its channel (and any
    stale reply sitting in it) is abandoned with the object, which is
    how a killed process's pipe drains too.
    """

    mode = "thread"

    def __init__(self, graphs: Dict[str, Any]):
        self._graphs = graphs
        self.name = f"worker-{next(_worker_ids)}"
        self._inbox: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._outbox: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        self.poisoned = False
        self._thread = threading.Thread(
            target=self._loop, name=self.name, daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            job = self._inbox.get()
            if job is None or self.poisoned:
                return
            try:
                reply = execute_job(job, self._graphs)
            except BaseException:  # noqa: BLE001 - worker must answer
                reply = {
                    "outcome": OutcomeKind.INTERNAL.value,
                    "request_id": job.request_id,
                    "counters": {},
                    "error": {"message": traceback.format_exc(limit=4)},
                }
            self._outbox.put(reply)
            if self.poisoned:
                return

    def send(self, job: Job) -> None:
        if self.poisoned:
            raise WorkerCrashed(f"{self.name} is poisoned", worker=self.name)
        self._inbox.put(job)

    def recv(self, timeout: float) -> Dict[str, Any]:
        deadline = time.monotonic() + max(timeout, 0.0)
        while True:
            # A poisoned worker counts as dead *now*: any reply it still
            # produces is stale and dropped with its channel — the same
            # observable as a SIGKILLed process that never replied.
            if self.poisoned:
                raise WorkerCrashed(
                    f"{self.name} died mid-query", worker=self.name
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"{self.name} exceeded {timeout:.3f}s")
            try:
                return self._outbox.get(timeout=min(remaining, 0.02))
            except queue.Empty:
                continue

    def kill(self) -> None:
        self.poisoned = True
        self._inbox.put(None)  # unblock an idle loop

    def shutdown(self, grace: float) -> None:
        self._inbox.put(None)
        self._thread.join(timeout=grace)
        self.poisoned = True

    @property
    def alive(self) -> bool:
        return not self.poisoned and self._thread.is_alive()


class DispatchResult:
    """What one dispatch attempt produced (for the service's retry loop)."""

    __slots__ = ("kind", "reply", "worker")

    def __init__(
        self,
        kind: OutcomeKind,
        reply: Optional[Dict[str, Any]] = None,
        worker: str = "",
    ):
        self.kind = kind
        self.reply = reply
        self.worker = worker


class WorkerPool:
    """Fixed-size pool with crash detection, respawn and straggler kill.

    ``graphs`` (name -> loaded Graph) backs thread workers; process
    workers load their own copies from ``graph_paths`` (name -> JSON
    path).  Pass whichever the mode needs — the CLI passes both.
    """

    def __init__(
        self,
        size: int = 4,
        mode: str = "thread",
        graphs: Optional[Dict[str, Any]] = None,
        graph_paths: Optional[Dict[str, str]] = None,
    ):
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown pool mode {mode!r}")
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if mode == "process" and not graph_paths:
            raise ValueError("process pool needs graph_paths")
        if mode == "thread" and graphs is None:
            raise ValueError("thread pool needs loaded graphs")
        self.size = size
        self.mode = mode
        self._graphs = graphs or {}
        self._graph_paths = graph_paths or {}
        self._idle: "queue.Queue[Any]" = queue.Queue()
        self._lock = threading.Lock()
        self._closed = False
        self.crashes = 0
        self.respawns = 0
        self.stragglers = 0
        self._workers: List[Any] = []
        for _ in range(size):
            worker = self._spawn()
            self._workers.append(worker)
            self._idle.put(worker)

    def _spawn(self):
        if self.mode == "process":
            return _ProcessWorker(self._graph_paths)
        return _ThreadWorker(self._graphs)

    def _replace(self, dead) -> None:
        """Respawn a crashed/straggling worker and return the fresh one
        to the idle set; the dead worker's channel drains with it."""
        with self._lock:
            if self._closed:
                return
            try:
                self._workers.remove(dead)
            except ValueError:  # pragma: no cover - already replaced
                pass
            fresh = self._spawn()
            self._workers.append(fresh)
            self.respawns += 1
        self._idle.put(fresh)

    # -- dispatch ------------------------------------------------------
    def dispatch(self, job: Job, queue_wait: float, run_wait: float) -> DispatchResult:
        """Run ``job`` on the next idle worker.

        ``queue_wait`` bounds the wait for an idle worker (the in-queue
        part of the request's deadline); ``run_wait`` bounds the wait
        for the worker's reply.  Never raises: every failure mode maps
        to a :class:`DispatchResult` the service turns into a terminal
        outcome or a retry.
        """
        try:
            worker = self._idle.get(timeout=max(queue_wait, 0.0))
        except queue.Empty:
            return DispatchResult(OutcomeKind.DEADLINE_AT_DISPATCH)
        if self._closed:
            self._idle.put(worker)
            return DispatchResult(OutcomeKind.SHED_DRAINING)
        if not worker.alive:
            # Found a corpse in the idle set (crashed between jobs):
            # replace it and account the crash, then report for retry.
            self.crashes += 1
            self._replace(worker)
            return DispatchResult(
                OutcomeKind.WORKER_CRASHED, worker=worker.name
            )

        # server.dispatch: deadline treated as expired at dispatch time.
        if _faults._PLAN is not None:
            try:
                _faults.fire("server.dispatch")
            except InjectedFault:
                self._idle.put(worker)
                return DispatchResult(OutcomeKind.DEADLINE_AT_DISPATCH)

        try:
            worker.send(job)
        except WorkerCrashed:
            self.crashes += 1
            self._replace(worker)
            return DispatchResult(
                OutcomeKind.WORKER_CRASHED, worker=worker.name
            )

        # server.worker.crash: kill the worker mid-query — the genuine
        # crash-detection path (pipe EOF / dead process) runs next.
        killed = False
        if _faults._PLAN is not None:
            try:
                _faults.fire("server.worker.crash")
            except InjectedFault:
                worker.kill()
                killed = True
            # server.worker.stall: stop waiting for this worker — the
            # straggler path (kill + replace + drain) runs with no
            # actual sleeping, which keeps chaos runs fast.
            try:
                _faults.fire("server.worker.stall")
            except InjectedFault:
                run_wait = 0.0

        try:
            reply = worker.recv(timeout=run_wait)
            if killed:
                # The reply raced the kill out of the pipe; a killed
                # worker's output is stale by definition — drop it so
                # chaos outcomes stay deterministic.
                raise WorkerCrashed(
                    f"{worker.name} killed mid-query", worker=worker.name
                )
        except WorkerCrashed:
            self.crashes += 1
            self._replace(worker)
            return DispatchResult(
                OutcomeKind.WORKER_CRASHED, worker=worker.name
            )
        except TimeoutError:
            self.stragglers += 1
            worker.kill()
            self._replace(worker)
            return DispatchResult(OutcomeKind.STRAGGLER, worker=worker.name)
        self._idle.put(worker)
        return DispatchResult(OutcomeKind.OK, reply=reply, worker=worker.name)

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, grace: float = 5.0) -> None:
        """Stop the pool: drain idle workers, then stop the rest.

        In-flight jobs get ``grace`` seconds to finish; stragglers are
        killed.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        deadline = time.monotonic() + grace
        for worker in workers:
            worker.shutdown(grace=max(deadline - time.monotonic(), 0.1))

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            alive = sum(1 for w in self._workers if w.alive)
        return {
            "size": self.size,
            "mode": self.mode,
            "alive": alive,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "stragglers": self.stragglers,
        }


__all__ = [
    "execute_job",
    "WorkerPool",
    "DispatchResult",
]
