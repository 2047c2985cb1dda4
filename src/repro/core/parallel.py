"""Bulk-synchronous parallel execution of the ACCUM Map phase.

Section 4.3: "The snapshot semantics is compatible with bulk-synchronous
parallel execution ... while guaranteeing deterministic semantics in all
order-invariant use cases."  This module demonstrates that property
concretely: the binding table is partitioned across workers, each worker
runs its acc-executions into a *private* accumulator scratch (fresh
instances), and the per-worker partials are folded together with each
accumulator's ``merge`` — the parallel Reduce.

The point is semantic (determinism through order invariance), not raw
speed: CPython threads do not parallelize interpreter-bound work, so the
default runs partitions sequentially; pass ``use_threads=True`` to
exercise the same code path under a real thread pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextvars import copy_context
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import _exec
from ..accum.base import Accumulator
from ..errors import ParallelSafetyError, QueryAbortedError, QueryRuntimeError
from ..governor import faults as _faults
from .context import QueryContext
from .exprs import EvalEnv, Scope
from .pattern import BindingRow, BindingTable
from .stmts import AccStatement, AccumUpdate


class _Partial:
    """One worker's private accumulation state.

    It is what the ACCUM Map kernel binds against in place of the live
    context and input buffer: accumulator lookups hand out fresh private
    instances (created from the context's declared factories, so
    defaults/initializers match), and a buffered input folds straight
    into its private instance — the worker-local Reduce.  Keyed the way
    the final merge needs it: global accumulators by name, vertex
    accumulators by (name, vertex id).
    """

    def __init__(self, ctx: QueryContext):
        self.ctx = ctx
        self.globals: Dict[str, Accumulator] = {}
        self.vertex: Dict[Tuple[str, Any], Accumulator] = {}

    def global_accum(self, name: str) -> Accumulator:
        acc = self.globals.get(name)
        if acc is None:
            acc = self.globals[name] = self.ctx.declaration(name).factory()
        return acc

    def vertex_accum_resolver(self, name: str) -> Callable[[Any], Accumulator]:
        def resolve(vid: Any) -> Accumulator:
            key = (name, vid)
            acc = self.vertex.get(key)
            if acc is None:
                acc = self.vertex[key] = self.ctx.declaration(name).factory()
            return acc

        return resolve

    @staticmethod
    def add(acc: Accumulator, value: Any, multiplicity: int) -> None:
        acc.combine_weighted(value, multiplicity)

    @staticmethod
    def set(acc: Accumulator, value: Any, multiplicity: int = 1) -> None:
        raise QueryRuntimeError(
            "parallel ACCUM supports only += statements "
            "(plain assignment is inherently a race)"
        )


def _run_partition(
    ctx: QueryContext,
    bind: Callable,
    rows: List[BindingRow],
    primed: Dict[str, Dict[Any, Any]],
    abort: Optional[threading.Event] = None,
) -> _Partial:
    if _faults._PLAN is not None:
        _faults.fire("parallel.worker")
    partial = _Partial(ctx)
    kernel = bind(partial, partial)
    env = EvalEnv(ctx, None, None, primed)
    for values, multiplicity in rows:
        if abort is not None and abort.is_set():
            # A sibling worker failed; bail out cooperatively.  The
            # partial is discarded by the caller, so stopping early is
            # safe under snapshot semantics.
            break
        env.row = values
        kernel(env, multiplicity)
    return partial


def _run_threaded(
    ctx: QueryContext,
    bind: Callable,
    chunks: List[List[BindingRow]],
    primed: Dict[str, Dict[Any, Any]],
) -> List[_Partial]:
    """Run one partition per worker thread with structured failure.

    A failing worker does not surface as a bare future exception: its
    error is re-raised as :class:`QueryRuntimeError` carrying the
    worker's partition index (``.partition``), pending siblings are
    cancelled and running siblings are signalled to drain via a shared
    abort event, so the pool shuts down promptly and no partial escapes
    into the live accumulators.
    """
    abort = threading.Event()
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        # A pool thread starts with nothing bound: each partition runs
        # in its own copy of the caller's context, so its kernel reports
        # to the caller's collector, governor and sanitizer.
        futures = [
            pool.submit(
                copy_context().run,
                _run_partition, ctx, bind, chunk, primed, abort,
            )
            for chunk in chunks
        ]
        wait(futures, return_when=FIRST_EXCEPTION)
        failed_idx: Optional[int] = None
        failure: Optional[BaseException] = None
        for idx, future in enumerate(futures):
            if future.done() and future.exception() is not None:
                failed_idx, failure = idx, future.exception()
                break
        if failure is not None:
            abort.set()
            for future in futures:
                future.cancel()
            # Drain: the `with` block joins running workers, which exit
            # at their next abort-event check.
        if failure is None:
            # Collect partials slotted by *partition index*, never by
            # thread completion order: workers may finish in any order,
            # but the Reduce phase must see a deterministic sequence so
            # even a merely-associative merge gives one reproducible
            # result.
            partials: List[Optional[_Partial]] = [None] * len(futures)
            for idx, future in enumerate(futures):
                partials[idx] = future.result()
            return partials
    if isinstance(failure, QueryAbortedError):
        raise failure  # governor aborts keep their structured identity
    raise QueryRuntimeErrorWithPartition(
        f"parallel ACCUM worker for partition {failed_idx} failed: {failure}",
        partition=failed_idx,
    ) from failure


class QueryRuntimeErrorWithPartition(QueryRuntimeError):
    """A worker failure wrapped with the partition index that raised it."""

    def __init__(self, message: str, partition: Optional[int] = None):
        super().__init__(message)
        self.partition = partition


def parallel_accum(
    ctx: QueryContext,
    statements: List[AccStatement],
    table: BindingTable,
    partitions: int = 4,
    primed: Optional[Dict[str, Dict[Any, Any]]] = None,
    use_threads: bool = False,
    certificate: object = None,
    on_uncertified: str = "raise",
) -> None:
    """Execute an ACCUM clause over a binding table (its ``variables``
    name the slots the clause's expressions are lowered against) with a
    partitioned Map phase and a merge-based Reduce, mutating the
    context's accumulators.

    Deterministic whenever every target accumulator is order-invariant
    (the engine's guarantee from Section 4.3).  The licence to partition
    comes in one of two forms:

    * a :class:`~repro.core.tractable.DeterminismCertificate` from the
      effect analysis (``block.effect_certificate``): COMMUTATIVE runs,
      anything else is refused with a structured
      :class:`~repro.errors.ParallelSafetyError` — or, with
      ``on_uncertified="serialize"``, degraded to a single partition
      (sequential, deterministic) with an obs counter instead of an
      exception;
    * no certificate (programmatically built statement lists): the
      legacy declaration probe rejects order-dependent targets.

    Either way the engine never runs a nondeterministic parallel fold
    silently.
    """
    primed = primed or {}
    if certificate is not None:
        if not getattr(certificate, "commutative", False):
            status = getattr(certificate, "status", None)
            status_text = getattr(status, "value", str(status))
            witnesses = tuple(getattr(certificate, "witnesses", ()))
            if on_uncertified == "serialize":
                partitions = 1
                col = _exec.current().col
                if col is not None:
                    col.count("parallel.serialized_uncertified")
            else:
                raise ParallelSafetyError(
                    f"parallel ACCUM refused: the block's effect "
                    f"certificate is {status_text}, not commutative "
                    f"({'; '.join(witnesses) or 'no witnesses'}); run "
                    f"sequentially, or pass on_uncertified='serialize' "
                    f"to degrade instead of failing",
                    status=status_text or "",
                    witnesses=witnesses,
                )
    else:
        for stmt in statements:
            if isinstance(stmt, AccumUpdate):
                decl = ctx.declaration(stmt.target.name)
                if not decl.order_invariant:
                    raise QueryRuntimeError(
                        f"@{stmt.target.name} is order-dependent; parallel "
                        f"execution would be nondeterministic (Section 4.3)"
                    )
    if not statements:
        return
    from ..compile.exprc import CompileStats
    from ..compile.lowering import compile_accum_clause

    # The Map kernel every SELECT block runs, bound per partition to a
    # private scratch instead of the live context and buffer.
    bind = compile_accum_clause(
        statements, {}, CompileStats(), Scope(table.variables)
    )
    rows = table.rows
    partitions = max(1, min(partitions, len(rows) or 1))
    chunks = [rows[i::partitions] for i in range(partitions)]

    if use_threads and partitions > 1:
        partials = _run_threaded(ctx, bind, chunks, primed)
    else:
        partials = [_run_partition(ctx, bind, chunk, primed) for chunk in chunks]

    ec = _exec.current()
    if ec.san is not None:
        _check_merge_schedules(ctx, partials, certificate, ec.san)

    # Reduce: merge worker partials into the live accumulators, walking
    # the partials in partition-index order (the order `partials` is
    # built in, for both the threaded and sequential paths above).
    merges = 0
    for partial in partials:
        for name, acc in partial.globals.items():
            ctx.global_accum(name).merge(acc)
        for (name, vid), acc in partial.vertex.items():
            ctx.vertex_accum(name, vid).merge(acc)
        merges += len(partial.globals) + len(partial.vertex)
    col = ec.col
    if col is not None:
        col.count("accum.merges", merges)
        col.count("parallel.partitions", len(partials))


def _check_merge_schedules(
    ctx: QueryContext,
    partials: List[_Partial],
    certificate: object,
    sanitizer: Any,
) -> None:
    """Hand AccSan every accumulator's per-partition partials so it can
    permute the merge order before the real Reduce runs."""
    by_global: Dict[str, List[Accumulator]] = {}
    by_vertex: Dict[Tuple[str, Any], List[Accumulator]] = {}
    for partial in partials:
        for name, acc in partial.globals.items():
            by_global.setdefault(name, []).append(acc)
        for key, acc in partial.vertex.items():
            by_vertex.setdefault(key, []).append(acc)
    for name, accs in by_global.items():
        sanitizer.check_merge(
            f"@@{name}", ctx.global_accum(name), accs, certificate,
            "parallel_accum",
        )
    for (name, vid), accs in by_vertex.items():
        sanitizer.check_merge(
            f"{vid}.@{name}", ctx.vertex_accum(name, vid), accs, certificate,
            "parallel_accum",
        )


__all__ = ["parallel_accum", "QueryRuntimeErrorWithPartition"]
