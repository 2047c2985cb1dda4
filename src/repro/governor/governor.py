"""The per-query execution governor: budgets, deadlines, cancellation.

The governor makes query execution a *managed, interruptible workload*:
the engine's hot loops (:mod:`repro.paths.sdmc` level steps,
:mod:`repro.enumeration.engine` node expansion,
:meth:`repro.core.block.SelectBlock` Map phases, WHILE/FOREACH
iterations, :mod:`repro.core.parallel` workers) charge their work into
whichever governor is *active* and abort cooperatively when a
:class:`~repro.governor.budget.Budget` limit is breached or the
:class:`CancelToken` trips.

The design mirrors :mod:`repro.obs.metrics` deliberately: the active
governor is the ``gov`` field of the calling context's
:class:`repro._exec.ExecCtx`, and one read of that record per engine
call (never per row/edge/product state) is the entire cost when no
governor is installed.  ``benchmarks/check_overhead.py`` holds the
SDMC kernel with nothing bound within 5% of a touchpoint-free copy, and
under an unlimited governor within 10% of the kernel with nothing
bound.

Budget breaches raise :class:`~repro.errors.QueryAbortedError` carrying
the reason, the breached limit, the partial obs counters and elapsed
time — except where a degradation policy applies (certified-tractable
enumeration downgrades to counting; unbounded WHILE loops soft-stop).
``docs/robustness.md`` documents the full degradation ladder.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from .. import _exec
from ..errors import QueryAbortedError
from .budget import AbortReason, Budget


class CancelToken:
    """Cooperative, thread-safe cancellation signal.

    A caller (another thread, a timeout handler, a CLI signal handler)
    calls :meth:`cancel`; the governed query observes it at its next
    :meth:`ExecutionGovernor.tick` and aborts with reason
    ``CANCELLED``.  Cancellation is sticky — a token cannot be reset.
    """

    __slots__ = ("_event", "_flag")

    def __init__(self) -> None:
        self._event = threading.Event()
        # Plain-bool mirror of the event, read inline by the governor's
        # hot-path checks (an attribute load, no method call).  Writes
        # are GIL-atomic and sticky, so the mirror can never disagree
        # with the event for longer than one cooperative checkpoint.
        self._flag = False

    def cancel(self) -> None:
        self._flag = True
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._flag or self._event.is_set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CancelToken({'cancelled' if self.cancelled else 'live'})"


#: Per-accumulator-instance bookkeeping overhead assumed by the memory
#: estimator (object header + dict slot + key), on top of the shallow
#: size of each instance's current value.
_ACCUM_INSTANCE_OVERHEAD = 64


def estimate_accum_bytes(ctx: Any) -> int:
    """Shallow estimate of the memory held by a context's accumulators.

    Sums ``sys.getsizeof`` over every materialized global and
    per-vertex accumulator *value* plus a fixed per-instance overhead.
    Deliberately shallow (nested containers count once): the estimate
    exists to catch a ``ListAccum`` swallowing the heap, not to be an
    exact allocator report.
    """
    total = 0
    for acc in ctx._globals.values():
        total += _ACCUM_INSTANCE_OVERHEAD + _safe_sizeof(acc.value)
    for family in ctx._vertex_accums.values():
        for acc in family.values():
            total += _ACCUM_INSTANCE_OVERHEAD + _safe_sizeof(acc.value)
    return total


def _safe_sizeof(value: Any) -> int:
    try:
        size = sys.getsizeof(value)
    except TypeError:  # pragma: no cover - exotic __sizeof__
        return _ACCUM_INSTANCE_OVERHEAD
    if isinstance(value, (list, tuple, set, frozenset)):
        # Count one level of container entries: pointer-sized slots plus
        # the shallow size of each element, enough to notice a
        # million-entry ListAccum without a deep traversal.
        size += sum(sys.getsizeof(v) for v in value)
    elif isinstance(value, dict):
        size += sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in value.items())
    return size


class ExecutionGovernor:
    """Carries one query execution's budget, cancel token and tallies.

    The engine charges work through the ``charge_*`` methods (which
    include a deadline/cancellation check) and calls :meth:`tick` at
    loop boundaries that do not charge anything.  All tallies are
    cumulative across the whole governed extent — a budget is
    per-query, not per-block.
    """

    def __init__(
        self,
        budget: Optional[Budget] = None,
        token: Optional[CancelToken] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = budget if budget is not None else Budget()
        self.token = token if token is not None else CancelToken()
        self._clock = clock
        self.started = clock()
        if self.budget.deadline_seconds is not None:
            self._deadline_at: Optional[float] = (
                self.started + self.budget.deadline_seconds
            )
        else:
            self._deadline_at = None
        # Cumulative work tallies, in the engine's own units.
        self.acc_executions = 0
        self.product_states = 0
        self.paths = 0
        self.while_iterations = 0
        self.accum_bytes = 0
        # Degradation bookkeeping.
        self.downgrades = 0
        self.downgrade_details: List[str] = []
        self.soft_stops = 0
        #: The abort this governor raised, if any (for reports).
        self.aborted: Optional[QueryAbortedError] = None

    @classmethod
    def from_certificate(
        cls,
        cert,
        headroom: float = 2.0,
        deadline_seconds: Optional[float] = None,
        token: Optional[CancelToken] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> "ExecutionGovernor":
        """A governor whose budget derives from a cost certificate.

        Every finite predicted upper bound becomes a cap of ``predicted
        x headroom`` (minimum 1): the run completes as long as the
        prediction brackets reality, and aborts — instead of running
        away — the moment the estimate was wrong by more than the
        headroom factor.  Unbounded predictions leave the corresponding
        limit unset; a ``None`` certificate yields an unlimited budget.
        This is the engine behind ``repro run --auto-budget``.
        """

        def cap(interval) -> Optional[int]:
            if interval is None or interval.hi is None:
                return None
            return max(int(interval.hi * headroom), 1)

        if cert is None:
            budget = Budget(deadline_seconds=deadline_seconds)
        else:
            budget = Budget(
                deadline_seconds=deadline_seconds,
                max_acc_executions=cap(cert.acc_executions),
                max_product_states=cap(cert.product_states),
                max_paths=cap(cert.paths),
                max_accum_bytes=cap(cert.accum_bytes),
            )
        return cls(budget=budget, token=token, clock=clock)

    # -- time and cancellation ----------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self.started

    def tick(self) -> None:
        """Cooperative checkpoint: abort on cancellation or deadline."""
        if self.token._flag:
            self._abort(AbortReason.CANCELLED, "cancel", None, None)
        deadline = self._deadline_at
        if deadline is not None and self._clock() >= deadline:
            self._abort(
                AbortReason.DEADLINE,
                "deadline_seconds",
                self.budget.deadline_seconds,
                round(self.elapsed(), 4),
            )

    def expire_deadline(self) -> None:
        """Force the deadline into the past (fault-injection hook): the
        next :meth:`tick` aborts with reason ``DEADLINE``."""
        self._deadline_at = self.started
        if self.budget.deadline_seconds is None:
            self.budget.deadline_seconds = 0.0

    # -- work charging -------------------------------------------------
    # The charge_* methods inline tick()'s checkpoint (cancel flag +
    # deadline) rather than calling it: they run once per BFS level /
    # block / loop iteration, and two extra Python calls per charge is
    # measurable against the <5% bar on the E1 kernel.
    def charge_acc_executions(self, n: int) -> None:
        self.acc_executions += n
        cap = self.budget.max_acc_executions
        if cap is not None and self.acc_executions > cap:
            self._abort(
                AbortReason.ACC_EXECUTIONS,
                "max_acc_executions",
                cap,
                self.acc_executions,
            )
        if self.token._flag:
            self._abort(AbortReason.CANCELLED, "cancel", None, None)
        deadline = self._deadline_at
        if deadline is not None and self._clock() >= deadline:
            self._abort(
                AbortReason.DEADLINE,
                "deadline_seconds",
                self.budget.deadline_seconds,
                round(self.elapsed(), 4),
            )

    def charge_product_states(self, n: int) -> None:
        self.product_states += n
        cap = self.budget.max_product_states
        if cap is not None and self.product_states > cap:
            self._abort(
                AbortReason.PRODUCT_STATES,
                "max_product_states",
                cap,
                self.product_states,
            )
        if self.token._flag:
            self._abort(AbortReason.CANCELLED, "cancel", None, None)
        deadline = self._deadline_at
        if deadline is not None and self._clock() >= deadline:
            self._abort(
                AbortReason.DEADLINE,
                "deadline_seconds",
                self.budget.deadline_seconds,
                round(self.elapsed(), 4),
            )

    def charge_paths(self, n: int = 1) -> None:
        self.paths += n
        cap = self.budget.max_paths
        if cap is not None and self.paths > cap:
            self._abort(AbortReason.PATHS, "max_paths", cap, self.paths)

    def note_while_iteration(self) -> None:
        self.while_iterations += 1
        self.tick()

    def check_memory(self, ctx: Any) -> None:
        """Estimate accumulator memory and abort when over budget.

        Only runs when ``max_accum_bytes`` is configured (the estimate
        walks every materialized instance, so it must not be free-run
        on unbudgeted queries); called at block boundaries.
        """
        cap = self.budget.max_accum_bytes
        if cap is None:
            return
        self.accum_bytes = estimate_accum_bytes(ctx)
        if self.accum_bytes > cap:
            self._abort(
                AbortReason.MEMORY, "max_accum_bytes", cap, self.accum_bytes
            )

    # -- degradation ---------------------------------------------------
    def note_downgrade(self, detail: str) -> None:
        """Record one enumeration→counting degradation (the block-level
        policy lives in :meth:`repro.core.block.SelectBlock`)."""
        self.downgrades += 1
        self.downgrade_details.append(detail)

    def note_soft_stop(self) -> None:
        self.soft_stops += 1

    # -- abort ---------------------------------------------------------
    def _abort(
        self,
        reason: AbortReason,
        limit_name: str,
        limit_value: Any,
        observed: Any,
    ) -> None:
        col = _exec.current().col
        if col is not None:
            col.count("governor.aborts")
            col.count(f"governor.abort.{reason.value}")
        detail = (
            f" (limit {limit_name}={limit_value}, observed {observed})"
            if limit_value is not None
            else ""
        )
        exc = QueryAbortedError(
            f"query aborted: {reason.value}{detail} "
            f"after {self.elapsed():.3f}s",
            reason=reason,
            limit_name=limit_name,
            limit_value=limit_value,
            observed=observed,
            elapsed_seconds=self.elapsed(),
        )
        self.aborted = exc
        raise exc

    # -- reporting -----------------------------------------------------
    def report_dict(self) -> Dict[str, Any]:
        """JSON-shaped governor report (embedded in ``repro.obs/1``
        profile documents under the ``governor`` key)."""
        doc: Dict[str, Any] = {
            "budget": self.budget.to_dict(),
            "elapsed_ms": round(self.elapsed() * 1000, 4),
            "acc_executions": self.acc_executions,
            "product_states": self.product_states,
            "paths": self.paths,
            "while_iterations": self.while_iterations,
            "accum_bytes": self.accum_bytes,
            "downgrades": self.downgrades,
            "downgrade_details": list(self.downgrade_details),
            "soft_stops": self.soft_stops,
            "cancelled": self.token.cancelled,
        }
        if self.aborted is not None:
            doc["aborted"] = {
                "reason": self.aborted.reason.value
                if isinstance(self.aborted.reason, AbortReason)
                else str(self.aborted.reason),
                "limit": self.aborted.limit_name,
                "limit_value": self.aborted.limit_value,
                "observed": self.aborted.observed,
            }
        else:
            doc["aborted"] = None
        return doc

    def report_line(self) -> str:
        """One-line ``GovernorReport`` for EXPLAIN ANALYZE text output."""
        def _cap(value: int, cap: Optional[int]) -> str:
            return f"{value:,}/{cap:,}" if cap is not None else f"{value:,}"

        b = self.budget
        status = (
            f"ABORTED reason={self.aborted.reason.value}"
            f" limit={self.aborted.limit_name}"
            if self.aborted is not None
            and isinstance(self.aborted.reason, AbortReason)
            else ("ABORTED" if self.aborted is not None else "ok")
        )
        parts = [
            f"GovernorReport: {status}",
            f"elapsed={self.elapsed() * 1000:.1f}ms",
            f"acc_execs={_cap(self.acc_executions, b.max_acc_executions)}",
            f"product_states={_cap(self.product_states, b.max_product_states)}",
            f"paths={_cap(self.paths, b.max_paths)}",
            f"while_iters={_cap(self.while_iterations, b.max_while_iterations)}",
            f"downgrades={self.downgrades}",
            f"soft_stops={self.soft_stops}",
        ]
        if b.deadline_seconds is not None:
            parts.insert(2, f"deadline={b.deadline_seconds}s")
        if b.max_accum_bytes is not None:
            parts.append(f"accum_bytes={self.accum_bytes:,}/{b.max_accum_bytes:,}")
        return "  ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ExecutionGovernor({self.budget!r})"


def active() -> Optional[ExecutionGovernor]:
    """The calling context's governor, or None when execution is
    ungoverned."""
    return _exec.current().gov


class govern:
    """Context manager activating a governor for the dynamic extent.

    ::

        gov = ExecutionGovernor(Budget(deadline_seconds=5.0))
        with govern(gov):
            query.run(graph)

    Nesting is allowed; the inner governor shadows the outer one and
    the outer is restored on exit (exception-safe).  Entering with
    ``None`` leaves execution ungoverned for the extent (useful to
    shield a sub-computation from an outer budget).  The binding is
    per-context (:mod:`repro._exec`): a governed extent in another
    thread or event-loop task charges its own governor, never this one.
    """

    def __init__(self, governor: Optional[ExecutionGovernor] = None):
        self.governor = governor
        self._token: Any = None

    def __enter__(self) -> Optional[ExecutionGovernor]:
        self._token = _exec.bind(gov=self.governor)
        return self.governor

    def __exit__(self, *exc_info: Any) -> None:
        _exec.reset(self._token)


__all__ = [
    "CancelToken",
    "ExecutionGovernor",
    "estimate_accum_bytes",
    "active",
    "govern",
]
