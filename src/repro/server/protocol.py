"""Request/outcome shapes shared by the query service's layers.

Everything that crosses a boundary — HTTP handler to admission
controller, dispatcher to worker process, service back to client — is
expressed here as plain dict/namedtuple data so the process pool can
pickle it and the HTTP layer can JSON it without translation glue.

The **outcome taxonomy** is the service's abort contract: every request
terminates in exactly one :class:`OutcomeKind`, each kind maps to one
HTTP status (:data:`HTTP_STATUS`) and one retryability verdict
(:func:`is_retryable`).  ``docs/robustness.md`` carries the same table;
``tests/test_golden.py`` pins it against the golden
``tests/golden/server.json`` so it cannot drift silently.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, NamedTuple, Optional

from ..core.values import Table, VertexSet
from ..governor.budget import AbortReason
from ..graph.elements import Vertex


class OutcomeKind(enum.Enum):
    """Every terminal state a service request can reach."""

    # Terminal results after dispatch.
    OK = "ok"
    LINT_ERROR = "lint-error"            # parse/compile/analysis error
    RUNTIME_ERROR = "runtime-error"      # engine QueryRuntimeError
    ABORTED = "aborted"                  # governor budget/deadline abort
    PARALLEL_SAFETY = "parallel-safety"  # E040-class certificate refusal
    SANITIZER = "sanitizer-violation"    # AccSan caught a wrong certificate
    FAULT = "injected-fault"             # engine-site chaos fault surfaced
    WORKER_CRASHED = "worker-crashed"    # worker died; retries exhausted
    STRAGGLER = "straggler-timeout"      # worker exceeded its deadline
    DEADLINE_AT_DISPATCH = "deadline-at-dispatch"  # expired in the queue
    # Admission-control outcomes (never dispatched).
    SHED_QUEUE_FULL = "shed-queue-full"
    SHED_CLASS_LIMIT = "shed-class-limit"
    SHED_TENANT_LIMIT = "shed-tenant-limit"
    SHED_DRAINING = "shed-draining"
    #: Static cost screen: the query's predicted cost (CostCertificate
    #: upper bound) exceeds its budget class's caps.  Not retryable —
    #: resubmitting the same query to the same class predicts the same
    #: breach; the client must pick a roomier class or change the query.
    PREDICTED_OVER_BUDGET = "predicted-over-budget"
    #: Mutation-path rejection (``POST /ingest``): the batch conflicts
    #: with the graph's current state — deleting something that does not
    #: exist, changing a vertex's type, a schema violation.  Not
    #: retryable as-is: the batch was rejected atomically (nothing
    #: applied, nothing logged), and resubmitting it unchanged conflicts
    #: again; the client must correct the batch.
    CONFLICT = "conflict"
    # Protocol-level failures.
    BAD_REQUEST = "bad-request"
    INTERNAL = "internal-error"


#: OutcomeKind -> HTTP status code.
HTTP_STATUS: Dict[OutcomeKind, int] = {
    OutcomeKind.OK: 200,
    OutcomeKind.BAD_REQUEST: 400,
    OutcomeKind.LINT_ERROR: 400,
    OutcomeKind.RUNTIME_ERROR: 422,
    OutcomeKind.ABORTED: 422,            # deadline aborts override to 504
    OutcomeKind.PARALLEL_SAFETY: 422,
    OutcomeKind.SANITIZER: 500,
    OutcomeKind.FAULT: 500,
    OutcomeKind.WORKER_CRASHED: 502,
    OutcomeKind.STRAGGLER: 504,
    OutcomeKind.DEADLINE_AT_DISPATCH: 504,
    OutcomeKind.SHED_QUEUE_FULL: 429,
    OutcomeKind.SHED_CLASS_LIMIT: 429,
    OutcomeKind.SHED_TENANT_LIMIT: 429,
    OutcomeKind.SHED_DRAINING: 503,
    OutcomeKind.PREDICTED_OVER_BUDGET: 422,
    OutcomeKind.CONFLICT: 409,
    OutcomeKind.INTERNAL: 500,
}

#: Outcomes a client (or the dispatcher, for crashes) may retry: the
#: failure is *transient* — caused by load or infrastructure, not by the
#: query — and queries are read-only, so a re-run is idempotent.
RETRYABLE_OUTCOMES = frozenset({
    OutcomeKind.WORKER_CRASHED,
    OutcomeKind.STRAGGLER,
    OutcomeKind.DEADLINE_AT_DISPATCH,
    OutcomeKind.FAULT,
    OutcomeKind.SHED_QUEUE_FULL,
    OutcomeKind.SHED_CLASS_LIMIT,
    OutcomeKind.SHED_TENANT_LIMIT,
    OutcomeKind.SHED_DRAINING,
})

#: Governor abort reasons that are transient (load-induced) rather than
#: deterministic.  A paths/acc-executions/memory breach will recur on
#: every retry with the same budget — never retried; a deadline abort
#: or an injected fault may not.
RETRYABLE_ABORT_REASONS = frozenset({
    AbortReason.DEADLINE.value,
    AbortReason.FAULT.value,
})


def is_retryable(kind: OutcomeKind, abort_reason: Optional[str] = None) -> bool:
    """The retry matrix: may this outcome be retried at all?

    ``abort_reason`` refines ``ABORTED`` outcomes (the
    :class:`~repro.governor.AbortReason` value string).  Analysis
    errors, sanitizer violations and parallel-safety refusals are never
    retryable — rerunning cannot change a static verdict.
    """
    if kind is OutcomeKind.ABORTED:
        return abort_reason in RETRYABLE_ABORT_REASONS
    return kind in RETRYABLE_OUTCOMES


class QueryRequest(NamedTuple):
    """One client request, normalized by the HTTP layer (or a test)."""

    query_text: str
    graph: str = "default"
    params: Dict[str, Any] = {}
    tenant: str = "anonymous"
    budget_class: str = "interactive"
    deadline_seconds: Optional[float] = None
    engine: str = "counting"
    request_id: str = ""


class Job(NamedTuple):
    """One unit of work shipped to a pool worker (must pickle)."""

    request_id: str
    query_text: str
    graph: str
    params: Dict[str, Any]
    engine: str
    budget: Dict[str, Any]
    attempt: int = 1
    #: The epoch pinned at admission when the graph lives in a
    #: :class:`~repro.graph.mutation.GraphStore`: the worker runs
    #: against exactly this version, so a batch committing mid-query
    #: never changes the query's result (snapshot isolation).  ``None``
    #: means "the live version" (plain graphs, process workers).
    graph_epoch: Optional[int] = None
    #: The service's ``cost_screen_enabled`` switch: when set, the worker
    #: prices the plan against the version it is about to run and
    #: refuses a provable budget breach (``PREDICTED_OVER_BUDGET``)
    #: instead of executing it.  A job built without it runs unscreened
    #: and leaves its budget to the governor.
    cost_screen: bool = False


class IngestRequest(NamedTuple):
    """One mutation-batch request (``POST /ingest``), normalized by the
    HTTP layer (or a test).  ``ops`` holds the operation documents of a
    :class:`~repro.graph.mutation.MutationBatch`."""

    ops: Any
    graph: str = "default"
    tenant: str = "anonymous"
    budget_class: str = "interactive"
    deadline_seconds: Optional[float] = None
    request_id: str = ""


def outcome(
    kind: OutcomeKind,
    request_id: str = "",
    attempts: int = 1,
    retry_after_ms: Optional[int] = None,
    **payload: Any,
) -> Dict[str, Any]:
    """Build the terminal response document for one request.

    The same dict is the HTTP response body (JSON) and the return value
    of :meth:`repro.server.service.QueryService.submit`, so tests and
    clients read one shape.
    """
    doc: Dict[str, Any] = {
        "outcome": kind.value,
        "request_id": request_id,
        "attempts": attempts,
        "retryable": is_retryable(
            kind, (payload.get("abort") or {}).get("reason")
        ),
        "http_status": http_status(kind, payload.get("abort")),
    }
    if retry_after_ms is not None:
        doc["retry_after_ms"] = retry_after_ms
    doc.update(payload)
    return doc


def http_status(kind: OutcomeKind, abort: Optional[Dict[str, Any]] = None) -> int:
    """HTTP status for an outcome; deadline aborts read as 504."""
    if kind is OutcomeKind.ABORTED and abort is not None:
        if abort.get("reason") == AbortReason.DEADLINE.value:
            return 504
    return HTTP_STATUS[kind]


def jsonify(value: Any) -> Any:
    """Best-effort JSON shaping for engine values.

    Tables become ``{"columns": [...], "rows": [[...]]}``, vertices
    their ``name`` attribute (falling back to the vid), containers
    recurse, everything else unknown falls back to ``str``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Table):
        return {
            "columns": list(value.columns),
            "rows": [[jsonify(cell) for cell in row] for row in value.rows],
        }
    if isinstance(value, Vertex):
        name = value.get("name")
        return name if name is not None else str(value.vid)
    if isinstance(value, VertexSet):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [jsonify(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    return str(value)


def taxonomy() -> Dict[str, Dict[str, Any]]:
    """The full outcome surface (kind -> status/retryable), sorted —
    docs and ``tests/test_golden.py`` pin this."""
    return {
        kind.value: {
            "http_status": HTTP_STATUS[kind],
            "retryable": is_retryable(kind),
        }
        for kind in sorted(OutcomeKind, key=lambda k: k.value)
    }


__all__ = [
    "OutcomeKind",
    "HTTP_STATUS",
    "RETRYABLE_OUTCOMES",
    "RETRYABLE_ABORT_REASONS",
    "is_retryable",
    "QueryRequest",
    "IngestRequest",
    "Job",
    "outcome",
    "http_status",
    "jsonify",
    "taxonomy",
]
