"""repro.server: a fault-tolerant query service over the engine.

The service stack, bottom-up:

* :mod:`repro.server.protocol` — request/outcome shapes, the outcome
  taxonomy with its HTTP-status and retryability mappings;
* :mod:`repro.server.retry` — bounded exponential backoff with seeded
  deterministic jitter;
* :mod:`repro.server.admission` — per-tenant admission control: budget
  classes, concurrency ceilings, bounded queue, load shedding;
* :mod:`repro.server.pool` — the worker pool (process or thread
  transport) with crash detection, respawn and straggler kill;
* :mod:`repro.server.service` — :class:`QueryService`, the
  admission -> dispatch -> retry -> outcome request lifecycle;
* :mod:`repro.server.app` — the stdlib blocking HTTP front end behind
  ``repro serve``: a handler thread carries each request from
  ``accept()`` through :meth:`QueryService.submit` to ``close()``.

See ``docs/robustness.md`` ("Service layer") for the threading model,
the admission model, the shed/abort taxonomy and the retry matrix.
"""

from .._lazy import exports as _exports

__all__ = [
    "AdmissionController",
    "BudgetClass",
    "Ticket",
    "default_classes",
    "WorkerPool",
    "execute_job",
    "HTTP_STATUS",
    "IngestRequest",
    "Job",
    "OutcomeKind",
    "QueryRequest",
    "RETRYABLE_ABORT_REASONS",
    "RETRYABLE_OUTCOMES",
    "is_retryable",
    "outcome",
    "taxonomy",
    "RetryPolicy",
    "QueryService",
]

__getattr__, __dir__ = _exports(__name__, {
    ".admission": (
        "AdmissionController", "BudgetClass", "Ticket", "default_classes",
    ),
    ".pool": ("WorkerPool", "execute_job"),
    ".protocol": (
        "HTTP_STATUS", "IngestRequest", "Job", "OutcomeKind", "QueryRequest",
        "RETRYABLE_ABORT_REASONS", "RETRYABLE_OUTCOMES", "is_retryable",
        "outcome", "taxonomy",
    ),
    ".retry": ("RetryPolicy",),
    ".service": ("QueryService",),
})
