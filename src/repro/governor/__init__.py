"""Execution governance: budgets, deadlines, cancellation, chaos.

``repro.governor`` turns query execution into a managed, interruptible
workload.  A per-query :class:`ExecutionGovernor` carries a
:class:`Budget` (wall-clock deadline, acc-execution cap, product-state
cap, materialized-path cap, accumulator-memory estimate, WHILE
iteration cap) and a cooperative :class:`CancelToken`; the engine's hot
loops charge work into whichever governor is active and abort with a
structured :class:`~repro.errors.QueryAbortedError` — or degrade
gracefully where the paper's tractability results permit (certified
blocks downgrade enumeration to counting; flagged WHILE loops
soft-stop).  See ``docs/robustness.md``.

:mod:`repro.governor.faults` is the deterministic fault-injection
harness used by the chaos suite.
"""

from .._lazy import exports as _exports

__all__ = [
    "AbortReason",
    "Budget",
    "CancelToken",
    "ExecutionGovernor",
    "active",
    "estimate_accum_bytes",
    "govern",
    "faults",
]

__getattr__, __dir__ = _exports(__name__, {
    ".budget": ("AbortReason", "Budget"),
    ".governor": (
        "CancelToken", "ExecutionGovernor", "active", "estimate_accum_bytes",
        "govern",
    ),
})
