"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type to handle all library failures.  Sub-hierarchies
mirror the package layout: schema/graph errors, DARPE parse errors, query
compilation/execution errors and accumulator errors.
"""

from __future__ import annotations

from . import _exec


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ReentrantActivationError(ReproError):
    """Raised when the :mod:`repro.governor.faults` plan is activated
    from one thread while another thread's activation is still live.

    The fault plan is the one engine binding that is process-wide by
    design — one thread arms it, every thread fires it — so a
    cross-thread re-activation would swap the armed sites out from under
    a running chaos scenario; this error makes that loud.  Same-thread
    nesting still stacks cleanly (inner shadows outer, outer restored on
    exit).  The collector, governor and sanitizer are per-context
    (:mod:`repro._exec`) and cannot collide, so they never raise this.

    ``subsystem``
        Which binding was contended (``"governor.faults"``).
    ``owner_thread`` / ``thread``
        The ``threading.get_ident()`` of the thread holding the
        activation and of the thread that attempted to re-activate.
    """

    def __init__(self, subsystem: str, owner_thread: int, thread: int):
        self.subsystem = subsystem
        self.owner_thread = owner_thread
        self.thread = thread
        super().__init__(
            f"{subsystem} is already active on thread {owner_thread}; "
            f"thread {thread} must not re-activate it (arm one plan "
            "around the threads that fire it, or run the scenario in "
            "its own worker process)"
        )


class SchemaError(ReproError):
    """Raised for violations of a graph schema.

    Examples: adding a vertex of an undeclared type, adding an edge whose
    endpoint types are not allowed by the edge type, or redefining a type.
    """


class GraphError(ReproError):
    """Raised for structural graph errors (unknown vertex ids, etc.)."""


class MutationError(GraphError):
    """Raised by the mutation subsystem (:mod:`repro.graph.mutation`)
    for failures that are *not* per-operation conflicts: applying to a
    store poisoned by a crash between WAL commit and publish (it needs
    :func:`~repro.graph.mutation.recover_graph` first), or a committed
    WAL record that no longer replays against its base graph.
    """


class MutationConflictError(MutationError):
    """Raised when a :class:`~repro.graph.mutation.MutationBatch` is
    rejected by validation — deleting a vertex or edge that does not
    exist, an edge upsert whose endpoint is missing, a type or
    directedness change, or a schema violation.

    The whole batch is rejected atomically (nothing was applied and
    nothing was logged), so the batch can be corrected and resubmitted.
    ``index`` is the 0-based offending operation's position in the
    batch and ``op`` its normalized document (``None`` for batch-level
    conflicts).
    """

    def __init__(self, message: str, index: int = -1, op: object = None):
        self.index = index
        self.op = op
        super().__init__(message)


class WalCorruptionError(ReproError):
    """Raised when a write-ahead log cannot be read back consistently:
    a checksum mismatch, torn record or undecodable payload *before*
    the final segment's tail.  A torn tail (the expected shape of a
    crash mid-append) is not an error — recovery truncates it; anything
    earlier means lost committed records, which must be loud.

    ``segment`` names the damaged segment file and ``offset`` the byte
    offset of the first unreadable record.
    """

    def __init__(self, message: str, segment: str = "", offset: int = -1):
        self.segment = segment
        self.offset = offset
        super().__init__(message)


class DarpeSyntaxError(ReproError):
    """Raised when a DARPE string cannot be parsed.

    Carries the offending ``text`` and the ``position`` of the first
    character that could not be consumed.
    """

    def __init__(self, message: str, text: str = "", position: int = -1):
        self.text = text
        self.position = position
        if text and position >= 0:
            pointer = " " * position + "^"
            message = f"{message}\n  {text}\n  {pointer}"
        super().__init__(message)


class GSQLSyntaxError(ReproError):
    """Raised when GSQL query text cannot be parsed."""

    def __init__(self, message: str, line: int = -1, column: int = -1):
        self.line = line
        self.column = column
        #: The message without its ``line L, col C:`` prefix.
        self.detail = message
        if line >= 0:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)


class QueryCompileError(ReproError):
    """Raised when a syntactically valid query cannot be compiled.

    Examples: reference to an undeclared accumulator, unknown vertex type,
    an edge variable attached to a multi-edge DARPE, or a pattern variable
    used in an incompatible position.
    """


class QueryRuntimeError(ReproError):
    """Raised when query execution fails (type errors, missing attributes,
    division by zero inside an expression, exceeding iteration limits...).

    ``counters`` snapshots the active observability collector at raise
    time, so a failed query carries the same telemetry as a successful
    one (empty dict when no collector is installed).
    """

    def __init__(self, *args: object):
        super().__init__(*args)
        self.counters: dict = _snapshot_counters()


def _snapshot_counters() -> dict:
    """Copy of the active obs collector's counters (at raise time)."""
    col = _exec.current().col
    return dict(col.counters) if col is not None else {}


class QueryAbortedError(QueryRuntimeError):
    """Raised by the execution governor when a query exceeds its
    :class:`~repro.governor.Budget` or its cancel token is triggered.

    Structured so callers can react programmatically:

    ``reason``
        An :class:`~repro.governor.AbortReason` member (deadline,
        cancelled, acc-executions, product-states, paths,
        accumulator-memory, injected-fault).
    ``limit_name`` / ``limit_value``
        Which budget limit was breached and its configured value.
    ``observed``
        The tally that breached the limit.
    ``elapsed_seconds``
        Wall-clock time since the governor started.
    ``counters``
        Partial obs counters at abort time (inherited behaviour).
    """

    def __init__(
        self,
        message: str,
        reason: object = None,
        limit_name: str = "",
        limit_value: object = None,
        observed: object = None,
        elapsed_seconds: float = 0.0,
    ):
        super().__init__(message)
        self.reason = reason
        self.limit_name = limit_name
        self.limit_value = limit_value
        self.observed = observed
        self.elapsed_seconds = elapsed_seconds


class ParallelSafetyError(QueryRuntimeError):
    """Raised by :func:`repro.core.parallel.parallel_accum` when asked to
    partition an ACCUM clause whose effect certificate does not prove the
    updates commutative.

    Running anyway would be *silently* nondeterministic — different
    thread interleavings fold inputs in different orders — so the engine
    refuses with the analysis verdict attached:

    ``status``
        The :class:`~repro.core.tractable.DeterminismStatus` value
        (``"order-dependent"`` or ``"unknown"``).
    ``witnesses``
        The per-accumulator algebra facts the verdict rests on.
    """

    def __init__(self, message: str, status: str = "", witnesses: tuple = ()):
        super().__init__(message)
        self.status = status
        self.witnesses = tuple(witnesses)


class AccSanViolation(QueryRuntimeError):
    """Raised by the accumulator sanitizer (:mod:`repro.accsan`) when a
    block certified COMMUTATIVE produces schedule-dependent results.

    This means the static effect analysis stamped a wrong certificate (or
    a user-registered accumulator lied about order invariance) — the
    exact bug class AccSan exists to catch.  Structured for test
    harnesses and bug reports:

    ``block_label``
        Human-readable identity of the SELECT block being replayed.
    ``accumulator``
        The ``@name``/``@@name`` whose replay diverged.
    ``schedule``
        The 0-based index of the permuted schedule that diverged.
    ``expected_digest`` / ``observed_digest``
        Canonical value digests under the original and permuted order.
    """

    def __init__(
        self,
        message: str,
        block_label: str = "",
        accumulator: str = "",
        schedule: int = -1,
        expected_digest: str = "",
        observed_digest: str = "",
    ):
        super().__init__(message)
        self.block_label = block_label
        self.accumulator = accumulator
        self.schedule = schedule
        self.expected_digest = expected_digest
        self.observed_digest = observed_digest


class AccumulatorError(ReproError):
    """Raised for invalid accumulator usage.

    Examples: inputting a value of the wrong type, conflicting plain
    assignments during one reduce phase, or constructing a HeapAccum with
    an unknown sort field.
    """


class TractabilityError(ReproError):
    """Raised when a query falls outside the tractable class of Section 7
    and the engine was configured to reject such queries.

    The tractable class disallows path variables, variables bound inside a
    Kleene star, and order-sensitive accumulators (List/Array/string-Sum)
    fed from patterns with unbounded repetition.
    """


class EvaluationBudgetExceeded(ReproError):
    """Raised by enumeration-based engines when a configured budget
    (maximum number of enumerated paths or expanded search nodes) is
    exhausted.

    The enumeration baselines are intentionally exponential; the budget
    turns a would-be multi-hour run into a clean, reportable failure,
    mirroring the timeouts in the paper's Table 1.
    """

    def __init__(self, message: str, expanded: int = 0):
        self.expanded = expanded
        super().__init__(message)


class WorkerCrashed(ReproError):
    """Raised inside the query service (:mod:`repro.server.pool`) when a
    pool worker dies mid-query — the process was killed, its pipe hit
    EOF, or (thread mode) a crash fault poisoned it.

    The dispatcher converts this into a structured ``worker-crashed``
    outcome (HTTP 502) after exhausting the bounded retry policy;
    sibling workers are unaffected and the crashed worker is respawned.
    """

    def __init__(self, message: str, worker: str = ""):
        self.worker = worker
        super().__init__(message)


class InjectedFault(ReproError):
    """Raised by the deterministic fault-injection harness
    (:mod:`repro.governor.faults`) when an armed injection site fires.

    Carries the ``site`` name and the 0-based ``hit`` index at which the
    injection fired, so chaos tests can assert exactly where execution
    was cut down.
    """

    def __init__(self, message: str, site: str = "", hit: int = -1):
        self.site = site
        self.hit = hit
        super().__init__(message)


# ----------------------------------------------------------------------
# Process exit-code taxonomy
# ----------------------------------------------------------------------
# One table shared by every CLI entry point (run / profile / lint /
# check / validate / serve) and by the service job runner, so a shell
# script, a CI job and an HTTP client all read the same contract.  The
# doc-drift test (tests/test_errors.py) parses the tables in README.md
# and docs/robustness.md and asserts they match this catalog, the same
# way ``repro.analysis.rules.catalog_codes`` pins the diagnostic codes.

#: Successful completion.
EXIT_OK = 0
#: Usage, I/O, parse or lint/analysis error (bad flags, unreadable
#: file, GSQL syntax error, error-severity diagnostics).
EXIT_USAGE = 1
#: The execution governor aborted the query (budget breach, deadline,
#: cancellation) — a structured :class:`QueryAbortedError`.
EXIT_ABORT = 2
#: The accumulator sanitizer found a certificate violation
#: (:class:`AccSanViolation`).
EXIT_ACCSAN = 3
#: The query failed while it ran: any other :class:`ReproError` its
#: execution raised (a :class:`QueryRuntimeError` such as a missing
#: attribute, an :class:`AccumulatorError`, ...).
EXIT_RUNTIME = 4

#: code -> (name, meaning).  Insertion order is display order.
EXIT_CODES = {
    EXIT_OK: ("ok", "query/command completed"),
    EXIT_USAGE: ("usage-or-lint", "usage, I/O, parse or lint/analysis error"),
    EXIT_ABORT: ("governor-abort", "execution governor aborted the query"),
    EXIT_ACCSAN: ("accsan-violation", "sanitizer caught a certificate violation"),
    EXIT_RUNTIME: ("query-runtime-error", "the query raised an error while it ran"),
}


def exit_code_catalog():
    """The ``(code, name, meaning)`` rows of the exit-code taxonomy,
    sorted by code — docs and the drift test consume this."""
    return [(code, name, meaning) for code, (name, meaning) in sorted(EXIT_CODES.items())]
