"""ACCUM / POST_ACCUM statements and their snapshot execution.

The ACCUM clause executes once per binding-table row under **snapshot
semantics** (Section 4.3): every execution reads the accumulator values as
they were at block entry (the Map phase merely *generates inputs*), and
the generated inputs are folded into the accumulators only after all
executions finished (the Reduce phase).  This module holds the clause
AST, the input buffer whose :meth:`~InputBuffer.flush` is the Reduce
phase (the weighted variant is the Appendix A trick that turns a row
with multiplicity μ into a single ``combine_weighted(value, μ)`` call)
and the POST_ACCUM driver.  What a statement *does* is described once:
:func:`repro.compile.lowering.compile_accum_clause` lowers either clause
to the same kernel, which ACCUM binds to the input buffer and POST_ACCUM
(:func:`run_post_accum`) to a buffer whose ``=`` takes effect at once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .. import _exec
from ..accum.base import Accumulator
from ..errors import QueryCompileError, QueryRuntimeError
from .context import QueryContext
from .exprs import EvalEnv, Expr, primed_accum_names, referenced_names
from .pattern import _join_key


class AccumTarget:
    """The left-hand side of an ACCUM statement: ``@@name`` or ``v.@name``."""

    def __init__(self, name: str, base: Optional[Expr] = None):
        self.name = name
        self.base = base  # None => global accumulator

    @property
    def is_global(self) -> bool:
        return self.base is None

    def referenced_names(self) -> Iterator[str]:
        if self.base is not None:
            yield from referenced_names(self.base)

    def __repr__(self) -> str:
        if self.base is None:
            return f"@@{self.name}"
        return f"{self.base!r}.@{self.name}"


class AccStatement:
    """Base class of statements allowed in ACCUM/POST_ACCUM clauses."""

    def referenced_names(self) -> Iterator[str]:
        raise NotImplementedError

    def primed_names(self) -> Iterator[str]:
        raise NotImplementedError


class LocalAssign(AccStatement):
    """An ACCUM-local variable: ``FLOAT salesPrice = ...`` or a re-bind."""

    def __init__(self, name: str, expr: Expr, type_name: Optional[str] = None):
        self.name = name
        self.expr = expr
        self.type_name = type_name

    def referenced_names(self) -> Iterator[str]:
        yield from referenced_names(self.expr)

    def primed_names(self) -> Iterator[str]:
        yield from primed_accum_names(self.expr)

    def __repr__(self) -> str:
        return f"{self.name} = {self.expr!r}"


class AccumUpdate(AccStatement):
    """``target += expr`` (combine) or ``target = expr`` (assign)."""

    def __init__(self, target: AccumTarget, op: str, expr: Expr):
        if op not in ("+=", "="):
            raise QueryCompileError(f"accumulator statements use += or =, not {op!r}")
        self.target = target
        self.op = op
        self.expr = expr

    def referenced_names(self) -> Iterator[str]:
        yield from self.target.referenced_names()
        yield from referenced_names(self.expr)

    def primed_names(self) -> Iterator[str]:
        yield from primed_accum_names(self.expr)

    def __repr__(self) -> str:
        return f"{self.target!r} {self.op} {self.expr!r}"


class AttributeUpdate(AccStatement):
    """``v.attr = expr`` in POST_ACCUM: persist a computed value into a
    vertex attribute (how GSQL algorithms write results back to the
    graph, e.g. storing final PageRank scores).

    Only allowed in POST_ACCUM — inside ACCUM, concurrent acc-executions
    for the same vertex would race on the attribute.
    """

    def __init__(self, base: Expr, attr: str, expr: Expr):
        self.base = base
        self.attr = attr
        self.expr = expr

    def referenced_names(self) -> Iterator[str]:
        yield from referenced_names(self.base)
        yield from referenced_names(self.expr)

    def primed_names(self) -> Iterator[str]:
        yield from primed_accum_names(self.expr)

    def __repr__(self) -> str:
        return f"{self.base!r}.{self.attr} = {self.expr!r}"


class AccumIf(AccStatement):
    """``IF cond THEN ... [ELSE ...] END`` inside an ACCUM/POST_ACCUM
    clause: conditionally generate accumulator inputs per acc-execution.

    Snapshot semantics carry through unchanged — the condition and both
    branches read block-entry accumulator values, and any ``+=`` inputs
    the taken branch generates are buffered for the Reduce phase exactly
    like top-level clause statements.
    """

    def __init__(
        self,
        cond: Expr,
        then: List["AccStatement"],
        otherwise: Optional[List["AccStatement"]] = None,
    ):
        self.cond = cond
        self.then = then
        self.otherwise = otherwise or []

    def referenced_names(self) -> Iterator[str]:
        yield from referenced_names(self.cond)
        for stmt in self.then + self.otherwise:
            yield from stmt.referenced_names()

    def primed_names(self) -> Iterator[str]:
        yield from primed_accum_names(self.cond)
        for stmt in self.then + self.otherwise:
            yield from stmt.primed_names()

    def __repr__(self) -> str:
        then = ", ".join(map(repr, self.then))
        tail = f" ELSE {', '.join(map(repr, self.otherwise))}" if self.otherwise else ""
        return f"IF {self.cond!r} THEN {then}{tail} END"


class AccumForeach(AccStatement):
    """``FOREACH x IN collection DO ... END`` inside an ACCUM/POST_ACCUM
    clause: fold every element of a collection-valued expression (a
    ListAccum's entries, a map, a split string) within one acc-execution.

    The loop variable is an acc-execution-local binding that shadows any
    same-named local for the loop's duration.
    """

    def __init__(self, var: str, collection: Expr, body: List["AccStatement"]):
        self.var = var
        self.collection = collection
        self.body = body

    def referenced_names(self) -> Iterator[str]:
        yield from referenced_names(self.collection)
        for stmt in self.body:
            yield from stmt.referenced_names()

    def primed_names(self) -> Iterator[str]:
        yield from primed_accum_names(self.collection)
        for stmt in self.body:
            yield from stmt.primed_names()

    def __repr__(self) -> str:
        body = ", ".join(map(repr, self.body))
        return f"FOREACH {self.var} IN {self.collection!r} DO {body} END"


class InputBuffer:
    """The Map-phase output: buffered accumulator inputs.

    ``adds`` pairs each accumulator instance with (value, multiplicity)
    inputs; ``sets`` records plain assignments.  :meth:`flush` is the
    Reduce phase: assignments first (deterministically, in generation
    order), then weighted combines, then the private copies the Map
    kernel folded inputs into early (:meth:`fold_privately`) replace their
    live accumulators; ``folded`` counts those inputs.
    """

    def __init__(self) -> None:
        self._adds: List[Tuple[Accumulator, Any, int]] = []
        self._sets: List[Tuple[Accumulator, Any]] = []
        self._private: Dict[int, Tuple[Accumulator, Accumulator]] = {}
        self.folded = 0

    def add(self, acc: Accumulator, value: Any, multiplicity: int) -> None:
        self._adds.append((acc, value, multiplicity))

    def set(self, acc: Accumulator, value: Any, multiplicity: int = 1) -> None:
        self._sets.append((acc, value))  # μ copies of an assignment are one

    def fold_privately(self, acc: Accumulator) -> Accumulator:
        """The private copy of ``acc`` (taken once) the Map kernel folds
        ``+=`` inputs into at once; never for one the block assigns."""
        entry = self._private.get(id(acc))
        if entry is None:
            entry = self._private[id(acc)] = (acc, acc.copy())
        return entry[1]

    def flush(self) -> None:
        col = _exec.current().col
        if col is not None and (self._sets or self._adds or self.folded):
            # Batched: one count per Reduce phase, not per input.
            col.count("accum.assigns", len(self._sets))
            col.count("accum.combine_weighted", len(self._adds) + self.folded)
        for acc, value in self._sets:
            acc.assign(value)
        # The bound method is fetched once per run of consecutive inputs
        # to one accumulator instance (the dominant shape: one global
        # accumulator, or per-vertex inputs grouped by row order).
        last_acc = None
        combine = None
        for acc, value, multiplicity in self._adds:
            if acc is not last_acc:
                combine = acc.combine_weighted
                last_acc = acc
            combine(value, multiplicity)
        for live, private in self._private.values():
            vars(live).update(vars(private))  # publish the private state
        self.clear()

    def clear(self) -> None:
        """Discard all buffered inputs without applying them.

        Abort paths call this so a failed Map phase releases its scratch
        partials: under snapshot semantics the live accumulators were
        never touched, and clearing the buffer guarantees nothing can
        flush later either.
        """
        self._adds.clear()
        self._sets.clear()
        self._private.clear()
        self.folded = 0

    def __len__(self) -> int:
        return len(self._adds) + len(self._sets) + self.folded


def foreach_items(value: Any) -> List[Any]:
    """The elements a FOREACH iterates: a map's (key, value) pairs, or
    any iterable's items."""
    if isinstance(value, dict):
        return list(value.items())
    try:
        return list(value)
    except TypeError:
        raise QueryRuntimeError(
            f"FOREACH needs an iterable, got {type(value).__name__}"
        ) from None


class _PostAccumBuffer(InputBuffer):
    """POST_ACCUM's sink: ``+=`` inputs are buffered for the end of the
    clause like any other, a plain assignment takes effect at once."""

    def set(self, acc: Accumulator, value: Any, multiplicity: int = 1) -> None:
        acc.assign(value)


def run_post_accum(
    statements: List[Tuple[Callable, List[int]]],
    ctx: QueryContext,
    rows: List,
    primed: Dict[str, Dict[Any, Any]],
) -> None:
    """Execute a POST_ACCUM clause of ``(kernel binder, dependency
    slots)`` pairs, one per top-level statement — the row slots of the
    pattern variables the statement references (its kernel is lowered
    under the block's scope by ``compile_accum_clause``).

    Statement-major, once per *distinct* binding of those variables
    (GSQL's POST-ACCUM is per-vertex, not per-row — multiplicities do
    not apply).  Plain assignments take effect immediately (so later
    statements observe them, as PageRank's ``v.@score = ...`` /
    ``abs(v.@score - v.@score')`` sequence requires); ``+=`` inputs are
    buffered and folded in after the whole clause, which keeps the phase
    order-invariant.
    """
    ec = _exec.current()
    col = ec.col
    buffer = _PostAccumBuffer()
    env = EvalEnv(ctx, None, None, primed)
    for bind, deps in statements:
        executions = _distinct_projections(rows, deps)
        if col is not None:
            col.count("block.post_accum_executions", len(executions))
        run = bind(ctx, buffer)  # clears the locals per execution
        for values in executions:
            env.row = values
            run(env, 1)
    if ec.san is not None:
        # No block handle here: divergences become detections, never
        # violations (POST_ACCUM += is per-distinct-vertex, so the
        # permuted replay is still meaningful).
        ec.san.check_flush(None, buffer)
    buffer.flush()


def _distinct_projections(rows: List, slots: List[int]) -> List[Tuple[Any, ...]]:
    """One representative row (its values) per distinct projection of the
    binding rows onto ``slots`` — the first, in row order.

    With no slots the statement is global and executes exactly once
    (provided the binding table is non-empty).
    """
    if not slots:
        return [rows[0][0]] if rows else []
    seen = set()
    out: List[Tuple[Any, ...]] = []
    only = slots[0] if len(slots) == 1 else None
    for values, _ in rows:
        if only is not None:  # the per-vertex statement: no key tuple
            key = _join_key(values[only])
        else:
            key = tuple([_join_key(values[slot]) for slot in slots])
        if key in seen:
            continue
        seen.add(key)
        out.append(values)
    return out


def collect_primed_names(statements: List[AccStatement]) -> set:
    names = set()
    for stmt in statements:
        names.update(stmt.primed_names())
    return names


def walk_acc_statements(statements: List[AccStatement]) -> Iterator[AccStatement]:
    """Every statement in a clause, recursing into IF/FOREACH bodies.

    The old validator iterated only the top level, which silently skipped
    nested statement lists — the analyzer walks through this instead.
    """
    for stmt in statements:
        yield stmt
        if isinstance(stmt, AccumIf):
            yield from walk_acc_statements(stmt.then)
            yield from walk_acc_statements(stmt.otherwise)
        elif isinstance(stmt, AccumForeach):
            yield from walk_acc_statements(stmt.body)


__all__ = [
    "AccumTarget",
    "AccStatement",
    "LocalAssign",
    "AccumUpdate",
    "AccumIf",
    "AccumForeach",
    "AttributeUpdate",
    "InputBuffer",
    "foreach_items",
    "run_post_accum",
    "collect_primed_names",
    "walk_acc_statements",
]
