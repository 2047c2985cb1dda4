"""Queries: parameters, statement sequences and control flow.

A :class:`Query` is a named sequence of statements — accumulator
declarations, vertex-set assignments, SELECT blocks, global-accumulator
updates, WHILE/IF control flow, PRINT and RETURN — mirroring a GSQL
``CREATE QUERY`` body (Figures 1-4 of the paper).
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from .. import _exec
from ..accum.base import Accumulator
from ..errors import QueryCompileError, QueryRuntimeError
from ..governor import faults as _faults
from ..graph.elements import Vertex
from ..graph.graph import Graph
from .block import SelectBlock
from .context import AccumDecl, QueryContext
from .exprs import EvalEnv, Expr
from .pattern import EngineMode
from .stmts import foreach_items
from .values import Table, VertexSet

#: Iteration ceiling for WHILE loops without an explicit LIMIT, so a
#: mis-specified convergence condition fails loudly instead of spinning.
DEFAULT_WHILE_CEILING = 10_000

#: Mandatory soft iteration cap for WHILE loops the dataflow pass flagged
#: as possibly non-terminating (E033): instead of rejecting the query,
#: the governor runs the loop up to this many iterations and soft-stops
#: with a warning.  An explicit ``Budget.max_while_iterations`` overrides
#: it.  See docs/robustness.md and docs/static_analysis.md.
GOVERNED_WHILE_CAP = 1_000


def limit_count(value: Any) -> int:
    """A LIMIT clause's value as a row count: an int >= 0 (not a bool)."""
    if type(value) is not int or value < 0:
        raise QueryRuntimeError(f"LIMIT needs an integer >= 0, got {value!r}")
    return value


class Statement:
    """Base class for query-body statements.

    ``span`` carries the statement's source range when the statement was
    parsed from GSQL text (None for programmatically built queries).
    :meth:`execute` runs a *lowered* statement (``repro.compile``): its
    expressions are :class:`~repro.compile.exprc.CompiledExpr` closures,
    called as ``expr.fn(env)``.
    """

    span = None

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        raise NotImplementedError


class DeclareAccum(Statement):
    """Declare an accumulator, optionally with an initial value.

    ``SumAccum<float> @score = 1`` declares a vertex accumulator whose
    fresh instances start at 1 — the factory wraps the initialization, so
    every lazily-created per-vertex instance starts there too.
    """

    def __init__(
        self,
        name: str,
        scope: str,
        factory: Callable[[], Accumulator],
        initial: Optional[Expr] = None,
        type_info: Any = None,
    ):
        self.name = name
        self.scope = scope
        self.base_factory = factory
        self.initial = initial
        #: Declared-type descriptor (:class:`repro.core.acctypes.AccumTypeInfo`)
        #: preserved by the GSQL parser for the static analyzer; None for
        #: programmatically built declarations.
        self.type_info = type_info

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        factory = self.base_factory
        if getattr(factory, "takes_context", False):
            # Factories whose construction depends on runtime parameters
            # (e.g. HeapAccum<T>(k, ...) with k a query parameter).
            factory = factory(ctx)
        if self.initial is not None:
            init_value = self.initial.fn(EvalEnv(ctx))
            base = factory

            def factory() -> Accumulator:
                acc = base()
                acc.assign(init_value)
                return acc

        ctx.declare(AccumDecl(self.name, self.scope, factory))


class SetAssign(Statement):
    """Vertex-set assignment: ``AllV = {Page.*}``, ``S = {param}``,
    ``S = OtherSet`` or ``S = SELECT v FROM ...``."""

    def __init__(self, name: str, source: Union[str, Sequence[str], SelectBlock]):
        self.name = name
        self.source = source

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        if not isinstance(self.source, (str, list, tuple)):  # a lowered SELECT
            result = self.source.execute(ctx, mode)
            if result is None:
                raise QueryCompileError(
                    f"the SELECT assigned to {self.name!r} must select a "
                    f"vertex variable"
                )
            ctx.set_vertex_set(self.name, result)
            return
        names = [self.source] if isinstance(self.source, str) else list(self.source)
        vset = VertexSet(ctx.graph)
        for name in names:
            base, star = (name[:-2], True) if name.endswith(".*") else (name, False)
            if star:
                for v in ctx.graph.vertices(None if base in ("_", "ANY") else base):
                    vset.add(v)
            elif base in ctx.vertex_sets:
                for v in ctx.vertex_sets[base]:
                    vset.add(v)
            elif base in ctx.params and isinstance(ctx.params[base], Vertex):
                vset.add(ctx.params[base])
            else:
                raise QueryRuntimeError(
                    f"cannot build a vertex set from {name!r}: not a "
                    f"'Type.*' pattern, vertex set, or vertex parameter"
                )
        ctx.set_vertex_set(self.name, vset)


class SetOpAssign(Statement):
    """Vertex-set algebra: ``S = A UNION B``, ``INTERSECT``, ``MINUS``.

    GSQL's set operators compose multi-block pipelines (frontier
    management, excluded-set subtraction) without leaving the language.
    """

    OPS = ("UNION", "INTERSECT", "MINUS")

    def __init__(self, name: str, left: str, op: str, right: str):
        op = op.upper()
        if op not in self.OPS:
            raise QueryCompileError(f"unknown set operator {op!r}")
        self.name = name
        self.left = left
        self.op = op
        self.right = right

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        left = ctx.vertex_set(self.left)
        right = ctx.vertex_set(self.right)
        result = VertexSet(ctx.graph)
        if self.op == "UNION":
            for v in left:
                result.add(v)
            for v in right:
                result.add(v)
        elif self.op == "INTERSECT":
            for v in left:
                if v in right:
                    result.add(v)
        else:  # MINUS
            for v in left:
                if v not in right:
                    result.add(v)
        ctx.set_vertex_set(self.name, result)


class RunBlock(Statement):
    """Execute a SELECT block, optionally assigning its vertex-set result."""

    def __init__(self, block: SelectBlock, assign_to: Optional[str] = None):
        self.block = block
        self.assign_to = assign_to

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        result = self.block.execute(ctx, mode)
        if self.assign_to is not None:
            if result is None:
                raise QueryCompileError(
                    f"block assigned to {self.assign_to!r} has no vertex-set "
                    f"result"
                )
            ctx.set_vertex_set(self.assign_to, result)


class GlobalAccumUpdate(Statement):
    """Statement-level ``@@acc = expr`` / ``@@acc += expr`` (immediate —
    outside query blocks there is no Map/Reduce phase to defer to)."""

    def __init__(self, name: str, op: str, expr: Expr):
        if op not in ("=", "+="):
            raise QueryCompileError("global accumulator updates use = or +=")
        self.name = name
        self.op = op
        self.expr = expr

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        value = self.expr.fn(EvalEnv(ctx))
        acc = ctx.global_accum(self.name)
        if self.op == "=":
            acc.assign(value)
        else:
            acc.combine(value)


class While(Statement):
    """``WHILE cond LIMIT n DO ... END`` (Figure 4's iteration primitive)."""

    #: Set by :func:`repro.core.tractable.attach_governor_caps` when the
    #: dataflow pass flags this loop as possibly non-terminating (E033).
    #: Flagged loops run under a mandatory soft iteration cap
    #: (:data:`GOVERNED_WHILE_CAP`) when execution is governed or the
    #: engine mode is AUTO, instead of being rejected outright.
    governed_cap = False

    def __init__(self, cond: Expr, body: List[Statement], limit: Optional[Expr] = None):
        self.cond = cond
        self.body = body
        self.limit = limit

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        gov = _exec.current().gov
        env = EvalEnv(ctx)
        if self.limit is not None:
            ceiling = limit_count(self.limit.fn(env))
        else:
            ceiling = DEFAULT_WHILE_CEILING
        # Degradation ladder, second rung: a soft iteration cap stops the
        # loop with a warning instead of aborting the query.  Active when
        # the budget sets max_while_iterations, or when the dataflow pass
        # flagged this loop (E033) and execution is governed / AUTO.
        soft_cap: Optional[int] = None
        if gov is not None and gov.budget.max_while_iterations is not None:
            soft_cap = gov.budget.max_while_iterations
        elif self.governed_cap and (
            gov is not None or mode.kind == EngineMode.AUTO
        ):
            soft_cap = GOVERNED_WHILE_CAP
        iterations = 0
        cond = self.cond.fn
        while bool(cond(env)):
            if soft_cap is not None and iterations >= soft_cap:
                self._soft_stop(gov, soft_cap)
                break
            if iterations >= ceiling:
                if self.limit is not None:
                    break
                raise QueryRuntimeError(
                    f"WHILE loop exceeded {DEFAULT_WHILE_CEILING} iterations "
                    f"without a LIMIT clause; assuming runaway condition"
                )
            if gov is not None:
                gov.note_while_iteration()
            if _faults._PLAN is not None:
                _faults.fire("while.iteration")
            for stmt in self.body:
                stmt.execute(ctx, mode)
            iterations += 1

    @staticmethod
    def _soft_stop(gov, soft_cap: int) -> None:
        warnings.warn(
            f"WHILE loop soft-stopped by the execution governor after "
            f"{soft_cap} iterations (possibly non-terminating loop); "
            f"results reflect the iterations completed so far",
            RuntimeWarning,
            stacklevel=3,
        )
        col = _exec.current().col
        if col is not None:
            col.count("governor.while_soft_stops")
        if gov is not None:
            gov.note_soft_stop()


class Foreach(Statement):
    """``FOREACH x IN collection DO ... END``.

    The collection expression may yield a vertex set, an accumulator's
    collection value (Set/Bag/List), or any tuple.  The loop variable is
    exposed to the body through the parameter namespace (shadowing any
    same-named parameter for the loop's duration).
    """

    def __init__(self, var: str, collection: Expr, body: List[Statement]):
        self.var = var
        self.collection = collection
        self.body = body

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        items = foreach_items(self.collection.fn(EvalEnv(ctx)))
        had_prior = self.var in ctx.params
        prior = ctx.params.get(self.var)
        gov = _exec.current().gov
        try:
            for item in items:
                if gov is not None:
                    gov.tick()  # cancellation/deadline check per iteration
                ctx.params[self.var] = item
                for stmt in self.body:
                    stmt.execute(ctx, mode)
        finally:
            if had_prior:
                ctx.params[self.var] = prior
            else:
                ctx.params.pop(self.var, None)


class If(Statement):
    """``IF cond THEN ... ELSE ... END``."""

    def __init__(
        self,
        cond: Expr,
        then: List[Statement],
        otherwise: Optional[List[Statement]] = None,
    ):
        self.cond = cond
        self.then = then
        self.otherwise = otherwise or []

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        branch = self.then if bool(self.cond.fn(EvalEnv(ctx))) else self.otherwise
        for stmt in branch:
            stmt.execute(ctx, mode)


class PrintItem:
    """One item of a PRINT statement: an expression with an alias."""

    def __init__(self, expr: Expr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias or repr(expr)


class PrintSetProjection:
    """``PRINT R[R.name, R.@acc]`` — project a vertex set into rows, the
    set name doubling as the per-vertex row variable (the Qn query of
    Section 7.1)."""

    def __init__(self, set_name: str, columns: List[PrintItem]):
        self.set_name = set_name
        self.columns = columns


class Print(Statement):
    def __init__(self, items: List[Union[PrintItem, PrintSetProjection]]):
        self.items = items

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        record: Dict[str, Any] = {}
        env = EvalEnv(ctx)
        for item in self.items:
            if isinstance(item, PrintSetProjection):
                vset = ctx.vertex_set(item.set_name)
                rows = []
                # The columns were lowered under a scope whose one slot
                # is the set name: the row is each vertex in turn.
                for vertex in vset:
                    env.row = (vertex,)
                    rows.append(
                        {col.alias: col.expr.fn(env) for col in item.columns}
                    )
                record[item.set_name] = rows
            else:
                record[item.alias] = item.expr.fn(env)
        ctx.printed.append(record)


class Return(Statement):
    """``RETURN expr`` — the query's return value (tables, sets, scalars)."""

    def __init__(self, expr: Expr):
        self.expr = expr

    def execute(self, ctx: QueryContext, mode: EngineMode) -> None:
        ctx.returned = self.expr.fn(EvalEnv(ctx))


class Parameter:
    """A query parameter: name, GSQL type name, optional default.

    ``vertex`` / ``vertex<Type>`` parameters accept a vertex id (resolved
    and type-checked against the graph at call time) or a Vertex.
    """

    def __init__(self, name: str, type_name: str = "ANY", default: Any = None):
        self.name = name
        self.type_name = type_name
        self.default = default

    @property
    def vertex_type(self) -> Optional[str]:
        t = self.type_name.lower()
        if t == "vertex":
            return "_"
        if t.startswith("vertex<") and t.endswith(">"):
            return self.type_name[7:-1]
        return None

    def resolve(self, graph: Graph, value: Any) -> Any:
        vtype = self.vertex_type
        if vtype is None:
            return value
        if isinstance(value, Vertex):
            vertex = value
        else:
            vertex = graph.vertex(value)
        if vtype != "_" and vertex.type != vtype:
            raise QueryRuntimeError(
                f"parameter {self.name!r} expects a {vtype} vertex, got "
                f"{vertex.type}:{vertex.vid}"
            )
        return vertex


class QueryResult:
    """Everything a query execution produced."""

    def __init__(self, ctx: QueryContext):
        self._ctx = ctx
        self.tables: Dict[str, Table] = dict(ctx.tables)
        self.printed: List[Dict[str, Any]] = list(ctx.printed)
        self.returned: Any = ctx.returned
        self.vertex_sets: Dict[str, VertexSet] = dict(ctx.vertex_sets)

    def table(self, name: str) -> Table:
        return self._ctx.table(name)

    def global_accum(self, name: str) -> Any:
        return self._ctx.global_accum(name).value

    def vertex_accum(self, name: str) -> Dict[Any, Any]:
        """Materialized per-vertex values of one vertex accumulator."""
        return dict(self._ctx.vertex_accum_values(name))

    @property
    def context(self) -> QueryContext:
        return self._ctx


class Query:
    """A parsed query, runnable against any compatible graph."""

    def __init__(
        self,
        name: str,
        statements: List[Statement],
        params: Optional[List[Parameter]] = None,
        graph_name: Optional[str] = None,
    ):
        self.name = name
        self.statements = statements
        self.params = params or []
        self.graph_name = graph_name
        #: Original GSQL text when the query came from the parser; lets
        #: diagnostics render caret-underlined source excerpts.
        self.source: Optional[str] = None
        #: ((schema, QueryModel), ...) memo of the two most recent
        #: schemas, filled by :func:`repro.analysis.model.cached_model` —
        #: one model build shared by validate/tractable/lint instead of
        #: three.
        self._analysis_cache: Optional[tuple] = None
        #: Whole-query :class:`~repro.core.tractable.CostCertificate`
        #: stamped by :func:`~repro.core.tractable.
        #: attach_cost_certificates` (None until its first reader stamps).
        self.cost_certificate = None
        #: Bumped by :meth:`invalidate_analysis`; compiled plans capture
        #: the epoch at lowering time, so a bump makes every plan built
        #: from this query *stale* and the plan cache drops it on lookup.
        self._analysis_epoch: int = 0
        #: The plan :meth:`run` executes through, lowered on first use
        #: and re-lowered once stale.  Unlocked on purpose: concurrent
        #: first runs may each lower, every plan is valid, one is kept.
        self._plan = None

    def invalidate_analysis(self) -> None:
        """Drop the cached analysis model and invalidate compiled plans
        (call after mutating the AST)."""
        self._analysis_cache = None
        self._analysis_epoch += 1

    def run(
        self,
        graph: Graph,
        mode: Optional[EngineMode] = None,
        tables: Optional[Dict[str, Table]] = None,
        subqueries: Optional[Dict[str, "Query"]] = None,
        **param_values: Any,
    ) -> QueryResult:
        """Execute against ``graph`` through this query's lowered plan
        (see :meth:`repro.compile.CompiledQuery.run` for the arguments).
        """
        plan = self._plan
        if plan is None or plan.stale:
            from ..compile.lowering import compile_query

            plan = self._plan = compile_query(self)
        return plan.run(
            graph, mode=mode, tables=tables, subqueries=subqueries, **param_values
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        params = ", ".join(f"{p.type_name} {p.name}" for p in self.params)
        return f"Query({self.name}({params}), {len(self.statements)} statements)"


__all__ = [
    "Statement",
    "DeclareAccum",
    "SetAssign",
    "RunBlock",
    "GlobalAccumUpdate",
    "While",
    "If",
    "Print",
    "PrintItem",
    "PrintSetProjection",
    "Return",
    "Parameter",
    "Query",
    "QueryResult",
    "DEFAULT_WHILE_CEILING",
    "GOVERNED_WHILE_CAP",
    "limit_count",
]
