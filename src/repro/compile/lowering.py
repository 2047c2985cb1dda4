"""Lowering: analyzed queries to their executable form.

:func:`compile_query` turns a parsed (and certificate-stamped) ``Query``
into a :class:`CompiledQuery` — the one form the engine executes
(``Query.run`` lowers on first use and runs the result).  In it

* every expression is a :class:`~repro.compile.exprc.CompiledExpr`
  closure (constant subtrees folded at lowering time) built under the
  :class:`~repro.core.exprs.Scope` of its clause: a pattern variable is
  a fixed slot of the binding row (``pattern.variables()`` order), an
  ACCUM-local or a declared parameter is known as such, and only the
  rest is looked up by name when a row evaluates it;
* every SELECT block is a :class:`CompiledBlock` — the block executor,
  output emission included — that precomputes, once, the
  filter-pushdown split, the primed-snapshot name set, the POST_ACCUM
  per-statement dependency slots, the output closures, and a **fused
  ACCUM map kernel**: a two-stage closure (``bind(ctx, buffer) -> row_fn(env, μ)``,
  or with ``table=True`` one table-level entry per block)
  whose bind stage resolves accumulator instances and buffer methods
  once per block execution instead of once per row (a POST_ACCUM
  statement is the same kernel from the same lowering).  Each phase of
  an execution runs its closures under one ``EvalEnv`` re-pointed at
  each row.

The original ``Query`` object is left untouched and remains the target
of static analysis; a lowered block reads its source block's clauses
and certificates and never writes them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import _exec
from ..accum.algebra import classify
from ..accum.heap import _ORDERED, HeapAccum
from ..core.block import SelectBlock
from ..core.context import QueryContext
from ..core.exprs import (
    NO_SCOPE,
    AttrRef,
    Binary,
    EvalEnv,
    Expr,
    Literal,
    NameRef,
    Scope,
    primed_accum_names,
)
from ..core.pattern import BindingRow, EngineMode, evaluate_pattern
from ..core.planner import push_down_filters, select_engine
from ..core.query import (
    DeclareAccum,
    Foreach,
    GlobalAccumUpdate,
    If,
    Print,
    PrintItem,
    PrintSetProjection,
    Query,
    QueryResult,
    Return,
    RunBlock,
    SetAssign,
    Statement,
    While,
    limit_count,
)
from ..core.stmts import (
    AccStatement,
    AccumForeach,
    AccumIf,
    AccumUpdate,
    AttributeUpdate,
    InputBuffer,
    LocalAssign,
    collect_primed_names,
    foreach_items,
    run_post_accum,
    walk_acc_statements,
)
from ..core.tractable import TractabilityStatus
from ..core.values import Table, VertexSet
from ..errors import QueryRuntimeError, TractabilityError
from ..governor import faults as _faults
from ..graph.elements import Vertex
from ..paths.semantics import PathSemantics
from .exprc import CompileStats, compile_closure, compile_expr


# ----------------------------------------------------------------------
# Accumulator-clause kernel (ACCUM and POST_ACCUM)
# ----------------------------------------------------------------------
# A kernel is built in two stages so per-execution state binds exactly
# once: ``compile_accum_clause`` runs at compile time and returns a
# *binder*; the executor calls ``binder(ctx, sink)`` once per clause
# execution, which resolves accumulator instances / family factories /
# sink methods and picks the per-row function ``run(env, μ)`` — or, with
# ``table=True``, the clause's table-level entry ``run_rows(env, rows)``,
# which the block executor calls once per block.  The bind
# stage needs ``global_accum`` / ``vertex_accum_resolver`` from its first
# argument and ``add`` / ``set`` from its second (a plain ``InputBuffer``
# also folds a top-k heap early), so one kernel serves three sinks: the
# block's ``InputBuffer``, a ``parallel_accum`` worker's private scratch,
# and POST_ACCUM's buffer, whose ``=`` is immediate.  The clause kind
# (``post``) decides three leaves only: which of ``LocalAssign`` /
# ``AttributeUpdate`` the clause admits (the other rejects when an
# execution reaches it) and the AccSan event label.

_Binder = Callable[[QueryContext, InputBuffer], Callable[[EvalEnv, int], None]]


def _clause_scope(scope: Scope, statements: List[AccStatement]) -> Scope:
    """``scope`` plus the names the clause's own statements may bind:
    local assignments and FOREACH variables, at any nesting depth."""
    names = set(scope.locals)
    for stmt in walk_acc_statements(statements):
        if isinstance(stmt, LocalAssign):
            names.add(stmt.name)
        elif isinstance(stmt, AccumForeach):
            names.add(stmt.var)
    return scope.with_locals(names) if names else scope


def compile_accum_clause(
    statements: List[AccStatement],
    decl_types: Dict[str, Any],
    stats: CompileStats,
    scope: Scope,
    post: bool = False,
) -> Optional[_Binder]:
    """The clause's kernel binder, its expressions lowered under
    ``scope`` (the row layout the kernel's environments will carry).
    ``post`` is the clause kind: an ACCUM clause, or a POST_ACCUM one
    (whose kernels do not count in ``stats.kernels``)."""
    if not statements:
        return None
    clause_scope = _clause_scope(scope, statements)
    assigned = frozenset(  # globals it also assigns: the Reduce assigns first
        s.target.name for s in walk_acc_statements(statements)
        if isinstance(s, AccumUpdate) and s.op == "=" and s.target.is_global
    )
    binders = [
        _compile_acc_statement(s, decl_types, stats, clause_scope, post, assigned)
        for s in statements
    ]
    if not post:
        stats.kernels += 1
    binds_locals = clause_scope is not scope
    # A lone global update binds its own table-level entry: for ``+=``
    # into a heap on the early-reject path, the heap fold.
    lone_global = (
        not binds_locals and len(statements) == 1
        and isinstance(statements[0], AccumUpdate) and statements[0].target.is_global
    )

    def bind(ctx: QueryContext, buffer: InputBuffer, table: bool = False):
        if table and lone_global:
            return binders[0](ctx, buffer, table=True)
        runs = [b(ctx, buffer) for b in binders]
        if not binds_locals and len(runs) == 1:
            run_all = runs[0]
        else:
            def run_all(env: EvalEnv, multiplicity: int) -> None:
                if binds_locals:
                    env.locals.clear()
                for run in runs:
                    run(env, multiplicity)

        return _over_rows(run_all) if table else run_all

    return bind


def _over_rows(run: Callable[[EvalEnv, int], None]):
    """The table-level entry over a row function: ``run_rows(env, rows)``
    re-points ``env`` at each binding row and runs it."""
    def run_rows(env: EvalEnv, rows: List[BindingRow]) -> None:
        for values, multiplicity in rows:
            env.row = values
            run(env, multiplicity)

    return run_rows


def _compile_acc_statement(
    stmt: AccStatement, decl_types: Dict[str, Any], stats: CompileStats,
    scope: Scope, post: bool, assigned: frozenset = frozenset(),
) -> _Binder:
    if isinstance(stmt, LocalAssign) and not post:
        name = stmt.name
        value_fn, _ = compile_closure(stmt.expr, stats, scope)

        def bind_local(ctx, buffer):
            def run(env: EvalEnv, multiplicity: int) -> None:
                env.locals[name] = value_fn(env)

            return run

        return bind_local
    if isinstance(stmt, AccumUpdate):
        return _compile_accum_update(stmt, decl_types, stats, scope, post, assigned)
    if isinstance(stmt, AccumIf):
        cond_fn, _ = compile_closure(stmt.cond, stats, scope)
        then_binders = [
            _compile_acc_statement(s, decl_types, stats, scope, post, assigned)
            for s in stmt.then
        ]
        else_binders = [
            _compile_acc_statement(s, decl_types, stats, scope, post, assigned)
            for s in stmt.otherwise
        ]

        def bind_if(ctx, buffer):
            then_runs = [b(ctx, buffer) for b in then_binders]
            else_runs = [b(ctx, buffer) for b in else_binders]

            def run(env: EvalEnv, multiplicity: int) -> None:
                for inner in (then_runs if cond_fn(env) else else_runs):
                    inner(env, multiplicity)

            return run

        return bind_if
    if isinstance(stmt, AccumForeach):
        coll_fn, _ = compile_closure(stmt.collection, stats, scope)
        var = stmt.var
        body_binders = [
            _compile_acc_statement(s, decl_types, stats, scope, post, assigned)
            for s in stmt.body
        ]

        def bind_foreach(ctx, buffer):
            body_runs = [b(ctx, buffer) for b in body_binders]

            def run(env: EvalEnv, multiplicity: int) -> None:
                items = foreach_items(coll_fn(env))
                locals_ = env.locals
                had_prior = var in locals_
                prior = locals_.get(var)
                try:
                    for item in items:
                        locals_[var] = item
                        for inner in body_runs:
                            inner(env, multiplicity)
                finally:
                    if had_prior:
                        locals_[var] = prior
                    else:
                        locals_.pop(var, None)

            return run

        return bind_foreach
    if isinstance(stmt, AttributeUpdate) and post:
        attr = stmt.attr
        base_fn, _ = compile_closure(stmt.base, stats, scope)
        value_fn, _ = compile_closure(stmt.expr, stats, scope)

        def bind_attribute(ctx, buffer):
            graph = ctx.graph
            schema = graph.schema

            def run(env: EvalEnv, multiplicity: int) -> None:
                vertex = base_fn(env)
                if not isinstance(vertex, Vertex):
                    raise QueryRuntimeError(
                        f"attribute assignment needs a vertex, got "
                        f"{type(vertex).__name__}"
                    )
                value = value_fn(env)
                if schema is not None:
                    decl = schema.vertex_type(vertex.type).attributes.get(attr)
                    if decl is None:
                        raise QueryRuntimeError(
                            f"vertex type {vertex.type!r} has no attribute "
                            f"{attr!r}"
                        )
                    decl.validate(value)
                graph.set_vertex_attr(vertex, attr, value)

            return run

        return bind_attribute
    if isinstance(stmt, LocalAssign):
        message = (
            "local variables are not allowed in POST_ACCUM "
            "(each statement runs per distinct vertex)"
        )
    elif isinstance(stmt, AttributeUpdate):
        message = (
            "attribute assignments are only allowed in POST_ACCUM "
            "(in ACCUM, acc-executions for the same vertex would race)"
        )
    else:
        message = f"unknown {'POST_ACCUM' if post else 'ACCUM'} statement {stmt!r}"

    def bind_reject(ctx, buffer):
        def run(env: EvalEnv, multiplicity: int) -> None:
            raise QueryRuntimeError(message)

        return run

    return bind_reject


def _compile_accum_update(
    stmt: AccumUpdate, decl_types: Dict[str, Any], stats: CompileStats,
    scope: Scope, post: bool, assigned: frozenset = frozenset(),
) -> _Binder:
    """One ``target += expr`` / ``target = expr`` row function.

    The op-algebra row for the target's declared type is looked up once
    here (PR 5's table) — recorded in the kernel catalog and counted as
    a pre-resolved combine.  The bind stage then resolves the instance
    (global) or a family resolver (vertex) and picks the row function, its
    write the one record-and-sink tail (:func:`_writer`): the per-row path
    has no branch on the sanitizer, the operator or the instance.
    """
    name = stmt.target.name
    op = stmt.op
    value_fn, _ = compile_closure(stmt.expr, stats, scope)
    algebra = classify(decl_types.get(name))
    if algebra is not None:
        stats.combines_preresolved += 1
    target = stmt.target  # kept, with the clause, for AccSan event attribution
    phase = "post_accum" if post else "accum"
    early_reject = op == "+=" and name not in assigned

    if stmt.target.is_global:
        def bind_global(ctx, buffer, table=False):
            san = _exec.current().san
            write = _writer(buffer, san, phase, target, op)
            try:  # a parallel worker's scratch makes its instance on first use
                acc = ctx.global_accum(name) if isinstance(ctx, QueryContext) else None
            except QueryRuntimeError:  # undeclared: raises once a row runs
                acc = None
            if acc is None:
                def run(env: EvalEnv, multiplicity: int) -> None:
                    value = value_fn(env)
                    write(ctx.global_accum(name), value, multiplicity)

            elif (
                early_reject and san is None and type(buffer) is InputBuffer
                and isinstance(acc, HeapAccum)
            ):
                # Fold into a block-private copy at once, in the order the
                # Reduce would: an input the full copy cannot take leaves no
                # buffered triple and costs no combine call — most are
                # dropped on one raw comparison of their first sort field.
                fold = _heap_fold(buffer.fold_privately(acc), value_fn, buffer)
                if table:
                    return fold

                def run(env: EvalEnv, multiplicity: int) -> None:
                    fold(env, ((env.row, multiplicity),))

            else:
                def run(env: EvalEnv, multiplicity: int) -> None:
                    write(acc, value_fn(env), multiplicity)

            return _over_rows(run) if table else run

        return bind_global

    base_fn, _ = compile_closure(stmt.target.base, stats, scope)

    def bind_vertex(ctx, buffer):
        write = _writer(buffer, _exec.current().san, phase, target, op)
        resolve = ctx.vertex_accum_resolver(name)

        def run(env: EvalEnv, multiplicity: int) -> None:
            value = value_fn(env)
            vertex = base_fn(env)
            if not isinstance(vertex, Vertex):
                raise QueryRuntimeError(
                    f"accumulator @{name} addressed through non-vertex "
                    f"{type(vertex).__name__}"
                )
            write(resolve(vertex.vid), value, multiplicity)

        return run

    return bind_vertex


def _heap_fold(heap: HeapAccum, value_fn: Callable[[EvalEnv], Any], buffer: InputBuffer):
    """The heap statement's table-level entry, ``run_rows(env, rows)``:
    one loop that folds each row's input into ``heap``, the block-private
    copy, in row order, and adds the rows to ``buffer.folded`` once.  The
    test that drops most inputs — :meth:`HeapAccum.rejects`' comparison
    of the first sort field against a full heap's worst tuple, with every
    sort value ordered — is inlined; any other input goes to ``rejects``
    and ``insert``, which decide it or raise.  A multiplicity of 0 or
    less goes to ``combine_weighted``: nothing, or its error."""
    rejects, insert = heap.rejects, heap.insert
    combine = heap.combine_weighted
    entries, capacity = heap._heap, heap.capacity  # inserts push in place
    (first, asc), fields, arity = heap._key_spec[0], heap._fields, heap._arity

    def run_rows(env: EvalEnv, rows: List[BindingRow]) -> None:
        # Only an insert changes the heap: its fullness and worst first
        # field are read again after one, not per row.
        full = len(entries) == capacity
        worst = entries[0][1][first] if full else None
        for values, multiplicity in rows:
            env.row = values
            value = value_fn(env)
            if multiplicity <= 0:
                combine(value, multiplicity)  # nothing, or its error
                continue
            if full and type(value) is tuple and len(value) == arity:
                key = value[first]
                try:
                    worse = (worst < key) if asc else (key < worst)
                except TypeError:
                    worse = False
                if worse:
                    for i in fields:
                        v = value[i]
                        if type(v) not in _ORDERED or v != v:
                            break
                    else:
                        continue  # dropped: strictly worse on the first field
            if not rejects(value):
                insert(value, multiplicity)
                full = len(entries) == capacity
                worst = entries[0][1][first] if full else None
        buffer.folded += len(rows)

    return run_rows


def _writer(buffer: InputBuffer, san: Any, phase: str, target: Any, op: str):
    """The record-and-sink tail of a write, ``write(acc, value, μ)``: the
    sink's own ``add`` / ``set``, or with a sanitizer bound a wrapper that
    records the write first."""
    sink = buffer.add if op == "+=" else buffer.set
    if san is None:
        return sink

    def write(acc: Any, value: Any, multiplicity: int) -> None:
        san.record(phase, target, acc, op, value)
        sink(acc, value, multiplicity)

    return write


# ----------------------------------------------------------------------
# Compiled SELECT block
# ----------------------------------------------------------------------

_COMPARISONS = frozenset(("==", "!=", "<", "<=", ">", ">="))


def lower_pushed_filter(
    expr: Expr, stats: Optional[CompileStats], scope: Scope
) -> Expr:
    """A pushed-down conjunct lowered under its variable's one-slot
    ``scope``, tagged ``compare = (attr, op, operand closure)`` when it is
    ``var.attr <op> operand`` with a comparison ``op`` and a literal or
    declared-parameter operand — the shape the hop kernel's bind stage
    tests inline (``repro.core.pattern._bind_filters``)."""
    lowered = compile_expr(expr, stats, scope)
    if not (isinstance(expr, Binary) and expr.op in _COMPARISONS):
        return lowered
    attr, operand = expr.left, expr.right
    bound = isinstance(operand, Literal) or (
        isinstance(operand, NameRef)
        and operand.name in scope.params
        and operand.name not in scope.slots
    )
    if bound and isinstance(attr, AttrRef) and scope.slot_of(attr.base) == 0:
        lowered.compare = (attr.attr, expr.op, operand.closure(scope)[0])
    return lowered


def _vertex_variables(pattern) -> set:
    """The pattern variables only a vertex can bind: hop targets and the
    sources of chains with hops, less any variable a hop binds to an edge
    or a hop-free chain binds (which may scan a relational table)."""
    vertices, others = set(), set()
    for chain in pattern.chains:
        if not chain.hops:
            others.update(chain.variables())
            continue
        vertices.add(chain.source.var)
        for hop in chain.hops:
            vertices.add(hop.target.var)
            others.add(hop.edge_var)
    return vertices - others


class CompiledBlock:
    """The executable form of a SELECT block: the one block executor.

    One execution runs, in order: governor tick, AUTO resolution,
    degradation ladder, tractability check, primed capture, pattern
    span, residual WHERE span, acc-execution charge, per-row fault site,
    Map/Reduce spans, AccSan replay, POST_ACCUM, memory check,
    fragments, vertex-set span.  The planning that does not depend on
    the execution (pushdown split, primed-name collection, POST_ACCUM
    dependency analysis, the slot of every pattern variable, one closure
    per output column, GROUP BY key, HAVING, ORDER BY key and LIMIT)
    happens here, once, at lowering time.  ``block`` is the source
    :class:`~repro.core.block.SelectBlock`: the planner, AccSan and the
    error messages read its clauses and certificates.  ``outer`` is the
    scope around the block — the query's declared parameters; WHERE,
    ACCUM, POST_ACCUM and the outputs are lowered under it extended with
    the pattern's slots, a pushed-down filter and the vertex-set ORDER BY
    under a scope whose one slot is their variable, LIMIT under ``outer``
    itself.
    """

    def __init__(self, block: SelectBlock, decl_types: Dict[str, Any],
                 stats: CompileStats, outer: Scope = NO_SCOPE):
        self.block = block
        variables = block.pattern.variables()
        scope = outer.over(variables)

        def lower(expr: Expr, under: Scope = scope) -> Callable[[EvalEnv], Any]:
            return compile_expr(expr, stats, under).fn

        # Per INTO fragment: its table name, column aliases, one closure
        # per column, and whether it aggregates (GROUP BY or an aggregate
        # call) or projects each row.
        self._fragments = [
            (
                fragment.into,
                tuple(col.alias for col in fragment.columns),
                [lower(col.expr) for col in fragment.columns],
                fragment.has_aggregates() or bool(block.group_by),
            )
            for fragment in block.fragments
        ]
        self._order_by = [(lower(expr), desc) for expr, desc in block.order_by]
        self._group_by = [lower(expr) for expr in block.group_by]
        self._having = lower(block.having) if block.having is not None else None
        self._limit = (
            lower(block.limit, outer) if block.limit is not None else None
        )

        slots = scope.slots
        self._select_slot = slots.get(block.select_var)
        self._select_vertex = block.select_var in _vertex_variables(block.pattern)
        # The vertex-set result sorts its distinct vertices, not rows:
        # its keys see the SELECT variable alone (not counted in the
        # lowering statistics — the clause was, just above).
        self._set_order_by: List[Tuple[Callable[[EvalEnv], Any], bool]] = []
        if block.select_var is not None and block.order_by:
            select_scope = outer.over((block.select_var,))
            self._set_order_by = [
                (compile_expr(expr, None, select_scope).fn, desc)
                for expr, desc in block.order_by
            ]

        # Pushdown split, once (so the planner.pushdown_* counters are
        # charged per lowering, not per execution).  The per-variable
        # filters keep their closures prebuilt, each under the one-slot
        # scope the hop kernel's bind stage (repro.core.pattern) runs
        # them in, and comparisons carry their tag.
        var_filters, residual_conjuncts = push_down_filters(
            block.where, set(variables)
        )
        self._var_filters = {
            var: [lower_pushed_filter(f, stats, outer.over((var,))) for f in filters]
            for var, filters in var_filters.items()
        }
        kept: List[Callable[[EvalEnv], Any]] = []
        for conjunct in residual_conjuncts:
            fn, const = compile_closure(conjunct, stats, scope)
            if const and fn(None) is True:
                # A conjunct folded to constant True filters nothing:
                # drop it from the residual entirely.
                stats.conjuncts_dropped += 1
                continue
            stats.exprs += 1
            kept.append(fn)
        self._residual_fns = kept

        names = collect_primed_names(block.accum) | collect_primed_names(
            block.post_accum
        )
        for expr in block._all_output_exprs():
            names.update(primed_accum_names(expr))
        self._primed_names = frozenset(names)

        # The fused Map kernel.
        self._map_bind = compile_accum_clause(
            block.accum, decl_types, stats, scope
        )

        # POST_ACCUM runs statement-major: one kernel per top-level
        # statement, lowered under the whole clause's scope, with the slots
        # of the pattern variables it depends on (in variable-name order).
        post_scope = _clause_scope(scope, block.post_accum)
        self._post_stmts: List[Tuple[_Binder, List[int]]] = [
            (
                compile_accum_clause(
                    [stmt], decl_types, stats, post_scope, post=True
                ),
                [
                    slots[n]
                    for n in sorted(set(stmt.referenced_names()) & set(slots))
                ],
            )
            for stmt in block.post_accum
        ]

        stats.blocks += 1
        stats.catalog.append({
            "pattern": repr(block.pattern),
            "pushdown_vars": sorted(self._var_filters),
            "residual_conjuncts": len(kept),
            "folded_conjuncts": len(residual_conjuncts) - len(kept),
            "map_kernel": bool(self._map_bind),
            "post_accum_statements": len(self._post_stmts),
            "primed_snapshots": sorted(self._primed_names),
        })

    def _capture_primed(self, ctx: QueryContext) -> Dict[str, Dict[Any, Any]]:
        snapshots: Dict[str, Dict[Any, Any]] = {}
        for name in self._primed_names:
            if name.startswith("@@"):
                snapshots[name] = {None: ctx.snapshot_global_accum(name[2:])}
            else:
                snapshots[name] = ctx.snapshot_vertex_accum(name)
        return snapshots

    def execute(self, ctx: QueryContext, mode: EngineMode):
        ec = _exec.current()
        col = ec.col
        if col is None:
            return self._execute(ctx, mode, ec)
        span = col.span(
            "select_block", label=f"SELECT  FROM {self.block.pattern!r}"
        )
        try:
            return self._execute(ctx, mode, ec)
        finally:
            col.close(span)

    def _execute(self, ctx: QueryContext, mode: EngineMode, ec):
        block = self.block
        col = ec.col
        gov = ec.gov
        if gov is not None:
            gov.tick()
        if block.semantics is not None:
            mode = mode.for_semantics(block.semantics)
        if mode.kind == EngineMode.AUTO:
            mode = select_engine(block, ctx, mode)
            if col is not None:
                col.count(f"block.engine.{mode.kind}")
        if gov is not None:
            mode = self._maybe_downgrade(mode, gov, col)
        self._check_tractability(ctx, mode)
        primed = self._capture_primed(ctx)

        if col is not None:
            pattern_span = col.span("pattern")
        try:
            table = evaluate_pattern(ctx, block.pattern, mode, self._var_filters)
        finally:
            if col is not None:
                col.close(pattern_span)
        rows = table.rows
        if col is not None:
            # Appendix A in two numbers: compressed size vs. the
            # conceptual (path-weighted) size it stands in for.
            multiplicity = table.total_multiplicity()
            pattern_span.set(rows=len(rows), multiplicity=multiplicity)
            col.count("block.binding_rows", len(rows))
            col.count("block.binding_multiplicity", multiplicity)
        residual_fns = self._residual_fns
        if residual_fns:
            before = len(rows)
            if col is not None:
                where_span = col.span("where", rows_in=before)
            try:
                env = EvalEnv(ctx, None, None, primed)
                kept = []
                for row in rows:
                    env.row = row[0]
                    for fn in residual_fns:
                        if not fn(env):
                            break
                    else:
                        kept.append(row)
            finally:
                if col is not None:
                    col.close(where_span)
            rows = kept
            if col is not None:
                where_span.set(rows_out=len(rows))
                col.count("block.rows_filtered_residual", before - len(rows))

        if self._map_bind is not None:
            if gov is not None:
                # One acc-execution per compressed row — charged up front
                # so a breached cap aborts before any Map work runs.
                gov.charge_acc_executions(len(rows))
            if col is not None:
                map_span = col.span("accum_map", statements=len(block.accum))
            buffer = InputBuffer()
            env = EvalEnv(ctx, None, None, primed)
            # A fault plan fires once per row: the row function then.
            kernel = self._map_bind(ctx, buffer, table=_faults._PLAN is None)
            try:
                try:
                    if _faults._PLAN is None:
                        kernel(env, rows)  # the clause's table-level entry
                    else:
                        for values, multiplicity in rows:
                            _faults.fire("block.accum_map")
                            env.row = values
                            kernel(env, multiplicity)
                finally:
                    if col is not None:
                        # One acc-execution per *compressed* row — the count
                        # that stays flat while path multiplicities explode.
                        map_span.set(acc_executions=len(rows))
                        col.count("block.acc_executions", len(rows))
                        col.close(map_span)
                if col is not None:
                    reduce_span = col.span("accum_reduce", inputs=len(buffer))
                try:
                    if _faults._PLAN is not None:
                        _faults.fire("block.reduce")
                    if ec.san is not None:
                        # Replay the buffered inputs under permuted
                        # schedules *before* the real flush mutates the
                        # live accumulators.
                        ec.san.check_flush(block, buffer)
                    buffer.flush()
                finally:
                    if col is not None:
                        col.close(reduce_span)
            except BaseException:
                # Any failure between Map start and Reduce end releases
                # the scratch partials: snapshot semantics means the live
                # accumulators were untouched until flush() completed.
                buffer.clear()
                raise

        if self._post_stmts:
            if _faults._PLAN is not None:
                _faults.fire("block.post_accum")
            if col is not None:
                post_span = col.span(
                    "post_accum", statements=len(block.post_accum)
                )
            try:
                run_post_accum(self._post_stmts, ctx, rows, primed)
            finally:
                if col is not None:
                    col.close(post_span)

        if gov is not None:
            gov.check_memory(ctx)

        for fragment in self._fragments:
            self._emit_fragment(ctx, fragment, rows, primed)

        if block.select_var is None:
            return None
        if col is not None:
            set_span = col.span("vertex_set")
        try:
            result = self._vertex_set_result(ctx, rows, primed)
        finally:
            if col is not None:
                col.close(set_span)
        if col is not None:
            set_span.set(vertices=len(result))
        return result

    def _maybe_downgrade(self, mode: EngineMode, gov, col) -> EngineMode:
        """Degradation ladder, first rung: enumeration → counting.

        When the active governor caps materialized paths and this block
        carries a conclusive TRACTABLE certificate, enumeration under a
        counting-compatible semantics is *provably* replaceable by the
        polynomial engine (Theorems 6.1/7.1): same aggregate answer, no
        path materialization.  The governor downgrades pre-emptively —
        before the first path is materialized — instead of letting the
        query burn its budget and die.  Uncertified blocks are left to
        enumerate (and abort on breach): without the certificate the
        engines are not guaranteed to agree.
        """
        if (
            mode.kind != EngineMode.ENUMERATION
            or gov.budget.max_paths is None
            or mode.semantics
            not in (PathSemantics.ALL_SHORTEST, PathSemantics.EXISTENCE)
        ):
            return mode
        cert = self.block.certificate
        if cert is None or cert.status is not TractabilityStatus.TRACTABLE:
            return mode
        gov.note_downgrade(
            f"SELECT FROM {self.block.pattern!r}: enumeration downgraded to "
            f"counting (certified tractable, max_paths="
            f"{gov.budget.max_paths})"
        )
        if col is not None:
            col.count("planner.governor_downgrade")
        return EngineMode.counting(
            max_length=mode.max_length, semantics=mode.semantics
        )

    def _check_tractability(self, ctx: QueryContext, mode: EngineMode) -> None:
        """Reject order-dependent accumulation from Kleene patterns.

        Such queries fall outside the tractable class of Section 7: a
        binding with multiplicity μ would have to deposit μ list entries,
        re-creating the exponential blow-up the compressed binding table
        avoids.  (The enumeration engine materializes paths anyway, so the
        combination is permitted there.)
        """
        block = self.block
        if mode.kind != EngineMode.COUNTING or not block.pattern.has_kleene():
            return
        cert = block.certificate
        if cert is not None:
            if cert.status is TractabilityStatus.TRACTABLE:
                return  # statically proven: skip the declaration probe
            if cert.status is TractabilityStatus.ENUMERATION_REQUIRED:
                raise TractabilityError(
                    "this SELECT block is outside the tractable class "
                    "(Section 7): " + "; ".join(cert.witnesses) +
                    " — evaluate it with the enumeration engine "
                    "(or EngineMode.auto() / --engine auto)"
                )
            # UNKNOWN: fall through to the runtime probe below.
        for stmt in block.accum:
            target = getattr(stmt, "target", None)
            if target is None:
                continue
            if not ctx.has_accum(target.name):
                continue
            decl = ctx.declaration(target.name)
            if not decl.order_invariant:
                raise TractabilityError(
                    f"accumulator @{target.name} ({type(decl.factory()).type_name}) "
                    f"is order-dependent and the FROM pattern contains a Kleene "
                    f"star: this query is outside the tractable class "
                    f"(Section 7); evaluate it with the enumeration engine "
                    f"or drop the order-dependent accumulator"
                )

    # -- outputs (step 7 of the block semantics) -----------------------
    def _vertex_set_result(
        self, ctx: QueryContext, rows: List[BindingRow],
        primed: Dict[str, Dict[Any, Any]],
    ) -> VertexSet:
        """The distinct bindings of the SELECT variable, ordered by the
        ORDER BY keys lowered under a scope whose only slot is that
        variable, cut at LIMIT."""
        slot = self._select_slot
        if slot is None and rows:
            raise QueryRuntimeError(
                f"SELECT variable {self.block.select_var!r} is not bound by "
                f"the FROM pattern"
            )
        seen = set()
        vertices: List[Vertex] = []
        check = not self._select_vertex  # a vertex position binds vertices only
        for values, _ in rows:
            vertex = values[slot]
            if check and not isinstance(vertex, Vertex):
                raise QueryRuntimeError(
                    f"SELECT variable {self.block.select_var!r} binds to a "
                    f"non-vertex; vertex-set results need a vertex variable"
                )
            if vertex.vid not in seen:
                seen.add(vertex.vid)
                vertices.append(vertex)
        env = EvalEnv(ctx, None, None, primed)
        order_by = self._set_order_by
        if order_by:
            def sort_key(v: Vertex):
                env.row = (v,)
                return tuple(_OrderKey(fn(env), desc) for fn, desc in order_by)

            vertices.sort(key=sort_key)
        if self._limit is not None:
            env.row = ()
            kept = vertices[: limit_count(self._limit(env))]
            if len(kept) < len(vertices):
                return VertexSet.of_distinct(ctx.graph, kept)
        return VertexSet.of_distinct(ctx.graph, vertices, seen)

    def _emit_fragment(
        self, ctx: QueryContext, fragment: Tuple, rows: List[BindingRow],
        primed: Dict[str, Dict[Any, Any]],
    ) -> None:
        into, aliases, columns, grouped = fragment
        out = Table(into, aliases)
        if grouped:
            keyed_rows = self._aggregate_rows(ctx, columns, rows, primed)
        else:
            keyed_rows = self._plain_rows(ctx, columns, rows, primed)
        if self._order_by:
            keyed_rows.sort(key=lambda pair: pair[0])
        for _, row in keyed_rows:
            out.append(row)
        if self._limit is not None:
            env = EvalEnv(ctx, (), None, primed)
            out.truncate(limit_count(self._limit(env)))
        ctx.tables[into] = out

    def _plain_rows(self, ctx, columns, rows, primed):
        """Project per binding row, collapsing duplicate output tuples.

        GSQL SELECT fragments materialize each distinct projected tuple
        once: duplicates would only reflect path multiplicities, which the
        accumulators already aggregate.
        """
        order_by = self._order_by
        seen = set()
        out = []
        env = EvalEnv(ctx, None, None, primed)
        for values, _ in rows:
            env.row = values
            projected = tuple(fn(env) for fn in columns)
            try:
                key = projected
                dup = key in seen
            except TypeError:
                dup = False  # unhashable values are kept as-is
                key = None
            if dup:
                continue
            if key is not None:
                seen.add(key)
            sort_key = tuple(_OrderKey(fn(env), desc) for fn, desc in order_by)
            out.append((sort_key, projected))
        return out

    def _aggregate_rows(self, ctx, columns, rows, primed):
        """SQL-style grouped aggregation over the (weighted) binding table.

        Each group evaluates HAVING / the output columns / ORDER BY in an
        environment carrying the group's rows: aggregate calls fold over
        them, everything else reads the first row as the representative
        (well-defined for group keys, which are constant within a group).
        """
        group_by, having, order_by = self._group_by, self._having, self._order_by
        groups: Dict[Tuple, List[BindingRow]] = {}
        env = EvalEnv(ctx, None, None, primed)
        for row in rows:
            env.row = row[0]
            key = tuple(fn(env) for fn in group_by)
            groups.setdefault(key, []).append(row)
        out = []
        for group in groups.values():
            env.row = group[0][0]
            env.group = group
            if having is not None and not having(env):
                continue
            projected = tuple(fn(env) for fn in columns)
            sort_key = tuple(_OrderKey(fn(env), desc) for fn, desc in order_by)
            out.append((sort_key, projected))
        return out


class _OrderKey:
    """Sort key wrapper handling DESC and None-last ordering.

    None and NaN — the values that order with nothing — sort after every
    other value under ASC and DESC alike, and tie with each other."""

    __slots__ = ("value", "desc")

    def __init__(self, value: Any, desc: bool):
        self.value = value
        self.desc = desc

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        if a is None or a != a:
            return False
        if b is None or b != b:
            return True
        try:
            if self.desc:
                return b < a
            return a < b
        except TypeError as exc:
            lo, hi = (b, a) if self.desc else (a, b)
            raise QueryRuntimeError(
                f"type error in ORDER BY: {lo!r} < {hi!r}: {exc}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderKey):
            return False
        a, b = self.value, other.value
        return a == b or ((a is None or a != a) and (b is None or b != b))


# ----------------------------------------------------------------------
# Statement lowering
# ----------------------------------------------------------------------

def _lower_statements(
    statements: List[Statement], decl_types: Dict[str, Any], stats: CompileStats,
    scope: Scope,
) -> List[Statement]:
    """Lower a statement list under the query-level ``scope`` (its
    declared parameters; no row), flattening the parser's statement
    groups (one source statement that produced several: a declaration
    list, a SELECT with set aliases) so their members are lowered too."""
    out: List[Statement] = []
    for stmt in statements:
        members = getattr(stmt, "statements", None)
        if members is not None:
            out.extend(_lower_statements(members, decl_types, stats, scope))
        else:
            out.append(_lower_statement(stmt, decl_types, stats, scope))
    return out


def _lower_statement(
    stmt: Statement, decl_types: Dict[str, Any], stats: CompileStats,
    scope: Scope,
) -> Statement:
    def lower(expr: Expr, under: Scope = scope) -> Expr:
        return compile_expr(expr, stats, under)

    new: Statement
    if isinstance(stmt, DeclareAccum):
        new = DeclareAccum(
            stmt.name,
            stmt.scope,
            stmt.base_factory,
            initial=(
                lower(stmt.initial)
                if stmt.initial is not None
                else None
            ),
            type_info=stmt.type_info,
        )
    elif isinstance(stmt, SetAssign):
        if isinstance(stmt.source, SelectBlock):
            new = SetAssign(stmt.name, CompiledBlock(stmt.source, decl_types, stats, scope))
        else:
            return stmt
    elif isinstance(stmt, RunBlock):
        new = RunBlock(
            CompiledBlock(stmt.block, decl_types, stats, scope), assign_to=stmt.assign_to
        )
    elif isinstance(stmt, GlobalAccumUpdate):
        new = GlobalAccumUpdate(stmt.name, stmt.op, lower(stmt.expr))
    elif isinstance(stmt, While):
        new = While(
            lower(stmt.cond),
            _lower_statements(stmt.body, decl_types, stats, scope),
            limit=(
                lower(stmt.limit)
                if stmt.limit is not None
                else None
            ),
        )
        new.governed_cap = stmt.governed_cap
    elif isinstance(stmt, Foreach):
        new = Foreach(
            stmt.var,
            lower(stmt.collection),
            _lower_statements(stmt.body, decl_types, stats, scope),
        )
    elif isinstance(stmt, If):
        new = If(
            lower(stmt.cond),
            _lower_statements(stmt.then, decl_types, stats, scope),
            _lower_statements(stmt.otherwise, decl_types, stats, scope),
        )
    elif isinstance(stmt, Print):
        items: List[Any] = []
        for item in stmt.items:
            if isinstance(item, PrintSetProjection):
                # The set name doubles as the per-vertex row variable.
                per_vertex = scope.over((item.set_name,))
                items.append(
                    PrintSetProjection(
                        item.set_name,
                        [
                            PrintItem(lower(c.expr, per_vertex), c.alias)
                            for c in item.columns
                        ],
                    )
                )
            else:
                items.append(PrintItem(lower(item.expr), item.alias))
        new = Print(items)
    elif isinstance(stmt, Return):
        new = Return(lower(stmt.expr))
    else:
        # SetOpAssign, Parameter plumbing, extension statements: nothing
        # expression-heavy to specialize — reuse the original.
        return stmt
    span = getattr(stmt, "span", None)
    if span is not None:
        new.span = span
    return new


def _collect_decl_types(statements: List[Statement]) -> Dict[str, Any]:
    """name -> AccumTypeInfo for every DeclareAccum, recursing into
    control flow and statement groups (feeds the op-algebra lookup of
    the map kernel)."""
    out: Dict[str, Any] = {}
    for stmt in statements:
        if isinstance(stmt, DeclareAccum):
            out[stmt.name] = stmt.type_info
        elif getattr(stmt, "statements", None) is not None:
            out.update(_collect_decl_types(stmt.statements))
        elif isinstance(stmt, While):
            out.update(_collect_decl_types(stmt.body))
        elif isinstance(stmt, Foreach):
            out.update(_collect_decl_types(stmt.body))
        elif isinstance(stmt, If):
            out.update(_collect_decl_types(stmt.then))
            out.update(_collect_decl_types(stmt.otherwise))
    return out


# ----------------------------------------------------------------------
# CompiledQuery
# ----------------------------------------------------------------------

class CompiledQuery:
    """A lowered, directly runnable query plus its provenance.

    ``query`` is the original parsed :class:`~repro.core.query.Query`
    (the analysis target — certificates, cached model, diagnostics);
    ``statements`` is the lowered statement list that executes.  The
    epoch captured at lowering time makes the plan *stale* as soon as
    ``query.invalidate_analysis()`` runs — ``Query.run`` re-lowers and
    the plan cache drops stale entries on lookup.
    """

    def __init__(
        self,
        query: Query,
        statements: List[Statement],
        stats: CompileStats,
        flags: Tuple[str, ...] = (),
    ):
        self.query = query
        self.statements = statements
        self.stats = stats
        self.flags = tuple(flags)
        self.source = query.source
        self._epoch = query._analysis_epoch
        #: Error-severity diagnostics from the service's analyze pass,
        #: stashed on first execution so warm cache hits skip analysis
        #: entirely; None = not yet analyzed.
        self.lint_errors: Optional[List[dict]] = None
        #: "hit" / "miss" / "invalidated" from the last cache lookup
        #: that returned this object (informational; set by the cache).
        self.cache_status: Optional[str] = None

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def params(self):
        return self.query.params

    @property
    def cost_certificate(self):
        """The whole-query cost certificate stamped on the source query,
        or None before its first reader (:meth:`cost_for`) stamped one;
        the plan reads through so warm cache hits see the freshest
        bounds."""
        return self.query.cost_certificate

    def cost_for(self, stats=None):
        """The whole-query cost certificate against ``stats``, estimated
        at most once per statistics fingerprint.

        The parser stamps no cost certificate: the first call stamps one
        (structural for ``stats=None``, closed-form against a snapshot).
        A warm plan-cache hit whose stamped certificate already carries
        ``stats``' fingerprint returns it without touching the analysis
        layer (zero ``cost.*`` counters — the property the warm-hit test
        pins).  A *different* fingerprint — the graph changed — is an
        automatic invalidation: the stale stamp is replaced by a fresh
        estimate against the new snapshot (the per-model memo keyed by
        fingerprint makes re-stamping with a previously seen snapshot
        free as well).

        The estimate runs over the schema-free model — the one the
        parser stamped its certificates from and the one the golden
        ``tests/golden/cost.json`` pins — so a bound does
        not depend on the schema the plan happens to be cached under.
        """
        fingerprint = None if stats is None else stats.fingerprint
        cert = self.query.cost_certificate
        if cert is not None and cert.stats_fingerprint == fingerprint:
            return cert
        from ..core.tractable import attach_cost_certificates

        attach_cost_certificates(self.query, stats=stats)
        return self.query.cost_certificate

    @property
    def stale(self) -> bool:
        return self.query._analysis_epoch != self._epoch

    def run(self, graph, mode=None, tables=None, subqueries=None, **param_values):
        """Execute against ``graph``.

        ``mode`` selects the evaluation engine; the default is the paper's
        counting engine under all-shortest-paths semantics.  ``tables``
        registers relational input tables, scannable from FROM clauses
        (the Figure 1 graph-table join).  Parameter values are keyword
        arguments matching the declared parameters.
        """
        mode = mode or EngineMode.counting()
        query = self.query
        resolved: Dict[str, Any] = {}
        declared = {p.name for p in query.params}
        for key in param_values:
            if key not in declared:
                raise QueryRuntimeError(
                    f"query {query.name!r} has no parameter {key!r}"
                )
        for param in query.params:
            if param.name in param_values:
                resolved[param.name] = param.resolve(graph, param_values[param.name])
            elif param.default is not None:
                resolved[param.name] = param.resolve(graph, param.default)
            else:
                raise QueryRuntimeError(
                    f"missing required parameter {param.name!r} of query "
                    f"{query.name!r}"
                )
        ctx = QueryContext(graph, resolved)
        if tables:
            ctx.tables.update(tables)
        if subqueries:
            ctx.subqueries.update(subqueries)
        col = _exec.current().col
        if col is None:
            for stmt in self.statements:
                stmt.execute(ctx, mode)
            return QueryResult(ctx)
        span = col.span(
            "query", label=f"QUERY {query.name}", engine=mode.kind,
            semantics=mode.semantics.value,
        )
        try:
            for stmt in self.statements:
                stmt.execute(ctx, mode)
        finally:
            col.close(span)
        return QueryResult(ctx)

    def report(self) -> dict:
        """Lowering statistics (what got specialized)."""
        doc = self.stats.to_dict()
        doc["flags"] = list(self.flags)
        return doc

    def describe(self) -> str:
        """The compiled-plan summary ``repro explain`` appends."""
        s = self.stats
        lines = [
            f"COMPILED {self.query.name}",
            (
                f"  {s.blocks} block(s) lowered, {s.exprs} expression(s) "
                f"closure-compiled, {s.constants_folded} constant(s) folded, "
                f"{s.conjuncts_dropped} WHERE conjunct(s) dropped"
            ),
            (
                f"  {s.kernels} map kernel(s), {s.combines_preresolved} "
                f"combine(s) pre-resolved from the op-algebra table"
            ),
        ]
        for entry in s.catalog:
            lines.append(f"  BLOCK FROM {entry['pattern']}")
            lines.append(
                f"    pushdown -> {entry['pushdown_vars'] or 'none'}; "
                f"residual conjuncts: {entry['residual_conjuncts']}"
                + (
                    f" ({entry['folded_conjuncts']} folded away)"
                    if entry["folded_conjuncts"]
                    else ""
                )
            )
            lines.append(
                f"    map kernel: {'fused' if entry['map_kernel'] else 'none'}; "
                f"post-accum stmts: {entry['post_accum_statements']}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompiledQuery({self.query.name}, {self.stats.blocks} blocks)"


def compile_query(
    query: Query,
    schema=None,
    flags: Tuple[str, ...] = (),
) -> CompiledQuery:
    """Lower an analyzed query into a :class:`CompiledQuery`.

    Lowering builds no analysis model: it consumes the certificates the
    parser stamped on the blocks, and the plan's readers (``cost_for``,
    the worker's lint) use the schema-free model the parser built.
    ``schema`` names the graph schema the plan is cached under; lowering
    itself reads nothing from it.
    """
    col = _exec.current().col
    span = col.span("compile", label=f"COMPILE {query.name}") if col else None
    try:
        stats = CompileStats()
        decl_types = _collect_decl_types(query.statements)
        scope = Scope(params=[param.name for param in query.params])
        statements = _lower_statements(query.statements, decl_types, stats, scope)
        if col is not None:
            col.count("compile.blocks", stats.blocks)
            col.count("compile.exprs", stats.exprs)
            if stats.constants_folded:
                col.count("compile.constants_folded", stats.constants_folded)
            if stats.conjuncts_dropped:
                col.count("compile.conjuncts_dropped", stats.conjuncts_dropped)
            if stats.combines_preresolved:
                col.count(
                    "compile.combines_preresolved", stats.combines_preresolved
                )
        return CompiledQuery(query, statements, stats, flags=flags)
    finally:
        if span is not None:
            col.close(span)


def compile_block(block: SelectBlock) -> CompiledBlock:
    """Lower a single programmatic SELECT block (what
    ``SelectBlock.execute`` runs)."""
    return CompiledBlock(block, {}, CompileStats())


__all__ = [
    "CompiledBlock",
    "CompiledQuery",
    "compile_accum_clause",
    "compile_block",
    "compile_query",
]
