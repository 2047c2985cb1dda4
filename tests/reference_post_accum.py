"""The POST_ACCUM statement interpreter the engine ran before the clause
was lowered onto the ACCUM kernel, kept as the oracle of
``test_post_accum_differential.py``.

``run_post_accum`` / ``_run_post_statement`` are the old
``repro.core.stmts`` functions: a per-execution ``isinstance`` ladder over
the ``AccStatement`` tree, immediate ``=``, buffered ``+=``.  Two things
differ from the code that was deleted, because what they leaned on is
gone too: the statements are the block's *un-lowered* clause (the tree
builds each expression's closure per call, under a scope naming the
row's slots, where the old code ran a clone with prebuilt closures), and ``AccumTarget.resolve`` is
the local ``_resolve``.  The dependency slots of a statement and the
distinct projections it runs over are computed here as they were then
(``_identity``, not the join's key), so the differential also checks that
sharing ``_join_key`` changed no projection.
"""

from repro import _exec
from repro.core.exprs import EvalEnv, Scope
from repro.core.stmts import (
    AccumForeach,
    AccumIf,
    AccumUpdate,
    AttributeUpdate,
    InputBuffer,
    LocalAssign,
    foreach_items,
    walk_acc_statements,
)
from repro.errors import QueryRuntimeError
from repro.graph.elements import Vertex


class _ScopedEnv(EvalEnv):
    """An environment carrying the scope that names its row's slots."""

    __slots__ = ("scope",)


def _eval(expr, env):
    """Build ``expr``'s closure under the environment's scope and run it
    (a fresh closure per call, independent of lowering)."""
    return expr.closure(env.scope)[0](env)


def run_post_accum(clause, variables, ctx, rows, primed):
    """Execute the un-lowered POST_ACCUM ``clause`` of a block whose
    binding rows are laid out over ``variables``."""
    slots = {name: i for i, name in enumerate(variables)}
    statements = [
        (stmt, [slots[n] for n in sorted(set(stmt.referenced_names()) & set(slots))])
        for stmt in clause
    ]
    names = set()
    for stmt in walk_acc_statements(clause):
        if isinstance(stmt, LocalAssign):
            names.add(stmt.name)
        elif isinstance(stmt, AccumForeach):
            names.add(stmt.var)

    ec = _exec.current()
    col = ec.col
    san = ec.san
    buffer = InputBuffer()
    locals_ = {}
    env = _ScopedEnv(ctx, None, locals_, primed)
    env.scope = Scope(variables, names)
    for stmt, deps in statements:
        executions = _distinct_projections(rows, deps)
        if col is not None:
            col.count("block.post_accum_executions", len(executions))
        for values in executions:
            env.row = values
            locals_.clear()
            _run_post_statement(stmt, ctx, env, buffer, san)
    if san is not None:
        san.check_flush(None, buffer)
    buffer.flush()


def _run_post_statement(stmt, ctx, env, buffer, san):
    """One POST_ACCUM statement for one distinct-vertex execution
    (``san``: the phase's sanitizer, or None)."""
    if isinstance(stmt, LocalAssign):
        raise QueryRuntimeError(
            "local variables are not allowed in POST_ACCUM "
            "(each statement runs per distinct vertex)"
        )
    if isinstance(stmt, AccumIf):
        branch = stmt.then if bool(_eval(stmt.cond, env)) else stmt.otherwise
        for inner in branch:
            _run_post_statement(inner, ctx, env, buffer, san)
        return
    if isinstance(stmt, AccumForeach):
        items = foreach_items(_eval(stmt.collection, env))
        had_prior = stmt.var in env.locals
        prior = env.locals.get(stmt.var)
        try:
            for item in items:
                env.locals[stmt.var] = item
                for inner in stmt.body:
                    _run_post_statement(inner, ctx, env, buffer, san)
        finally:
            if had_prior:
                env.locals[stmt.var] = prior
            else:
                env.locals.pop(stmt.var, None)
        return
    if isinstance(stmt, AttributeUpdate):
        vertex = _eval(stmt.base, env)
        if not isinstance(vertex, Vertex):
            raise QueryRuntimeError(
                f"attribute assignment needs a vertex, got "
                f"{type(vertex).__name__}"
            )
        value = _eval(stmt.expr, env)
        schema = ctx.graph.schema
        if schema is not None:
            decl = schema.vertex_type(vertex.type).attributes.get(stmt.attr)
            if decl is None:
                raise QueryRuntimeError(
                    f"vertex type {vertex.type!r} has no attribute "
                    f"{stmt.attr!r}"
                )
            decl.validate(value)
        ctx.graph.set_vertex_attr(vertex, stmt.attr, value)
        return
    if not isinstance(stmt, AccumUpdate):
        raise QueryRuntimeError(f"unknown POST_ACCUM statement {stmt!r}")
    value = _eval(stmt.expr, env)
    acc = _resolve(stmt.target, env)
    if san is not None:
        san.record("post_accum", stmt.target, acc, stmt.op, value)
    if stmt.op == "=":
        acc.assign(value)
    else:
        buffer.add(acc, value, 1)


def _resolve(target, env):
    if target.base is None:
        return env.ctx.global_accum(target.name)
    vertex = _eval(target.base, env)
    if not isinstance(vertex, Vertex):
        raise QueryRuntimeError(
            f"accumulator @{target.name} addressed through non-vertex "
            f"{type(vertex).__name__}"
        )
    return env.ctx.vertex_accum(target.name, vertex.vid)


def _distinct_projections(rows, slots):
    """One representative row (its values) per distinct projection of the
    binding rows onto ``slots`` — the first, in row order."""
    if not slots:
        return [rows[0][0]] if rows else []
    seen = set()
    out = []
    for values, _ in rows:
        key = tuple([_identity(values[slot]) for slot in slots])
        if key in seen:
            continue
        seen.add(key)
        out.append(values)
    return out


def _identity(value):
    if isinstance(value, Vertex):
        return ("v", value.vid)
    return value
