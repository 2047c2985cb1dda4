"""Expression AST and its evaluation semantics for the query engine.

Expressions appear in WHERE/HAVING conditions, ACCUM/POST_ACCUM statement
right-hand sides, SELECT output lists, ORDER BY keys and control-flow
conditions.  The same AST is produced by the GSQL parser and by the
programmatic query-builder API.

Each node defines its semantics exactly once, in :meth:`Expr.closure`:
a plain ``fn(env) -> value`` built over its children's closures, with
operators, guards, branch lists and *names* resolved when the closure is
built.  The tree only describes: an expression is evaluated through the
closure lowering (:mod:`repro.compile`) built for it once per plan,
under an :class:`EvalEnv` whose row has the layout of the closure's
:class:`Scope`.

Name resolution follows GSQL's scoping — ACCUM-local variables shadow
pattern variables, which shadow query parameters, which shadow
vertex-set variables, which shadow tables — and is decided against the
:class:`Scope` a closure is built under: a pattern variable is a fixed
slot of the binding row, a name no ACCUM statement can assign skips the
locals probe, and only names the scope does not know walk the
context's parameters, vertex sets and tables at evaluation time.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..accum.mapaccum import Arrow
from ..accum.tuples import TupleValue
from ..errors import QueryRuntimeError
from ..graph.elements import Edge, Vertex
from .context import QueryContext


class Scope:
    """What lowering knows about the bare names of one clause.

    ``slots`` maps each pattern variable to its fixed position in the
    binding row (``Pattern.variables()`` order); ``locals`` are the names
    an ACCUM-local assignment or FOREACH variable of the clause *may*
    bind (they shadow everything, but only once assigned, so a reference
    still probes ``env.locals`` first); ``params`` the declared query
    parameters.  Every other name is resolved at evaluation time.
    """

    __slots__ = ("slots", "locals", "params")

    def __init__(
        self,
        variables: Iterable[str] = (),
        locals_: Iterable[str] = (),
        params: Iterable[str] = (),
    ):
        self.slots: Dict[str, int] = {name: i for i, name in enumerate(variables)}
        self.locals = frozenset(locals_)
        self.params = frozenset(params)

    def over(self, variables: Iterable[str]) -> "Scope":
        """The same parameters around another row layout, no locals."""
        return Scope(variables, (), self.params)

    def with_locals(self, names: Iterable[str]) -> "Scope":
        """The same slots and parameters, with ``names`` assignable."""
        return Scope(self.slots, names, self.params)

    def slot_of(self, expr: "Expr") -> Optional[int]:
        """The row slot ``expr`` reads when it is a bare pattern variable
        no local can shadow, else None."""
        if isinstance(expr, NameRef) and expr.name not in self.locals:
            return self.slots.get(expr.name)
        return None


#: The scope that knows no name: everything resolves at evaluation time.
NO_SCOPE = Scope()


class EvalEnv:
    """One expression-evaluation environment.

    ``row`` holds the current binding-table row's values, one per slot of
    the scope the running closures were built under; ``locals`` the
    ACCUM-local variables; ``primed`` the block-entry snapshots backing
    ``v.@acc'`` reads; ``group`` the binding rows of the current GROUP BY
    group (None outside a grouped SELECT output), which :class:`AggCall`
    folds over while everything else reads ``row`` — the group's
    representative.

    An executor builds one environment per phase and re-points ``row``
    for each binding row.
    """

    __slots__ = ("ctx", "row", "locals", "primed", "group")

    def __init__(
        self,
        ctx: QueryContext,
        row: Any = None,
        locals_: Optional[Dict[str, Any]] = None,
        primed: Optional[Dict[str, Dict[Any, Any]]] = None,
        group: Optional[List[Any]] = None,
    ):
        self.ctx = ctx
        self.row = row
        self.locals = locals_ if locals_ is not None else {}
        self.primed = primed or {}
        self.group = group


class Expr:
    """Base expression node.

    ``span`` (a :class:`repro.core.span.Span`) is set by the GSQL parser
    on nodes built from query text; programmatically built expressions
    leave it unset and ``getattr(expr, "span", None)`` reads None.
    """

    __slots__ = ("span",)

    def closure(self, scope: Scope) -> Tuple[Callable[[EvalEnv], Any], bool]:
        """``(fn, is_const)``: this node as a closure over its children's
        closures, with bare names resolved against ``scope`` — so ``fn``
        must run under an environment whose ``row`` has that scope's
        layout.  ``is_const`` marks subtrees whose value cannot depend
        on the environment (lowering folds those)."""
        raise NotImplementedError

    def children(self) -> Iterator["Expr"]:
        return iter(())

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.children():
            yield from child.walk()


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def closure(self, scope):
        value = self.value
        return (lambda env: value), True

    def __repr__(self) -> str:
        return repr(self.value)


class NameRef(Expr):
    """A bare identifier: local var, pattern var, parameter or vertex set."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def closure(self, scope):
        name = self.name
        slot = scope.slots.get(name)
        if slot is not None:
            def resolve(env: EvalEnv) -> Any:
                return env.row[slot]
        else:
            # Nothing below is known before the query runs: a statement
            # FOREACH binds its variable in ``ctx.params``, vertex sets
            # and tables are assigned by earlier statements (or later
            # ones, inside a loop), and an unknown name is only an error
            # if a row ever evaluates it.
            def resolve(env: EvalEnv) -> Any:
                ctx = env.ctx
                if name in ctx.params:
                    return ctx.params[name]
                if name in ctx.vertex_sets:
                    return ctx.vertex_sets[name]
                if name in ctx.tables:
                    return ctx.tables[name]
                raise QueryRuntimeError(f"unknown name {name!r} in expression")

            if name in scope.params:
                dynamic = resolve

                def resolve(env: EvalEnv) -> Any:
                    try:
                        return env.ctx.params[name]
                    except KeyError:
                        return dynamic(env)

        if name not in scope.locals:
            return resolve, False

        def run(env: EvalEnv) -> Any:
            locals_ = env.locals
            return locals_[name] if name in locals_ else resolve(env)

        return run, False

    def __repr__(self) -> str:
        return self.name


def _read_attr(base: Any, attr: str) -> Any:
    """``base.attr`` on a vertex, an edge, a tuple value or a map."""
    if isinstance(base, (Vertex, Edge)):
        if attr in base:
            return base[attr]
        raise QueryRuntimeError(f"{base!r} has no attribute {attr!r}")
    if isinstance(base, TupleValue):
        return base.get(attr)
    if isinstance(base, dict):
        try:
            return base[attr]
        except KeyError:
            raise QueryRuntimeError(f"map has no key {attr!r}") from None
    raise QueryRuntimeError(
        f"cannot read attribute {attr!r} of {type(base).__name__}"
    )


class AttrRef(Expr):
    """Attribute access ``base.attr`` on vertices, edges, tuples, dicts."""

    __slots__ = ("base", "attr")

    def __init__(self, base: Expr, attr: str):
        self.base = base
        self.attr = attr

    def children(self) -> Iterator[Expr]:
        yield self.base

    def closure(self, scope):
        attr = self.attr
        slot = scope.slot_of(self.base)
        if slot is None:
            base_fn, _ = self.base.closure(scope)
            return (lambda env: _read_attr(base_fn(env), attr)), False

        def run(env: EvalEnv) -> Any:
            # ``var.attr`` over a pattern variable: the slot holds a
            # vertex or an edge (anything else — a relational-table row —
            # has no ``attrs`` and takes the general path).
            base = env.row[slot]
            try:
                return base.attrs[attr]
            except KeyError:
                raise QueryRuntimeError(
                    f"{base!r} has no attribute {attr!r}"
                ) from None
            except AttributeError:
                return _read_attr(base, attr)

        return run, False

    def __repr__(self) -> str:
        return f"{self.base!r}.{self.attr}"


class GlobalAccumRef(Expr):
    """``@@name`` — the value of a global accumulator.

    SQL-borrowed clauses interpret it "as a constant equal to the internal
    value" (Section 4.2), which is exactly what evaluation yields.
    """

    __slots__ = ("name", "primed")

    def __init__(self, name: str, primed: bool = False):
        self.name = name
        self.primed = primed

    def closure(self, scope):
        name = self.name
        if not self.primed:
            return (lambda env: env.ctx.global_accum(name).value), False
        key = "@@" + name

        def run_primed(env: EvalEnv) -> Any:
            snap = env.primed.get(key)
            if snap is None:
                raise QueryRuntimeError(
                    f"no snapshot for @@{name}' (primed reads are only "
                    f"valid inside a query block)"
                )
            return snap.get(None)

        return run_primed, False

    def __repr__(self) -> str:
        return f"@@{self.name}" + ("'" if self.primed else "")


class VertexAccumRef(Expr):
    """``v.@name`` — the value of a vertex accumulator instance; with
    ``primed=True``, the block-entry snapshot value ``v.@name'``."""

    __slots__ = ("base", "name", "primed")

    def __init__(self, base: Expr, name: str, primed: bool = False):
        self.base = base
        self.name = name
        self.primed = primed

    def children(self) -> Iterator[Expr]:
        yield self.base

    def closure(self, scope):
        base_fn, _ = self.base.closure(scope)
        name = self.name
        primed = self.primed

        def run(env: EvalEnv) -> Any:
            vertex = base_fn(env)
            if not isinstance(vertex, Vertex):
                raise QueryRuntimeError(
                    f"@{name} must be read through a vertex variable, "
                    f"got {type(vertex).__name__}"
                )
            if not primed:
                return env.ctx.vertex_accum(name, vertex.vid).value
            snap = env.primed.get(name)
            if snap is None:
                raise QueryRuntimeError(
                    f"no snapshot for @{name}' (the block never "
                    f"captured one)"
                )
            # A vertex whose accumulator was never materialized reads the
            # declared default.
            if vertex.vid in snap:
                return snap[vertex.vid]
            return env.ctx.declaration(name).factory().value

        return run, False

    def __repr__(self) -> str:
        return f"{self.base!r}.@{self.name}" + ("'" if self.primed else "")


_BINARY_OPS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Operators that refuse NULL operands.
_NUMERIC_OPS = frozenset(("+", "-", "*", "/", "%", "<", "<=", ">", ">="))


def _operator_error(
    op: str, left: Any, right: Any, exc: Exception
) -> QueryRuntimeError:
    if isinstance(exc, ZeroDivisionError):
        return QueryRuntimeError(f"division by zero: {left!r} {op} {right!r}")
    return QueryRuntimeError(f"type error in {left!r} {op} {right!r}: {exc}")


def _contains(item: Any, container: Any) -> bool:
    try:
        return item in container
    except TypeError:
        raise QueryRuntimeError(
            f"right side of IN is not a collection: {container!r}"
        ) from None


class Binary(Expr):
    """Binary operator.  ``AND``/``OR`` short-circuit; ``IN`` tests
    membership in sets/lists/vertex sets."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op.upper() if op.upper() in ("AND", "OR", "IN", "NOT IN") else op
        if self.op == "<>":
            self.op = "!="
        self.left = left
        self.right = right

    def children(self) -> Iterator[Expr]:
        yield self.left
        yield self.right

    def closure(self, scope):
        op = self.op
        left_fn, left_const = self.left.closure(scope)
        right_fn, right_const = self.right.closure(scope)
        const = left_const and right_const
        if op == "AND":
            return (lambda env: bool(left_fn(env)) and bool(right_fn(env))), const
        if op == "OR":
            return (lambda env: bool(left_fn(env)) or bool(right_fn(env))), const
        if op == "IN":
            return (lambda env: _contains(left_fn(env), right_fn(env))), const
        if op == "NOT IN":
            return (lambda env: not _contains(left_fn(env), right_fn(env))), const
        fn = _BINARY_OPS.get(op)
        if fn is None:
            def run_unknown(env: EvalEnv) -> Any:
                left_fn(env)
                right_fn(env)
                raise QueryRuntimeError(f"unknown operator {op!r}")

            return run_unknown, False

        if op not in _NUMERIC_OPS:
            def run(env: EvalEnv) -> Any:
                left = left_fn(env)
                right = right_fn(env)
                try:
                    return fn(left, right)
                except (ZeroDivisionError, TypeError) as exc:
                    raise _operator_error(op, left, right, exc) from None

            return run, const

        def run_guarded(env: EvalEnv) -> Any:
            left = left_fn(env)
            right = right_fn(env)
            if left is None or right is None:
                raise QueryRuntimeError(
                    f"operator {op!r} applied to NULL operand "
                    f"({left!r} {op} {right!r})"
                )
            try:
                return fn(left, right)
            except (ZeroDivisionError, TypeError) as exc:
                raise _operator_error(op, left, right, exc) from None

        return run_guarded, const

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        self.op = op.upper() if op.upper() == "NOT" else op
        self.operand = operand

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def closure(self, scope):
        op = self.op
        operand_fn, const = self.operand.closure(scope)
        if op == "NOT":
            return (lambda env: not bool(operand_fn(env))), const
        if op == "+":
            return operand_fn, const
        if op == "-":
            def run_neg(env: EvalEnv) -> Any:
                value = operand_fn(env)
                if value is None:
                    raise QueryRuntimeError("unary minus applied to NULL")
                return -value

            return run_neg, const

        def run_unknown(env: EvalEnv) -> Any:
            operand_fn(env)
            raise QueryRuntimeError(f"unknown unary operator {op!r}")

        return run_unknown, False

    def __repr__(self) -> str:
        return f"({self.op} {self.operand!r})"


def _fn_year(x: Any) -> int:
    """Year of a yyyymmdd-encoded date (the encoding used by the LDBC
    substrate)."""
    return int(x) // 10000


def _fn_month(x: Any) -> int:
    return int(x) // 100 % 100


def _fn_day(x: Any) -> int:
    return int(x) % 100


_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "abs": abs,
    "log": math.log,
    "log2": math.log2,
    "log10": math.log10,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "pow": pow,
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "min": min,
    "max": max,
    "float": float,
    "int": int,
    "str": str,
    "to_string": str,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "trim": lambda s: s.strip(),
    "ltrim": lambda s: s.lstrip(),
    "rtrim": lambda s: s.rstrip(),
    "substr": lambda s, start, count=None: (
        s[start:] if count is None else s[start : start + count]
    ),
    "find": lambda s, sub: s.find(sub),
    "replace": lambda s, old, new: s.replace(old, new),
    "contains": lambda s, sub: sub in s,
    "starts_with": lambda s, prefix: s.startswith(prefix),
    "ends_with": lambda s, suffix: s.endswith(suffix),
    "split": lambda s, sep: tuple(s.split(sep)),
    "concat": lambda *parts: "".join(str(p) for p in parts),
    "length": len,
    "size": len,
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
    "year": _fn_year,
    "month": _fn_month,
    "day": _fn_day,
}


class Call(Expr):
    """Function call: a builtin (``log(1 + o.@inCommon)``) or a
    registered subquery (GSQL's query-calling-query composition —
    resolved through the context's subquery registry, invoked with
    positional arguments, evaluating to its RETURN value)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name
        self.args = tuple(args)

    def children(self) -> Iterator[Expr]:
        yield from self.args

    def closure(self, scope):
        # Calls never fold, and the registry probe stays per call:
        # register_function() may add or replace UDFs after a plan was
        # lowered, and names not in the registry resolve through the
        # context's *runtime* subquery table.
        name = self.name
        lname = name.lower()
        lookup = _FUNCTIONS.get
        arg_fns = tuple(arg.closure(scope)[0] for arg in self.args)

        def run(env: EvalEnv) -> Any:
            fn = lookup(lname)
            values = [f(env) for f in arg_fns]
            if fn is None:
                subquery = env.ctx.subqueries.get(name)
                if subquery is None:
                    raise QueryRuntimeError(
                        f"unknown function or subquery {name!r}"
                    )
                return _run_subquery(env.ctx, subquery, values)
            try:
                return fn(*values)
            except (ValueError, TypeError) as exc:
                raise QueryRuntimeError(
                    f"error in {name}({', '.join(map(repr, values))}): {exc}"
                ) from None

        return run, False

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


class Method(Expr):
    """Method call ``base.method(args)``.

    On vertices: ``outdegree([edge_type])``, ``indegree([edge_type])``,
    ``id()``, ``type()``.  On collection values: ``size()``,
    ``contains(x)``, ``get(key[, default])``; on heap values ``top()``.
    """

    __slots__ = ("base", "name", "args")

    def __init__(self, base: Expr, name: str, args: Sequence[Expr]):
        self.base = base
        self.name = name
        self.args = tuple(args)

    def children(self) -> Iterator[Expr]:
        yield self.base
        yield from self.args

    def closure(self, scope):
        base_fn, _ = self.base.closure(scope)
        arg_fns = tuple(arg.closure(scope)[0] for arg in self.args)
        raw_name = self.name
        name = raw_name.lower()

        def arity(lo: int, hi: int, args: List[Any]) -> None:
            if not lo <= len(args) <= hi:
                takes = str(lo) if lo == hi else f"{lo} to {hi}"
                raise QueryRuntimeError(
                    f".{raw_name}() takes {takes} argument(s), got {len(args)}"
                )

        def run(env: EvalEnv) -> Any:
            base = base_fn(env)
            args = [f(env) for f in arg_fns]
            if isinstance(base, Vertex):
                if name == "outdegree":
                    arity(0, 1, args)
                    return env.ctx.graph.outdegree(base.vid, *args)
                if name == "indegree":
                    arity(0, 1, args)
                    return env.ctx.graph.indegree(base.vid, *args)
                if name == "id":
                    return base.vid
                if name == "type":
                    return base.type
                raise QueryRuntimeError(f"vertices have no method {raw_name!r}")
            if isinstance(base, Edge) and name == "type":
                return base.type
            if name == "size":
                try:
                    return len(base)
                except TypeError:
                    raise QueryRuntimeError(
                        f".size() on non-collection {base!r}"
                    ) from None
            if name == "contains":
                arity(1, 1, args)
                return args[0] in base
            if name == "get":
                if isinstance(base, dict):
                    arity(1, 2, args)
                    return base.get(*args)
                raise QueryRuntimeError(f".get() on non-map {base!r}")
            if name == "top":
                items = base if isinstance(base, tuple) else tuple(base)
                return items[0] if items else None
            raise QueryRuntimeError(
                f"unknown method {raw_name!r} on {type(base).__name__}"
            )

        return run, False

    def __repr__(self) -> str:
        return f"{self.base!r}.{self.name}({', '.join(map(repr, self.args))})"


class TupleExpr(Expr):
    """A plain tuple literal ``(a, b, c)`` (heap inputs, composite keys)."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]):
        self.items = tuple(items)

    def children(self) -> Iterator[Expr]:
        yield from self.items

    def closure(self, scope):
        # A triple — the shape of a top-k heap input such as IC9's
        # (creationDate, length, lastName) — is built in one display that
        # calls the item closures directly, left to right; a display of
        # attribute reads of pattern variables reads the row itself.
        built = [item.closure(scope) for item in self.items]
        fns = [fn for fn, _ in built]
        const = all(c for _, c in built)
        if len(fns) == 3:
            a, b, c = fns

            def display(env: EvalEnv) -> Any:
                return (a(env), b(env), c(env))
        else:
            def display(env: EvalEnv) -> Any:
                return tuple([fn(env) for fn in fns])

        reads = [
            (scope.slot_of(item.base), item.attr) if isinstance(item, AttrRef)
            else (None, None)
            for item in self.items
        ]
        if not reads or any(slot is None for slot, _ in reads):
            return display, const
        # Every item is ``var.attr`` over a slot: read the attributes
        # straight off the row's vertices or edges.  What that cannot read
        # (a missing attribute, a table row) goes through the item
        # closures, which return or raise what they would alone.
        if len(reads) == 3:
            (s0, a0), (s1, a1), (s2, a2) = reads

            def fused(env: EvalEnv) -> Any:
                row = env.row
                try:
                    return (row[s0].attrs[a0], row[s1].attrs[a1], row[s2].attrs[a2])
                except (AttributeError, KeyError):
                    return display(env)
        else:
            def fused(env: EvalEnv) -> Any:
                row = env.row
                try:
                    return tuple([row[s].attrs[a] for s, a in reads])
                except (AttributeError, KeyError):
                    return display(env)

        return fused, const

    def __repr__(self) -> str:
        return f"({', '.join(map(repr, self.items))})"


class ArrowExpr(Expr):
    """The GroupByAccum input form ``(k1, k2 -> a1, a2)`` (Example 12),
    evaluating to an :class:`~repro.accum.mapaccum.Arrow`; a MapAccum
    takes the one-key, one-value form ``(k -> v)``."""

    __slots__ = ("keys", "values")

    def __init__(self, keys: Sequence[Expr], values: Sequence[Expr]):
        self.keys = tuple(keys)
        self.values = tuple(values)

    def children(self) -> Iterator[Expr]:
        yield from self.keys
        yield from self.values

    def closure(self, scope):
        key_fns = tuple(k.closure(scope)[0] for k in self.keys)
        value_fns = tuple(v.closure(scope)[0] for v in self.values)
        return (
            lambda env: Arrow((
                tuple(fn(env) for fn in key_fns),
                tuple(fn(env) for fn in value_fns),
            )),
            False,
        )

    def __repr__(self) -> str:
        keys = ", ".join(map(repr, self.keys))
        values = ", ".join(map(repr, self.values))
        return f"({keys} -> {values})"


class CaseExpr(Expr):
    """``CASE WHEN c1 THEN e1 ... ELSE e END``."""

    __slots__ = ("whens", "default")

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]], default: Optional[Expr]):
        self.whens = tuple(whens)
        self.default = default

    def children(self) -> Iterator[Expr]:
        for cond, result in self.whens:
            yield cond
            yield result
        if self.default is not None:
            yield self.default

    def closure(self, scope):
        built = tuple(
            (cond.closure(scope), result.closure(scope))
            for cond, result in self.whens
        )
        when_fns = tuple((c[0], r[0]) for c, r in built)
        const = all(c[1] and r[1] for c, r in built)
        default_fn = None
        if self.default is not None:
            default_fn, default_const = self.default.closure(scope)
            const = const and default_const

        def run(env: EvalEnv) -> Any:
            for cond_fn, result_fn in when_fns:
                if cond_fn(env):
                    return result_fn(env)
            if default_fn is not None:
                return default_fn(env)
            return None

        return run, const

    def __repr__(self) -> str:
        body = " ".join(f"WHEN {c!r} THEN {r!r}" for c, r in self.whens)
        tail = f" ELSE {self.default!r}" if self.default is not None else ""
        return f"CASE {body}{tail} END"


class AggCall(Expr):
    """A SQL aggregate (count/sum/min/max/avg) inside a SELECT output.

    Folds its argument over ``env.group`` — the rows of the current
    GROUP BY group, with their multiplicities (SQL bag semantics over
    the conceptual uncompressed table).  ``arg`` is None for
    ``count(*)``.
    """

    FUNCS = ("count", "sum", "min", "max", "avg")

    __slots__ = ("func", "arg", "distinct")

    def __init__(self, func: str, arg: Optional[Expr], distinct: bool = False):
        func = func.lower()
        if func not in self.FUNCS:
            raise QueryRuntimeError(f"unknown aggregate function {func!r}")
        self.func = func
        self.arg = arg
        self.distinct = distinct

    def children(self) -> Iterator[Expr]:
        if self.arg is not None:
            yield self.arg

    def closure(self, scope):
        func = self.func
        apply = self.apply
        arg_fn = self.arg.closure(scope)[0] if self.arg is not None else None

        def run(env: EvalEnv) -> Any:
            group = env.group
            if group is None:
                raise QueryRuntimeError(
                    f"aggregate {func}() used outside a SELECT output clause"
                )
            if arg_fn is None:
                return apply([(1, multiplicity) for _, multiplicity in group])
            # One environment per fold, re-pointed at each row of the
            # group (no ``group`` of its own: aggregates do not nest).
            inner = EvalEnv(env.ctx, None, None, env.primed)
            weighted = []
            for values, multiplicity in group:
                inner.row = values
                weighted.append((arg_fn(inner), multiplicity))
            return apply(weighted)

        return run, False

    def apply(self, weighted_values: List[Tuple[Any, int]]) -> Any:
        """Fold ``(value, multiplicity)`` pairs per SQL bag semantics."""
        if self.distinct:
            seen = {}
            for value, _ in weighted_values:
                seen.setdefault(value, 1)
            weighted_values = [(v, 1) for v in seen]
        if self.func == "count":
            return sum(mult for _, mult in weighted_values)
        values = [(v, m) for v, m in weighted_values if v is not None]
        if not values:
            return None
        try:
            if self.func == "sum":
                return sum(v * m for v, m in values)
            if self.func == "min":
                return min(v for v, _ in values)
            if self.func == "max":
                return max(v for v, _ in values)
            total = sum(v * m for v, m in values)
            count = sum(m for _, m in values)
            return total / count
        except TypeError as exc:
            raise QueryRuntimeError(
                f"type error in {self!r}: {self._failed_step(values)}{exc}"
            ) from None

    def _failed_step(self, values: List[Tuple[Any, int]]) -> str:
        """``"a and b: "``: the first two values the fold, replayed one
        step at a time, cannot add or compare."""
        fold = {"min": min, "max": max}.get(self.func)
        acc = values[0][0] if fold else 0
        for value, multiplicity in values:
            try:
                acc = fold(acc, value) if fold else acc + value * multiplicity
            except TypeError:
                return f"{acc!r} and {value!r}: "
        return ""

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func}({prefix}{inner})"


# ----------------------------------------------------------------------
# Static analysis helpers
# ----------------------------------------------------------------------

def referenced_names(expr: Expr) -> Iterator[str]:
    """Every bare identifier referenced by an expression."""
    for node in expr.walk():
        if isinstance(node, NameRef):
            yield node.name


def primed_accum_names(expr: Expr) -> Iterator[str]:
    """Names of accumulators read with the prime suffix."""
    for node in expr.walk():
        if isinstance(node, VertexAccumRef) and node.primed:
            yield node.name
        elif isinstance(node, GlobalAccumRef) and node.primed:
            yield "@@" + node.name


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(node, AggCall) for node in expr.walk())


def _run_subquery(ctx: QueryContext, subquery: Any, values: List[Any]) -> Any:
    """Invoke a registered subquery with positional arguments.

    The subquery runs against the caller's graph (fresh accumulator
    state, same registered tables and subqueries) and yields its RETURN
    value.
    """
    params = subquery.params
    if len(values) != len(params):
        raise QueryRuntimeError(
            f"subquery {subquery.name!r} takes {len(params)} arguments, "
            f"got {len(values)}"
        )
    kwargs = {param.name: value for param, value in zip(params, values)}
    result = subquery.run(
        ctx.graph,
        tables={
            name: table
            for name, table in ctx.tables.items()
        },
        subqueries=ctx.subqueries,
        **kwargs,
    )
    return result.returned


def register_function(name: str, fn: Callable[..., Any]) -> None:
    """Register a scalar function usable from query expressions (the
    Python analogue of a GSQL scalar UDF)."""
    _FUNCTIONS[name.lower()] = fn


__all__ = [
    "Scope",
    "NO_SCOPE",
    "EvalEnv",
    "Expr",
    "Literal",
    "NameRef",
    "AttrRef",
    "GlobalAccumRef",
    "VertexAccumRef",
    "Binary",
    "Unary",
    "Call",
    "Method",
    "TupleExpr",
    "ArrowExpr",
    "CaseExpr",
    "AggCall",
    "referenced_names",
    "primed_accum_names",
    "contains_aggregate",
    "register_function",
]
