"""Lowering expression trees: closures built once, constants folded.

Each :class:`~repro.core.exprs.Expr` node defines its semantics as a
closure builder (:meth:`Expr.closure`).  This module builds a tree's
closure **once** per plan under the :class:`~repro.core.exprs.Scope` of
the clause it sits in (so names are resolved here, not per row) and
folds constant subtrees.  That closure is the only way an expression is
evaluated: :func:`compile_closure` returns it bare, and
:func:`compile_expr` wraps it in :class:`CompiledExpr`, whose ``fn`` the
lowered statements call (``expr.fn(env)``, under an environment whose
row has that scope's layout).

``CompiledExpr.walk()`` yields the original subtree, so
``referenced_names`` / ``primed_accum_names`` / ``contains_aggregate``
keep working on lowered clauses.

Constant folding is conservative: a subtree folds only when its builder
reports every operand constant, by running the closure once at lowering
time.  A fold that *raises* is abandoned — the unfolded closure keeps
raising at evaluation time.  Calls never fold (UDFs are registerable at
runtime) and accumulator/name references are runtime state by
definition.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..core.exprs import NO_SCOPE, EvalEnv, Expr, Literal, Scope


class CompileStats:
    """Mutable tally of what one lowering pass specialized."""

    __slots__ = (
        "exprs",
        "constants_folded",
        "conjuncts_dropped",
        "blocks",
        "kernels",
        "combines_preresolved",
        "catalog",
    )

    def __init__(self) -> None:
        self.exprs = 0
        self.constants_folded = 0
        self.conjuncts_dropped = 0
        self.blocks = 0
        self.kernels = 0
        self.combines_preresolved = 0
        #: Per-block kernel descriptions for ``CompiledQuery.describe()``.
        self.catalog: list = []

    def to_dict(self) -> dict:
        return {
            "exprs": self.exprs,
            "constants_folded": self.constants_folded,
            "conjuncts_dropped": self.conjuncts_dropped,
            "blocks": self.blocks,
            "kernels": self.kernels,
            "combines_preresolved": self.combines_preresolved,
        }


class CompiledExpr(Expr):
    """An expression with its closure prebuilt under one scope (asking
    for its closure again returns that one, whatever scope is named).

    ``walk()`` exposes the *original* subtree so the static helpers keep
    seeing the real node structure.  ``compare`` is the comparison tag of
    a pushed-down filter (``repro.compile.lowering.lower_pushed_filter``),
    None on every other expression.
    """

    __slots__ = ("fn", "original", "compare")

    def __init__(self, fn: Callable[[EvalEnv], Any], original: Expr):
        self.fn = fn
        self.original = original
        self.compare: Optional[Tuple[str, str, Callable[[EvalEnv], Any]]] = None
        try:
            self.span = original.span
        except AttributeError:
            pass

    def closure(self, scope):
        return self.fn, False

    def children(self):
        return self.original.children()

    def walk(self):
        yield self
        yield from self.original.walk()

    def __repr__(self) -> str:
        return repr(self.original)


def compile_expr(
    expr: Expr, stats: Optional[CompileStats] = None, scope: Scope = NO_SCOPE
) -> Expr:
    """Lower one expression tree under ``scope`` to a
    :class:`CompiledExpr` (an already compiled input is returned
    unchanged)."""
    if isinstance(expr, CompiledExpr):
        return expr
    fn, _ = compile_closure(expr, stats, scope)
    if stats is not None:
        stats.exprs += 1
    return CompiledExpr(fn, expr)


def compile_closure(
    expr: Expr, stats: Optional[CompileStats] = None, scope: Scope = NO_SCOPE
) -> Tuple[Callable[[EvalEnv], Any], bool]:
    """``expr -> (fn, is_const)``: the raw closure plus a constness flag.

    A constant subtree is evaluated once here and replaced by a constant
    closure (unless the evaluation raises, in which case the dynamic
    closure is kept so the error keeps surfacing at run time).
    """
    fn, const = expr.closure(scope)
    if const and not isinstance(expr, Literal):
        try:
            value = fn(_EMPTY_ENV)
        except Exception:
            return fn, False
        if stats is not None:
            stats.constants_folded += 1
        return (lambda env, _v=value: _v), True
    return fn, const


#: Environment handed to compile-time constant folds.  Constant subtrees
#: never touch it; anything that does raises and aborts the fold.
_EMPTY_ENV = EvalEnv(None)  # type: ignore[arg-type]


__all__ = ["CompiledExpr", "CompileStats", "compile_expr", "compile_closure"]
