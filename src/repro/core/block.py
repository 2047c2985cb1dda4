"""The SELECT query block: FROM / WHERE / ACCUM / POST_ACCUM / outputs.

:class:`SelectBlock` is the clause AST plus the engine-choice checks and
output materialization; the executor is its lowered form
(:class:`repro.compile.lowering.CompiledBlock`), which follows the
declarative semantics of Section 4 exactly:

1. capture block-entry snapshots for accumulators read with a prime;
2. evaluate the FROM pattern to the compressed binding table;
3. filter rows with WHERE (reads of accumulators see current values);
4. Map phase: one acc-execution per row generates accumulator inputs
   (weighted by the row's multiplicity per Appendix A);
5. Reduce phase: fold the inputs into the accumulators;
6. POST_ACCUM (per distinct vertex);
7. produce the outputs: a vertex-set result and/or the multi-output
   ``INTO`` tables, with DISTINCT / GROUP BY / HAVING / ORDER BY / LIMIT.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryRuntimeError, TractabilityError
from ..graph.elements import Vertex
from ..paths.semantics import PathSemantics
from .context import QueryContext
from .exprs import EvalEnv, Expr, contains_aggregate
from .pattern import BindingRow, EngineMode, Pattern
from .stmts import AccStatement
from .values import Table, VertexSet


class OutputColumn:
    """One projected column of an INTO fragment: expression plus alias."""

    def __init__(self, expr: Expr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias or self._derive_alias(expr)

    @staticmethod
    def _derive_alias(expr: Expr) -> str:
        text = repr(expr)
        return text.replace(" ", "")

    def __repr__(self) -> str:
        return f"{self.expr!r} AS {self.alias}"


class OutputFragment:
    """One semicolon-separated output of a multi-output SELECT clause
    (Example 5): a column list materialized INTO a named table."""

    def __init__(self, columns: Sequence[OutputColumn], into: str):
        if not columns:
            raise QueryRuntimeError("an output fragment needs at least one column")
        self.columns = list(columns)
        self.into = into

    def has_aggregates(self) -> bool:
        return any(contains_aggregate(col.expr) for col in self.columns)

    def __repr__(self) -> str:
        cols = ", ".join(repr(c) for c in self.columns)
        return f"{cols} INTO {self.into}"


class SelectBlock:
    """A full GSQL SELECT block (Figure 2/3/4 shape)."""

    def __init__(
        self,
        pattern: Pattern,
        select_var: Optional[str] = None,
        fragments: Optional[List[OutputFragment]] = None,
        distinct: bool = False,
        where: Optional[Expr] = None,
        accum: Optional[List[AccStatement]] = None,
        post_accum: Optional[List[AccStatement]] = None,
        group_by: Optional[List[Expr]] = None,
        having: Optional[Expr] = None,
        order_by: Optional[List[Tuple[Expr, bool]]] = None,
        limit: Optional[Expr] = None,
        semantics: Optional["PathSemantics"] = None,
    ):
        self.pattern = pattern
        self.select_var = select_var
        self.fragments = fragments or []
        self.distinct = distinct
        self.where = where
        self.accum = accum or []
        self.post_accum = post_accum or []
        self.group_by = group_by or []
        self.having = having
        self.order_by = order_by or []
        self.limit = limit
        #: Per-block matching-semantics override (the "syntactic sugar for
        #: specifying semantic alternatives" Section 6.1 plans; GSQL text:
        #: ``USING SEMANTICS 'no-repeated-edge'`` after the FROM pattern).
        self.semantics = semantics
        #: Static :class:`~repro.core.tractable.TractabilityCertificate`
        #: stamped by the parser (None for programmatically built blocks).
        #: A conclusive certificate lets ``EngineMode.auto()`` pick the
        #: engine and ``_check_tractability`` skip the runtime probe.
        self.certificate = None
        #: Static :class:`~repro.core.tractable.DeterminismCertificate`
        #: from the effect analysis (None for programmatic blocks).  A
        #: COMMUTATIVE stamp licenses ``parallel_accum`` to partition the
        #: ACCUM clause; AccSan replays the block under permuted
        #: schedules to validate the stamp dynamically.
        self.effect_certificate = None
        #: Static :class:`~repro.core.tractable.CostCertificate` from the
        #: cost analysis (None for programmatic blocks): predicted
        #: cardinality intervals the planner tie-breaks on and the
        #: governor/server derive budgets from.
        self.cost_certificate = None

    # ------------------------------------------------------------------
    def execute(self, ctx: QueryContext, mode: EngineMode) -> Optional[VertexSet]:
        """Lower this block and run it (blocks inside a ``Query`` are
        lowered once with the query; this serves programmatic blocks
        executed directly against a context)."""
        from ..compile.lowering import compile_block

        return compile_block(self).execute(ctx, mode)

    # ------------------------------------------------------------------
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
        cert = self.certificate
        if cert is None:
            return mode
        from .tractable import TractabilityStatus

        if cert.status is not TractabilityStatus.TRACTABLE:
            return mode
        gov.note_downgrade(
            f"SELECT FROM {self.pattern!r}: enumeration downgraded to "
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
        if mode.kind != EngineMode.COUNTING or not self.pattern.has_kleene():
            return
        cert = self.certificate
        if cert is not None:
            from .tractable import TractabilityStatus

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
        for stmt in self.accum:
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

    def _all_output_exprs(self):
        if self.where is not None:
            yield self.where
        for fragment in self.fragments:
            for col in fragment.columns:
                yield col.expr
        for expr, _ in self.order_by:
            yield expr
        if self.having is not None:
            yield self.having
        yield from self.group_by

    # ------------------------------------------------------------------
    # Vertex-set result
    # ------------------------------------------------------------------
    def _vertex_set_result(
        self,
        ctx: QueryContext,
        rows: List[BindingRow],
        primed: Dict[str, Dict[Any, Any]],
        slot: Optional[int],
        order_by: List[Tuple[Expr, bool]],
    ) -> VertexSet:
        """The distinct bindings of the SELECT variable (row slot
        ``slot``, None when the pattern does not bind it), ordered by
        ``order_by`` — the block's ORDER BY lowered under a scope whose
        only slot is the SELECT variable."""
        if slot is None and rows:
            raise QueryRuntimeError(
                f"SELECT variable {self.select_var!r} is not bound by "
                f"the FROM pattern"
            )
        seen = set()
        vertices: List[Vertex] = []
        for values, _ in rows:
            vertex = values[slot]
            if not isinstance(vertex, Vertex):
                raise QueryRuntimeError(
                    f"SELECT variable {self.select_var!r} binds to a "
                    f"non-vertex; vertex-set results need a vertex variable"
                )
            if vertex.vid not in seen:
                seen.add(vertex.vid)
                vertices.append(vertex)
        env = EvalEnv(ctx, None, None, primed)
        if order_by:
            def sort_key(v: Vertex):
                env.row = (v,)
                return tuple(
                    _OrderKey(expr.eval(env), desc) for expr, desc in order_by
                )

            vertices.sort(key=sort_key)
        if self.limit is not None:
            env.row = ()
            vertices = vertices[: limit_count(self.limit.eval(env))]
        return VertexSet.of_distinct(ctx.graph, vertices)

    # ------------------------------------------------------------------
    # INTO fragments
    # ------------------------------------------------------------------
    def _emit_fragment(
        self,
        ctx: QueryContext,
        fragment: OutputFragment,
        rows: List[BindingRow],
        primed: Dict[str, Dict[Any, Any]],
    ) -> None:
        out = Table(fragment.into, [col.alias for col in fragment.columns])
        if fragment.has_aggregates() or self.group_by:
            keyed_rows = self._aggregate_rows(ctx, fragment, rows, primed)
        else:
            keyed_rows = self._plain_rows(ctx, fragment, rows, primed)
        if self.order_by:
            keyed_rows.sort(key=lambda pair: pair[0])
        for _, row in keyed_rows:
            out.append(row)
        if self.limit is not None:
            env = EvalEnv(ctx, (), None, primed)
            out.truncate(limit_count(self.limit.eval(env)))
        ctx.tables[fragment.into] = out

    def _plain_rows(self, ctx, fragment, rows, primed):
        """Project per binding row, collapsing duplicate output tuples.

        GSQL SELECT fragments materialize each distinct projected tuple
        once: duplicates would only reflect path multiplicities, which the
        accumulators already aggregate.
        """
        seen = set()
        out = []
        env = EvalEnv(ctx, None, None, primed)
        for values, _ in rows:
            env.row = values
            projected = tuple(col.expr.eval(env) for col in fragment.columns)
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
            sort_key = tuple(
                _OrderKey(expr.eval(env), desc) for expr, desc in self.order_by
            )
            out.append((sort_key, projected))
        return out

    def _aggregate_rows(self, ctx, fragment, rows, primed):
        """SQL-style grouped aggregation over the (weighted) binding table.

        Each group evaluates HAVING / the output columns / ORDER BY in an
        environment carrying the group's rows: aggregate calls fold over
        them, everything else reads the first row as the representative
        (well-defined for group keys, which are constant within a group).
        """
        groups: Dict[Tuple, List[BindingRow]] = {}
        env = EvalEnv(ctx, None, None, primed)
        for row in rows:
            env.row = row[0]
            key = tuple(expr.eval(env) for expr in self.group_by)
            groups.setdefault(key, []).append(row)
        out = []
        for group in groups.values():
            env.row = group[0][0]
            env.group = group
            if self.having is not None and not self.having.eval(env):
                continue
            projected = tuple(col.expr.eval(env) for col in fragment.columns)
            sort_key = tuple(
                _OrderKey(expr.eval(env), desc) for expr, desc in self.order_by
            )
            out.append((sort_key, projected))
        return out


def limit_count(value: Any) -> int:
    """A LIMIT clause's value as a row count: an int >= 0 (not a bool)."""
    if type(value) is not int or value < 0:
        raise QueryRuntimeError(f"LIMIT needs an integer >= 0, got {value!r}")
    return value


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
        if self.desc:
            return b < a
        return a < b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _OrderKey):
            return False
        a, b = self.value, other.value
        return a == b or ((a is None or a != a) and (b is None or b != b))


__all__ = ["OutputColumn", "OutputFragment", "SelectBlock"]
