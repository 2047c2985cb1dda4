"""The SELECT query block: FROM / WHERE / ACCUM / POST_ACCUM / outputs.

:class:`SelectBlock` is the clause AST; it only describes.  The static
analyses read it, and its executor is its lowered form
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

from typing import List, Optional, Sequence, Tuple

from ..errors import QueryRuntimeError
from ..paths.semantics import PathSemantics
from .context import QueryContext
from .exprs import Expr, contains_aggregate
from .pattern import EngineMode, Pattern
from .stmts import AccStatement
from .values import VertexSet


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
        #: engine and ``CompiledBlock._check_tractability`` skip the runtime
        #: probe.
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


__all__ = ["OutputColumn", "OutputFragment", "SelectBlock"]
