"""SQL-style evaluation of graph patterns: materialize, then aggregate.

:func:`materialize_match_table` expands a pattern's compressed binding
table into the conventional *uncompressed* match table (one row per
conceptual match, i.e. per witnessing path), which is what a SQL-style
engine aggregates over.  Combined with :mod:`repro.sqlstyle.relational`
this forms the end-to-end conventional baseline used by the Appendix B
experiment.

The expansion is guarded: on Kleene patterns the uncompressed table can
be exponentially large, so ``max_rows`` turns a blow-up into a clean
error, mirroring the timeouts in the paper's experiments.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.context import QueryContext
from ..core.exprs import EvalEnv, Expr, Scope
from ..core.pattern import EngineMode, Pattern, evaluate_pattern
from ..errors import EvaluationBudgetExceeded
from ..graph.graph import Graph
from .relational import MatchTable, Row


def materialize_match_table(
    graph: Graph,
    pattern: Pattern,
    columns: Dict[str, Expr],
    where: Optional[Expr] = None,
    mode: Optional[EngineMode] = None,
    params: Optional[Dict[str, Any]] = None,
    max_rows: Optional[int] = 5_000_000,
) -> MatchTable:
    """Evaluate a pattern and materialize the uncompressed match table.

    ``columns`` maps output column names to expressions over the pattern
    variables.  A binding with multiplicity μ contributes μ identical
    rows — conventional bag semantics, with its conventional cost.
    """
    ctx = QueryContext(graph, params)
    mode = mode or EngineMode.counting()
    table = evaluate_pattern(ctx, pattern, mode)
    out = MatchTable()
    total = 0
    scope = Scope(table.variables)
    where_fn = where.closure(scope)[0] if where is not None else None
    column_fns = [(name, expr.closure(scope)[0]) for name, expr in columns.items()]
    env = EvalEnv(ctx)
    for values, multiplicity in table:
        env.row = values
        if where_fn is not None and not where_fn(env):
            continue
        row: Row = {name: fn(env) for name, fn in column_fns}
        total += multiplicity
        if max_rows is not None and total > max_rows:
            raise EvaluationBudgetExceeded(
                f"uncompressed match table exceeds {max_rows} rows; "
                f"this is the blow-up the compressed binding table avoids",
                expanded=total,
            )
        for _ in range(multiplicity):
            out.append(dict(row))
    return out


__all__ = ["materialize_match_table"]
