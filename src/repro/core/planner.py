"""Light query planning: filter pushdown and hop-direction choice.

Two rewrites every real engine performs, both essential for the paper's
experiments to be *runnable* (not just asymptotically honest):

1. **Filter pushdown.**  WHERE conjuncts that reference a single pattern
   variable (``s.name == srcName``) are applied the moment that variable
   is bound — restricting the chain's seed set or a hop's targets —
   instead of after the full cartesian expansion.  The Qn query of
   Section 7.1 seeds from one vertex instead of all 91.

2. **Hop reversal.**  When a hop's *target* is pinned down to at most as
   many vertices as its sources, the hop is evaluated from the target
   side over the reversed DARPE.  For an enumeration engine this is the
   difference between exploring the whole graph and exploring the
   ``2^n`` paths the paper's Table 1 actually measures (Neo4j's observed
   times scale with the target index n, i.e. it effectively expands from
   the bound endpoint with the smaller frontier).

The pushdown is conservative: only conjuncts of a top-level AND chain
whose free pattern variables form a singleton move; accumulator reads are
safe to evaluate early because WHERE already reads the block-entry
snapshot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from .. import _exec
from ..darpe.ast import (
    Alt,
    Concat,
    DarpeNode,
    Epsilon,
    Repeat,
    Star,
    Symbol,
)
from ..graph.elements import FORWARD, REVERSE
from .exprs import Binary, Expr, primed_accum_names, referenced_names
from .pattern import EngineMode
from .tractable import TractabilityStatus


def split_conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Flatten a top-level AND chain into its conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def push_down_filters(
    where: Optional[Expr], pattern_vars: Set[str]
) -> Tuple[Dict[str, List[Expr]], List[Expr]]:
    """Split WHERE into per-variable filters and a residual conjunct list.

    A conjunct moves to variable ``v`` when ``v`` is the only pattern
    variable it references (names that are not pattern variables resolve
    to parameters/sets and are bind-time constants).
    """
    per_var: Dict[str, List[Expr]] = {}
    residual: List[Expr] = []
    for conjunct in split_conjuncts(where):
        free = {
            name for name in referenced_names(conjunct) if name in pattern_vars
        }
        # Primed reads need the block's snapshot environment; keep them in
        # the residual where that environment is available.
        if len(free) == 1 and not any(primed_accum_names(conjunct)):
            per_var.setdefault(next(iter(free)), []).append(conjunct)
        else:
            residual.append(conjunct)
    col = _exec.current().col
    if col is not None and (per_var or residual):
        col.count(
            "planner.pushdown_conjuncts", sum(len(f) for f in per_var.values())
        )
        col.count("planner.residual_conjuncts", len(residual))
    return per_var, residual


def _runtime_status(block, ctx) -> TractabilityStatus:
    """Classify a block by probing live declarations (no certificate).

    The same decision the static analysis makes, taken from the runtime
    context instead: programmatically built queries never pass through
    the parser, so they carry no certificate.
    """
    if not block.pattern.has_kleene():
        return TractabilityStatus.TRACTABLE
    for stmt in block.accum:
        target = getattr(stmt, "target", None)
        if target is None:
            continue
        if not ctx.has_accum(target.name):
            continue
        decl = ctx.declaration(target.name)
        if decl is not None and not decl.order_invariant:
            return TractabilityStatus.ENUMERATION_REQUIRED
    return TractabilityStatus.TRACTABLE


def select_engine(block, ctx, mode: EngineMode) -> EngineMode:
    """Resolve an ``EngineMode.auto()`` to a concrete engine per block.

    A static :class:`~repro.core.tractable.TractabilityCertificate`
    (attached by the parser) decides when it is conclusive; UNKNOWN or
    missing certificates fall back to probing the live declarations.
    Intractable blocks run the enumeration engine under the same
    all-shortest-paths semantics, which is result-equivalent, just
    exponential instead of polynomial in path count.
    """
    if mode.kind != EngineMode.AUTO:
        return mode
    cert = getattr(block, "certificate", None)
    status = cert.status if cert is not None else None
    source = "certificate"
    if status is None or status is TractabilityStatus.UNKNOWN:
        status = _runtime_status(block, ctx)
        source = "runtime-probe"
    col = _exec.current().col
    effect = getattr(block, "effect_certificate", None)
    if col is not None and effect is not None:
        # Not an engine choice today, but the planner records what the
        # effect analysis proved: commutative blocks are the candidates
        # for a parallel Map phase, delta-maintainable ones for
        # incremental re-evaluation (ROADMAP 4a).
        col.count(f"planner.effects.{effect.status.value}")
        if effect.delta_maintainable:
            col.count("planner.effects.delta_maintainable")
    if status is TractabilityStatus.ENUMERATION_REQUIRED:
        if col is not None:
            col.count("planner.auto_enumeration")
            col.count(f"planner.auto_source.{source}")
        return EngineMode.enumeration(
            mode.semantics, budget=mode.budget, max_length=mode.max_length
        )
    # A TRACTABLE verdict is a tie: both engines are result-equivalent.
    # When a statistics-aware cost certificate predicts strictly fewer
    # materialized paths than SDMC product states, enumeration is the
    # cheaper engine — break the tie on the prediction.  (Parse-time
    # structural certificates leave paths unbounded, so this only fires
    # after a consumer re-stamped with a GraphStatsSnapshot.)
    if status is TractabilityStatus.TRACTABLE:
        cost = getattr(block, "cost_certificate", None)
        if (
            cost is not None
            and cost.stats_fingerprint is not None
            and cost.paths.hi is not None
            and (
                cost.product_states.hi is None
                or cost.paths.hi < cost.product_states.hi
            )
        ):
            if col is not None:
                col.count("planner.auto_enumeration")
                col.count("planner.auto_cost_tiebreak")
                col.count(f"planner.auto_source.{source}")
            return EngineMode.enumeration(
                mode.semantics, budget=mode.budget, max_length=mode.max_length
            )
    if col is not None:
        col.count("planner.auto_counting")
        col.count(f"planner.auto_source.{source}")
    return EngineMode.counting(
        max_length=mode.max_length, semantics=mode.semantics
    )


def reverse_darpe(node: DarpeNode) -> DarpeNode:
    """The DARPE matching exactly the reversals of the original's paths.

    Concatenations flip order; directed symbols flip orientation;
    undirected symbols and repetition structure are preserved.
    """
    if isinstance(node, Symbol):
        if node.direction == FORWARD:
            return Symbol(node.edge_type, REVERSE)
        if node.direction == REVERSE:
            return Symbol(node.edge_type, FORWARD)
        return node
    if isinstance(node, Epsilon):
        return node
    if isinstance(node, Concat):
        return Concat(tuple(reverse_darpe(p) for p in reversed(node.parts)))
    if isinstance(node, Alt):
        return Alt(tuple(reverse_darpe(p) for p in node.parts))
    if isinstance(node, Star):
        return Star(reverse_darpe(node.inner))
    if isinstance(node, Repeat):
        return Repeat(reverse_darpe(node.inner), node.min_count, node.max_count)
    raise TypeError(f"unknown DARPE node {node!r}")


__all__ = [
    "split_conjuncts",
    "push_down_filters",
    "reverse_darpe",
    "select_engine",
]
