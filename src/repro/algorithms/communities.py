"""Label propagation community detection via MapAccum voting.

Each vertex tallies its neighbors' labels in a ``MapAccum<label,
SumAccum<int>>`` during ACCUM and adopts the plurality label in
POST_ACCUM — the canonical GSQL community-detection idiom, exercising
nested accumulators and per-vertex post-processing.

Ties break toward the smaller label, which (together with synchronous
updates) makes the algorithm deterministic — important for tests, and a
documented difference from the randomized textbook variant.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..accum import MapAccum, MinAccum, OrAccum, SumAccum
from ..compile import compile_block
from ..core.block import SelectBlock
from ..core.context import GLOBAL, VERTEX, QueryContext
from ..core.exprs import Literal, Method, NameRef, VertexAccumRef
from ..core.pattern import Chain, EngineMode, Pattern, VertexSpec, hop
from ..core.stmts import AccumTarget, AccumUpdate
from ..graph.graph import Graph


def label_propagation(
    graph: Graph,
    vertex_type: Optional[str] = None,
    edge_type: Optional[str] = None,
    max_iterations: int = 30,
) -> Dict[Any, Any]:
    """Vertex id -> community label after synchronous label propagation."""
    ctx = QueryContext(graph)
    from ..core.context import AccumDecl

    ctx.declare(AccumDecl("label", VERTEX, MinAccum))
    ctx.declare(AccumDecl("votes", VERTEX, lambda: MapAccum(lambda: SumAccum(0, int))))
    ctx.declare(AccumDecl("changed", GLOBAL, OrAccum))

    from ..core.values import VertexSet

    allv = VertexSet.all_of_type(graph, vertex_type)
    ctx.set_vertex_set("AllV", allv)

    # Initialize labels to own ids.
    init = SelectBlock(
        pattern=Pattern([Chain(VertexSpec("AllV", "v"), [])]),
        select_var="v",
        accum=[
            AccumUpdate(
                AccumTarget("label", NameRef("v")), "=", Method(NameRef("v"), "id", [])
            )
        ],
    )
    mode = EngineMode.counting()
    init.execute(ctx, mode)

    # Count neighbor labels across every crossable incidence: forward and
    # reverse for directed edges, plain for undirected ones.
    if edge_type is None:
        hops = ["_>", "<_", "_"]
    elif _is_undirected(graph, edge_type):
        hops = [edge_type]
    else:
        hops = [f"{edge_type}>", f"<{edge_type}"]
    # Lowered once here: the blocks below run every iteration.
    vote_blocks = [
        compile_block(SelectBlock(
            pattern=Pattern([Chain(VertexSpec("AllV", "v"), [hop(h, "AllV", "n")])]),
            select_var="n",
            accum=[
                AccumUpdate(
                    AccumTarget("votes", NameRef("n")),
                    "+=",
                    _pair(VertexAccumRef(NameRef("v"), "label"), Literal(1)),
                )
            ],
        ))
        for h in hops
    ]

    for _ in range(max_iterations):
        ctx.global_accum("changed").assign(False)
        # Reset vote maps.
        for vid, _ in list(ctx.vertex_accum_values("votes")):
            ctx.vertex_accum("votes", vid).assign({})
        for block in vote_blocks:
            block.execute(ctx, mode)
        moved = False
        for v in allv:
            votes = ctx.vertex_accum("votes", v.vid).value
            if not votes:
                continue
            best = min(votes.items(), key=lambda kv: (-kv[1], _orderable(kv[0])))[0]
            label_acc = ctx.vertex_accum("label", v.vid)
            if label_acc.value != best:
                label_acc.assign(best)
                moved = True
        if not moved:
            break

    return {
        v.vid: ctx.vertex_accum("label", v.vid).value
        for v in allv
    }


def _pair(key_expr, value_expr):
    from ..core.exprs import TupleExpr

    return TupleExpr([key_expr, value_expr])


def _orderable(value: Any):
    return (str(type(value).__name__), str(value))


def _is_undirected(graph: Graph, edge_type: Optional[str]) -> bool:
    if edge_type is None:
        return False
    for e in graph.edges(edge_type):
        return not e.directed
    return False


def community_sizes(labels: Dict[Any, Any]) -> Dict[Any, int]:
    sizes: Dict[Any, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return sizes


__all__ = ["label_propagation", "community_sizes"]
