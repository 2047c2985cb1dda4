"""Shortest DARPE Match Counting (SDMC) — Theorem 6.1 of the paper.

Given a DARPE ``d`` and a graph, the *single-pair* problem asks for the
number of shortest paths from ``s`` to ``t`` that satisfy ``d`` (length
measured in edges); *single-source* asks for that count for every target
``t``; *all-paths* for every source/target pair.  All three are solvable
in polynomial time even when the count itself is exponential in the graph
size, which is the linchpin of the paper's tractability result
(Theorem 7.1): the evaluation engine *counts* matching paths instead of
materializing them.

The algorithm is the folklore product construction: determinize the DARPE
automaton (so each graph path has exactly one automaton run — otherwise
runs, not paths, would be counted) and run a level-synchronized BFS over
product states ``(vertex, dfa_state)``, accumulating shortest-path counts
per product state.  For a target vertex ``t`` the answer is the first BFS
level at which any accepting product state ``(t, q)`` appears, and the sum
of the counts of all accepting product states at that level.

The product has at most ``|V| * 2^|NFA|`` states, but the DFA part is
built lazily and in practice stays tiny (it is bounded by the query, not
the data, giving the polynomial *data* complexity the theorems claim).

The unit of automaton work is the adjacency *column*, not the edge: every
incidence in the column of one ``(direction, edge type)`` spells the same
adorned symbol, so :func:`column_plan` steps the DFA once per
``(state, direction, edge type)`` — which names the columns the state can
cross — and the searches then probe each such column once per product
state and run a plain loop over the bucket found there (PathFinder expands
the product graph the same way, per automaton transition over
label-indexed adjacency).  :func:`sdmc_search` looks plans up inline in
its level loop; :func:`bucket_expander` wraps the same plans for the
searches that expand one product state at a time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from .. import _exec
from ..darpe.automaton import CompiledDarpe, LazyDFA
from ..governor import faults as _faults
from ..graph.graph import Bucket, Graph


class SdmcResult(NamedTuple):
    """Result of a single-pair SDMC query: the shortest satisfying path
    length and the number of shortest satisfying paths."""

    distance: int
    count: int


#: One DFA state's expansion plan: ``(q2, probe)`` per column the state
#: can cross, ``probe(vid)`` being that column's bucket of ``vid`` (or
#: None) and ``q2`` the state every incidence in it leads to.
Plan = List[Tuple[int, Callable[[Any], Optional[Bucket]]]]


def column_plan(graph: Graph, dfa: LazyDFA, q: int) -> Plan:
    """The expansion plan of DFA state ``q``: the DFA is stepped once per
    ``(direction, edge type)``, skipping whole the directions ``q`` has no
    transition in.  Pairs come direction-major in the order ``>``, ``<``,
    ``-``, then by edge type in the graph's first-seen order: the order
    :meth:`Graph.steps` yields, minus the dead columns."""
    step = dfa.step
    dead = LazyDFA.DEAD
    return [
        (q2, column.get)
        for direction in dfa.directions(q)
        for etype, column in graph.columns(direction).items()
        if (q2 := step(q, (etype, direction))) != dead
    ]


def bucket_expander(
    graph: Graph, dfa: LazyDFA
) -> Callable[[Any, int], List[Tuple[int, Bucket]]]:
    """``expand(vid, q)``: the product-graph successors of ``(vid, q)`` as
    ``(q2, bucket)`` pairs — one per column the DFA can cross from ``q``
    in which ``vid`` has a bucket ``(neighbour ids, edge ids)``, every
    incidence of which leads to state ``q2``.

    Each state's :func:`column_plan` is built on its first expansion and
    kept for the lifetime of the expander (one search); every later
    expansion is a ``column.get(vid)`` per listed column.
    """
    plans: Dict[int, Plan] = {}

    def expand(vid: Any, q: int) -> List[Tuple[int, Bucket]]:
        plan = plans.get(q)
        if plan is None:
            plan = plans[q] = column_plan(graph, dfa, q)
        live = []
        for q2, probe in plan:
            bucket = probe(vid)
            if bucket is not None:
                live.append((q2, bucket))
        return live

    return expand


def sdmc_search(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    targets: Optional[Set[Any]] = None,
    max_length: Optional[int] = None,
) -> Tuple[Dict[Any, int], Dict[Any, int]]:
    """The single-source BFS itself: ``(distances, counts)``, two maps
    over the same vertex ids in the order the search resolved them — the
    shortest satisfying-path length from ``source`` and the number of
    such paths.  ``targets`` only stops the search early (once each is
    resolved); vertices resolved on the way stay in the maps.

    :func:`single_source_sdmc` is the documented entry point; the hop
    kernel reads ``counts`` directly.

    One flat loop per level: record the level's accepting states, then
    expand every product state through its DFA state's
    :func:`column_plan` (built on first use and kept, like the accepting
    flag, in a per-search memo) into a plain dict of the next level's
    counts.  A vertex is resolved at the first level holding any of its
    accepting states, with the sum of all of them at that level.
    """
    graph.vertex(source)  # validate early, with a clear error
    dfa = darpe.new_dfa()
    plans: Dict[int, Plan] = {}
    accepting: Dict[int, bool] = {}
    distances: Dict[Any, int] = {}
    counts: Dict[Any, int] = {}
    remaining = set(targets) if targets is not None else None

    start = (source, dfa.start)
    level = 0
    visited: Set[Tuple[Any, int]] = {start}
    frontier: Dict[Tuple[Any, int], int] = {start: 1}

    ec = _exec.current()
    col = ec.col
    gov = ec.gov
    if gov is not None:
        gov.charge_product_states(1)  # the start state
    peak_frontier = 1
    edges_scanned = 0
    try:
        while frontier:
            for (vid, q), count in frontier.items():
                hit = accepting.get(q)
                if hit is None:
                    hit = accepting[q] = dfa.is_accepting(q)
                if not hit:
                    continue
                if vid not in counts:
                    distances[vid] = level
                    counts[vid] = count
                    if remaining is not None:
                        remaining.discard(vid)
                elif distances[vid] == level:
                    counts[vid] += count
            if remaining is not None and not remaining:
                break
            if max_length is not None and level >= max_length:
                break
            next_frontier: Dict[Tuple[Any, int], int] = {}
            reached = next_frontier.get
            for (vid, q), count in frontier.items():
                plan = plans.get(q)
                if plan is None:
                    plan = plans[q] = column_plan(graph, dfa, q)
                for q2, probe in plan:
                    bucket = probe(vid)
                    if bucket is None:
                        continue
                    neighbors = bucket[0]
                    if col is not None:
                        edges_scanned += len(neighbors)
                    for neighbor in neighbors:
                        ps = (neighbor, q2)
                        if ps in visited:
                            continue
                        next_frontier[ps] = reached(ps, 0) + count
            level += 1
            visited.update(next_frontier)
            frontier = next_frontier
            if col is not None and len(frontier) > peak_frontier:
                peak_frontier = len(frontier)
            # Governed checkpoint once per BFS level (never per edge):
            # charge the newly visited product states — the Theorem 6.1
            # work unit — and check deadline/cancellation.
            if gov is not None and frontier:
                gov.charge_product_states(len(frontier))
            if _faults._PLAN is not None and frontier:
                _faults.fire("sdmc.level")
    finally:
        if col is not None:
            # Batched per call, never per edge: |visited| product states
            # is the work bound Theorem 6.1 argues about.  Flushed in a
            # finally so an aborted call still reports its partial work.
            col.count("sdmc.calls")
            col.count("sdmc.product_states", len(visited))
            col.count("sdmc.bfs_levels", level)
            col.count("sdmc.edges_scanned", edges_scanned)
            col.record_max("sdmc.frontier_peak", peak_frontier)

    return distances, counts


def single_source_sdmc(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    targets: Optional[Set[Any]] = None,
    max_length: Optional[int] = None,
) -> Dict[Any, SdmcResult]:
    """Single-source SDMC: shortest satisfying-path distance and count from
    ``source`` to every reachable target.

    Parameters
    ----------
    graph, source, darpe:
        The graph, the source vertex id, and the compiled DARPE.
    targets:
        Optional set of target vertex ids.  When given, the BFS stops as
        soon as every requested target has been resolved, and only those
        targets appear in the result.
    max_length:
        Optional cap on the path length explored (used by bounded-hop
        workloads; ``None`` explores the whole product graph).

    Returns
    -------
    dict mapping target vertex id to :class:`SdmcResult`.  Targets with no
    satisfying path are absent.
    """
    distances, counts = sdmc_search(graph, source, darpe, targets, max_length)
    return {
        vid: SdmcResult(distance, counts[vid])
        for vid, distance in distances.items()
        if targets is None or vid in targets
    }


def single_pair_sdmc(
    graph: Graph,
    source: Any,
    target: Any,
    darpe: CompiledDarpe,
    max_length: Optional[int] = None,
) -> Optional[SdmcResult]:
    """Single-pair SDMC: ``SDMC_d(s, t)`` with its distance, or ``None``
    when no satisfying path exists."""
    graph.vertex(target)
    found = single_source_sdmc(
        graph, source, darpe, targets={target}, max_length=max_length
    )
    return found.get(target)


def all_paths_sdmc(
    graph: Graph,
    darpe: CompiledDarpe,
    sources: Optional[Iterable[Any]] = None,
    max_length: Optional[int] = None,
) -> Dict[Tuple[Any, Any], SdmcResult]:
    """All-paths SDMC: the union of single-source results over all (or the
    given) sources, keyed by ``(source, target)``."""
    result: Dict[Tuple[Any, Any], SdmcResult] = {}
    source_ids = list(sources) if sources is not None else list(graph.vertex_ids())
    for source in source_ids:
        for target, res in single_source_sdmc(
            graph, source, darpe, max_length=max_length
        ).items():
            result[(source, target)] = res
    return result


# ----------------------------------------------------------------------
# Shortest-path DAG and enumeration (used to cross-check counts in tests
# and to exhibit witness paths when a user asks for them)
# ----------------------------------------------------------------------

class ShortestPathDag:
    """The DAG of shortest satisfying paths from one source.

    Nodes are product states ``(vertex, dfa_state)``; ``parents`` maps a
    product state to the list of ``(parent_state, edge)`` pairs lying on
    shortest paths.  Enumerating paths from this DAG touches only edges
    that participate in some shortest satisfying path, so enumeration is
    output-sensitive (linear work per emitted path).
    """

    def __init__(
        self,
        source: Any,
        distances: Dict[Tuple[Any, int], int],
        parents: Dict[Tuple[Any, int], List[Tuple[Tuple[Any, int], Any]]],
        accepting_by_vertex: Dict[Any, List[Tuple[Any, int]]],
        target_distance: Dict[Any, int],
    ):
        self.source = source
        self.distances = distances
        self.parents = parents
        self._accepting_by_vertex = accepting_by_vertex
        self._target_distance = target_distance

    def paths_to(self, target: Any) -> Iterator[List[Any]]:
        """Yield each shortest satisfying path to ``target`` as a list of
        edges, in source-to-target order."""
        dist = self._target_distance.get(target)
        if dist is None:
            return
        ends = [
            ps
            for ps in self._accepting_by_vertex.get(target, ())
            if self.distances[ps] == dist
        ]

        def walk(state: Tuple[Any, int]) -> Iterator[List[Any]]:
            if self.distances[state] == 0:
                yield []
                return
            for parent, edge in self.parents.get(state, ()):
                for prefix in walk(parent):
                    yield prefix + [edge]

        for end in ends:
            yield from walk(end)


def shortest_path_dag(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    max_length: Optional[int] = None,
) -> ShortestPathDag:
    """Build the shortest-satisfying-path DAG from ``source``.

    Same BFS as :func:`single_source_sdmc` over the same
    :func:`bucket_expander`, but retaining parent pointers so witness
    paths can be reconstructed.
    """
    graph.vertex(source)
    dfa = darpe.new_dfa()
    expand = bucket_expander(graph, dfa)
    edge_of = graph.edge
    start = (source, dfa.start)
    distances: Dict[Tuple[Any, int], int] = {start: 0}
    parents: Dict[Tuple[Any, int], List[Tuple[Tuple[Any, int], Any]]] = {}
    accepting_by_vertex: Dict[Any, List[Tuple[Any, int]]] = defaultdict(list)
    target_distance: Dict[Any, int] = {}

    def note_accepting(ps: Tuple[Any, int], level: int) -> None:
        vid, q = ps
        if dfa.is_accepting(q):
            accepting_by_vertex[vid].append(ps)
            if vid not in target_distance:
                target_distance[vid] = level

    note_accepting(start, 0)
    gov = _exec.current().gov
    if gov is not None:
        gov.charge_product_states(1)
    frontier = [start]
    level = 0
    while frontier:
        if max_length is not None and level >= max_length:
            break
        next_frontier: List[Tuple[Any, int]] = []
        for ps in frontier:
            for q2, (neighbors, eids) in expand(*ps):
                for neighbor, eid in zip(neighbors, eids):
                    child = (neighbor, q2)
                    known = distances.get(child)
                    if known is None:
                        distances[child] = level + 1
                        parents[child] = [(ps, edge_of(eid))]
                        next_frontier.append(child)
                        note_accepting(child, level + 1)
                    elif known == level + 1:
                        parents[child].append((ps, edge_of(eid)))
        level += 1
        frontier = next_frontier
        if gov is not None and frontier:
            gov.charge_product_states(len(frontier))
        if _faults._PLAN is not None and frontier:
            _faults.fire("sdmc.level")

    return ShortestPathDag(
        source, distances, parents, dict(accepting_by_vertex), target_distance
    )


def enumerate_shortest_paths(
    graph: Graph,
    source: Any,
    target: Any,
    darpe: CompiledDarpe,
    max_length: Optional[int] = None,
) -> Iterator[List[Any]]:
    """Yield every shortest satisfying path from ``source`` to ``target``
    as a list of edges (may be exponentially many — intended for tests and
    witness exhibition, never for aggregation)."""
    dag = shortest_path_dag(graph, source, darpe, max_length=max_length)
    yield from dag.paths_to(target)


__all__ = [
    "SdmcResult",
    "column_plan",
    "bucket_expander",
    "sdmc_search",
    "single_source_sdmc",
    "single_pair_sdmc",
    "all_paths_sdmc",
    "ShortestPathDag",
    "shortest_path_dag",
    "enumerate_shortest_paths",
]
