"""Enumeration-based pattern matching — the exponential baselines.

This module implements DARPE matching the way enumeration-based engines
(the paper uses Neo4j as the reference) do: by *materializing* each legal
path.  It supports every legality flavor of Section 6.1, including an
enumerated variant of all-shortest-paths that mirrors how Neo4j evaluates
``allShortestPaths`` (find the shortest length, then enumerate every path
of that length) — the paper's Table 1 shows this is still exponential.

The counting engine in :mod:`repro.paths.sdmc` is the tractable
alternative; this module exists to reproduce the *other* columns of the
paper's experiments and to cross-validate counts on small graphs.

Every entry point accepts a ``budget`` — a cap on the number of search
nodes expanded — so the intentionally-exponential baselines fail fast and
reportably (:class:`~repro.errors.EvaluationBudgetExceeded`) instead of
hanging, mirroring the 10-minute timeout used in the paper.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set

from .. import _exec
from ..darpe.automaton import CompiledDarpe
from ..errors import EvaluationBudgetExceeded, QueryRuntimeError
from ..governor import faults as _faults
from ..graph.elements import Edge
from ..graph.graph import Graph
from ..paths.sdmc import bucket_expander, single_source_sdmc
from ..paths.semantics import PathSemantics


class PathMatch(NamedTuple):
    """One materialized legal path matching a DARPE."""

    source: Any
    target: Any
    edges: tuple
    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.edges)


class _Budget:
    """Mutable expansion counter shared across one evaluation."""

    __slots__ = ("limit", "expanded")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.expanded = 0

    def charge(self) -> None:
        self.expanded += 1
        if self.limit is not None and self.expanded > self.limit:
            raise EvaluationBudgetExceeded(
                f"enumeration budget of {self.limit} search nodes exhausted "
                f"(the baselines are exponential by design; raise the budget "
                f"or switch to the counting engine)",
                expanded=self.expanded,
            )
        if _faults._PLAN is not None:
            _faults.fire("enum.expand")
        if not (self.expanded & 0xFF):
            # Deadline/cancellation checkpoint every 256 expanded nodes:
            # frequent enough to abort a blow-up promptly, rare enough to
            # keep the per-node cost to a bit test.
            gov = _exec.current().gov
            if gov is not None:
                gov.tick()


def enumerate_matches(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    semantics: PathSemantics = PathSemantics.NO_REPEATED_EDGE,
    targets: Optional[Set[Any]] = None,
    max_length: Optional[int] = None,
    budget: Optional[int] = None,
) -> Iterator[PathMatch]:
    """Yield every legal path from ``source`` satisfying ``darpe``.

    Parameters
    ----------
    semantics:
        Which paths are legal.  :data:`PathSemantics.UNRESTRICTED` requires
        ``max_length`` (otherwise cyclic graphs yield infinitely many
        matches — Example 8 of the paper).
    targets:
        Restrict yielded matches to these target vertices (the search
        still explores everything reachable, as a real engine must).
    budget:
        Cap on expanded search nodes; see module docstring.
    """
    if semantics is PathSemantics.EXISTENCE:
        raise QueryRuntimeError(
            "existence semantics does not enumerate paths; use match_counts"
        )
    if semantics is PathSemantics.UNRESTRICTED and max_length is None:
        raise QueryRuntimeError(
            "unrestricted semantics needs an explicit max_length bound "
            "(cycles yield infinitely many matching walks)"
        )
    tracker = _Budget(budget)
    if semantics is PathSemantics.ALL_SHORTEST:
        inner = _enumerate_shortest(
            graph, source, darpe, targets, max_length, tracker
        )
    else:
        inner = _enumerate_dfs(
            graph, source, darpe, semantics, targets, max_length, tracker
        )
    ec = _exec.current()
    col = ec.col
    gov = ec.gov
    if col is None and gov is None:
        yield from inner
        return
    # Report once per evaluation (also on budget blow-up, governor abort
    # or early close): expanded search nodes is the paper's
    # exponential-cost witness.
    emitted = 0
    try:
        for match in inner:
            emitted += 1
            if gov is not None:
                # Charge each *materialized* path against the budget —
                # PathFinder-style explicit bounding of materialization.
                gov.charge_paths(1)
            yield match
    finally:
        if col is not None:
            col.count("enum.calls")
            col.count("enum.nodes_expanded", tracker.expanded)
            col.count("enum.paths_emitted", emitted)


def _emit(source: Any, vid: Any, path: List[Edge], path_vertices: List[Any]) -> PathMatch:
    return PathMatch(source, vid, tuple(path), tuple(path_vertices))


def _enumerate_dfs(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    semantics: PathSemantics,
    targets: Optional[Set[Any]],
    max_length: Optional[int],
    tracker: _Budget,
) -> Iterator[PathMatch]:
    """Backtracking DFS for the unrestricted/simple-path/trail flavors."""
    dfa = darpe.new_dfa()
    expand = bucket_expander(graph, dfa)
    edge_of = graph.edge
    path: List[Edge] = []
    path_vertices: List[Any] = [source]
    used_edges: Set[int] = set()
    used_vertices: Set[Any] = {source}
    forbid_vertex = semantics is PathSemantics.NO_REPEATED_VERTEX
    forbid_edge = semantics is PathSemantics.NO_REPEATED_EDGE

    def dfs(vid: Any, state: int) -> Iterator[PathMatch]:
        tracker.charge()
        if dfa.is_accepting(state) and (targets is None or vid in targets):
            yield _emit(source, vid, path, path_vertices)
        if max_length is not None and len(path) >= max_length:
            return
        for next_state, (neighbors, eids) in expand(vid, state):
            for neighbor, eid in zip(neighbors, eids):
                if forbid_edge and eid in used_edges:
                    continue
                if forbid_vertex and neighbor in used_vertices:
                    continue
                path.append(edge_of(eid))
                path_vertices.append(neighbor)
                used_edges.add(eid)
                added_vertex = neighbor not in used_vertices
                if added_vertex:
                    used_vertices.add(neighbor)
                yield from dfs(neighbor, next_state)
                path.pop()
                path_vertices.pop()
                used_edges.discard(eid)
                if added_vertex:
                    used_vertices.discard(neighbor)

    yield from dfs(source, dfa.start)


def _enumerate_shortest(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    targets: Optional[Set[Any]],
    max_length: Optional[int],
    tracker: _Budget,
) -> Iterator[PathMatch]:
    """Enumerated all-shortest-paths: the Neo4j-style evaluation.

    Phase 1 finds each target's shortest satisfying length (a cheap BFS);
    phase 2 enumerates *every* walk up to the deepest needed length and
    emits those that are accepting at exactly their target's shortest
    length.  Phase 2 is exponential when shortest paths are plentiful —
    exactly the behaviour Table 1's fourth column documents.
    """
    distances = {
        vid: res.distance
        for vid, res in single_source_sdmc(
            graph, source, darpe, targets=targets, max_length=max_length
        ).items()
    }
    if not distances:
        return
    horizon = max(distances.values())
    dfa = darpe.new_dfa()
    expand = bucket_expander(graph, dfa)
    edge_of = graph.edge
    path: List[Edge] = []
    path_vertices: List[Any] = [source]

    def dfs(vid: Any, state: int) -> Iterator[PathMatch]:
        tracker.charge()
        if (
            dfa.is_accepting(state)
            and distances.get(vid) == len(path)
            and (targets is None or vid in targets)
        ):
            yield _emit(source, vid, path, path_vertices)
        if len(path) >= horizon:
            return
        for next_state, (neighbors, eids) in expand(vid, state):
            for neighbor, eid in zip(neighbors, eids):
                path.append(edge_of(eid))
                path_vertices.append(neighbor)
                yield from dfs(neighbor, next_state)
                path.pop()
                path_vertices.pop()

    yield from dfs(source, dfa.start)


def match_counts(
    graph: Graph,
    source: Any,
    darpe: CompiledDarpe,
    semantics: PathSemantics,
    targets: Optional[Set[Any]] = None,
    max_length: Optional[int] = None,
    budget: Optional[int] = None,
) -> Dict[Any, int]:
    """Per-target match multiplicities under the chosen semantics.

    For :data:`PathSemantics.EXISTENCE` this uses the polynomial counting
    machinery (multiplicity clamps to 1, per SparQL).  For every other
    flavor it *enumerates* — deliberately, as this function implements the
    baselines.  Library users who want tractable all-shortest-path counts
    should call :func:`repro.paths.single_source_sdmc` instead.
    """
    if semantics is PathSemantics.EXISTENCE:
        reachable = single_source_sdmc(
            graph, source, darpe, targets=targets, max_length=max_length
        )
        return {vid: 1 for vid in reachable}
    counts: Dict[Any, int] = {}
    for match in enumerate_matches(
        graph, source, darpe, semantics, targets, max_length, budget
    ):
        counts[match.target] = counts.get(match.target, 0) + 1
    return counts


__all__ = ["PathMatch", "enumerate_matches", "match_counts"]
