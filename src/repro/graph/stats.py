"""Graph statistics: the workload-characterization numbers benchmark
logs report (degree moments, clustering, components, distance profile),
plus the :class:`GraphStatsSnapshot` the static cost analysis consumes.

Undirected views treat every edge as a symmetric connection, matching
how the SNB KNOWS network is analyzed.
"""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from typing import Any, Dict, Iterable, NamedTuple, Optional, Set, Tuple

from .graph import Graph


def _undirected_neighbors(graph: Graph, etype: Optional[str]) -> Dict[Any, Set[Any]]:
    adjacency: Dict[Any, Set[Any]] = {v.vid: set() for v in graph.vertices()}
    for e in graph.edges(etype):
        if e.source != e.target:
            adjacency[e.source].add(e.target)
            adjacency[e.target].add(e.source)
    return adjacency


def density(graph: Graph) -> float:
    """Directed density |E| / (|V|·(|V|−1)); 0 for graphs with <2 vertices."""
    n = graph.num_vertices
    if n < 2:
        return 0.0
    return graph.num_edges / (n * (n - 1))


def average_degree(
    graph: Graph,
    etype: Optional[str] = None,
    adjacency: Optional[Dict[Any, Set[Any]]] = None,
) -> float:
    """Mean undirected degree over all vertices."""
    if adjacency is None:
        adjacency = _undirected_neighbors(graph, etype)
    if not adjacency:
        return 0.0
    return sum(len(nbrs) for nbrs in adjacency.values()) / len(adjacency)


def clustering_coefficient(
    graph: Graph,
    vid: Any,
    etype: Optional[str] = None,
    adjacency: Optional[Dict[Any, Set[Any]]] = None,
) -> float:
    """Local clustering: closed-pair fraction of the vertex's
    undirected neighborhood."""
    if adjacency is None:
        adjacency = _undirected_neighbors(graph, etype)
    neighbors = adjacency.get(vid, set())
    k = len(neighbors)
    if k < 2:
        return 0.0
    links = 0
    neighbor_list = sorted(neighbors, key=str)
    for i, a in enumerate(neighbor_list):
        for b in neighbor_list[i + 1 :]:
            if b in adjacency[a]:
                links += 1
    return 2 * links / (k * (k - 1))


def average_clustering(
    graph: Graph,
    etype: Optional[str] = None,
    adjacency: Optional[Dict[Any, Set[Any]]] = None,
) -> float:
    """Mean local clustering over all vertices (networkx's convention:
    degree-<2 vertices count as 0)."""
    if adjacency is None:
        adjacency = _undirected_neighbors(graph, etype)
    vertices = list(graph.vertex_ids())
    if not vertices:
        return 0.0
    return sum(
        clustering_coefficient(graph, v, etype, adjacency=adjacency)
        for v in vertices
    ) / len(vertices)


def _bfs_distances(adjacency: Dict[Any, Set[Any]], source: Any) -> Dict[Any, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for n in adjacency[v]:
            if n not in dist:
                dist[n] = dist[v] + 1
                queue.append(n)
    return dist


def eccentricity(
    graph: Graph,
    vid: Any,
    etype: Optional[str] = None,
    adjacency: Optional[Dict[Any, Set[Any]]] = None,
) -> int:
    """Greatest undirected hop distance from ``vid`` to any reachable
    vertex (0 for isolated vertices)."""
    if adjacency is None:
        adjacency = _undirected_neighbors(graph, etype)
    dist = _bfs_distances(adjacency, vid)
    return max(dist.values())


def diameter(
    graph: Graph,
    etype: Optional[str] = None,
    adjacency: Optional[Dict[Any, Set[Any]]] = None,
) -> int:
    """Largest eccentricity over the (largest) connected component.

    Exact all-pairs BFS — fine at this library's laptop scales.
    Disconnected pairs are ignored (the diameter of the graph's
    components' union).
    """
    if adjacency is None:
        adjacency = _undirected_neighbors(graph, etype)
    best = 0
    for source in adjacency:
        dist = _bfs_distances(adjacency, source)
        if dist:
            best = max(best, max(dist.values()))
    return best


def distance_histogram(
    graph: Graph,
    source: Any,
    etype: Optional[str] = None,
    adjacency: Optional[Dict[Any, Set[Any]]] = None,
) -> Dict[int, int]:
    """Hop distance -> vertex count, from one source (undirected)."""
    if adjacency is None:
        adjacency = _undirected_neighbors(graph, etype)
    hist: Dict[int, int] = {}
    for d in _bfs_distances(adjacency, source).values():
        hist[d] = hist.get(d, 0) + 1
    return hist


def describe(graph: Graph, etype: Optional[str] = None) -> Dict[str, Any]:
    """A one-call statistics summary (used by benchmark logs).

    The undirected adjacency map is built exactly once and threaded
    through every metric that needs it.
    """
    adjacency = _undirected_neighbors(graph, etype)
    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "density": round(density(graph), 6),
        "avg_degree": round(average_degree(graph, etype, adjacency=adjacency), 3),
        "avg_clustering": round(
            average_clustering(graph, etype, adjacency=adjacency), 4
        ),
        "diameter": diameter(graph, etype, adjacency=adjacency),
    }


# ---------------------------------------------------------------------------
# GraphStatsSnapshot — the statistics input of repro.analysis.cost
# ---------------------------------------------------------------------------


class GraphStatsSnapshot(NamedTuple):
    """An immutable, fingerprint-keyed statistics summary of one graph.

    This is the *only* graph-shaped input the static cost analysis sees:
    per-type vertex/edge counts, per-edge-type out-degree maxima/sums,
    the global out-degree histogram, and — for equality-filter
    selectivity — the maximum frequency of any single value per
    ``(vertex type, attribute)`` pair.  The fingerprint keys PlanCache
    entries so a cached :class:`CostCertificate` is reused only while
    the statistics it was computed from are still current.
    """

    vertex_counts: Tuple[Tuple[str, int], ...]
    edge_counts: Tuple[Tuple[str, int], ...]
    total_vertices: int
    total_edges: int
    #: per edge type: (max out-degree over source vertices, total edges)
    out_degree: Tuple[Tuple[str, Tuple[int, int]], ...]
    #: per edge type: (max in-degree over target vertices, total edges)
    in_degree: Tuple[Tuple[str, Tuple[int, int]], ...]
    #: out-degree value -> vertex count, over all edge types
    degree_histogram: Tuple[Tuple[int, int], ...]
    #: (vertex type, attribute) -> max frequency of any single value
    attr_max_freq: Tuple[Tuple[Tuple[str, str], int], ...]
    fingerprint: str

    # NamedTuple keeps the snapshot hashable/immutable; dict views are
    # reconstructed on demand for ergonomic lookups.
    def vertices_of(self, vtype: Optional[str]) -> int:
        if vtype is None:
            return self.total_vertices
        return dict(self.vertex_counts).get(vtype, 0)

    def edges_of(self, etype: Optional[str]) -> int:
        if etype is None:
            return self.total_edges
        return dict(self.edge_counts).get(etype, 0)

    def max_out_degree(self, etype: Optional[str]) -> int:
        table = dict(self.out_degree)
        if etype is None:
            return max((m for m, _ in table.values()), default=0)
        return table.get(etype, (0, 0))[0]

    def max_in_degree(self, etype: Optional[str]) -> int:
        table = dict(self.in_degree)
        if etype is None:
            return max((m for m, _ in table.values()), default=0)
        return table.get(etype, (0, 0))[0]

    def fan_out(self, etype: Optional[str], direction: str) -> int:
        """Max per-vertex fan-out traversing ``etype`` with a direction
        adornment (">" along, "<" against, "-" either way)."""
        if direction == ">":
            return self.max_out_degree(etype)
        if direction == "<":
            return self.max_in_degree(etype)
        return self.max_out_degree(etype) + self.max_in_degree(etype)

    def max_value_frequency(self, vtype: str, attr: str) -> Optional[int]:
        """Max multiplicity of any single value of ``attr`` on ``vtype``
        (``None`` when the attribute was not profiled)."""
        return dict(self.attr_max_freq).get((vtype, attr))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "vertex_counts": dict(self.vertex_counts),
            "edge_counts": dict(self.edge_counts),
            "total_vertices": self.total_vertices,
            "total_edges": self.total_edges,
            "out_degree": {k: list(v) for k, v in self.out_degree},
            "in_degree": {k: list(v) for k, v in self.in_degree},
            "degree_histogram": {str(k): v for k, v in self.degree_histogram},
            "fingerprint": self.fingerprint,
        }


class _Tally:
    """``key -> positive count`` with a count-of-counts table beside it
    (``sizes[c]`` = how many keys currently have count ``c``), so the
    maximum count is kept in O(1) under decrements as well: a count
    moves by one, so when the last key leaves the top size the new
    maximum is the size just below it."""

    __slots__ = ("counts", "sizes", "max")

    def __init__(self, counts: Optional[Dict[Any, int]] = None) -> None:
        self.counts: Dict[Any, int] = counts if counts is not None else {}
        self.sizes: Dict[int, int] = dict(Counter(self.counts.values()))
        self.max = max(self.sizes, default=0)

    def bump(self, key: Any, step: int) -> None:
        """Count ``key`` once more (``step`` +1) or once less (-1).
        Taking from a key that was never counted raises ``KeyError`` —
        the caller's signal that the counts no longer describe the
        graph."""
        old = self.counts[key] if step < 0 else self.counts.get(key, 0)
        new = old + step
        if new:
            self.counts[key] = new
        else:
            del self.counts[key]
        sizes = self.sizes
        if old:
            if sizes[old] == 1:
                del sizes[old]
                if old == self.max:
                    self.max = new
            else:
                sizes[old] -= 1
        if new:
            sizes[new] = sizes.get(new, 0) + 1
            if new > self.max:
                self.max = new


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _bump(table: Dict[str, int], key: str, step: int) -> None:
    """``table[key] += step``, keeping no zero rows; taking from a row
    that is not there raises ``KeyError``."""
    count = (table[key] if step < 0 else table.get(key, 0)) + step
    if count:
        table[key] = count
    else:
        del table[key]


class GraphStats:
    """The counts behind a :class:`GraphStatsSnapshot`, in a form that
    can follow a graph through mutations: built once by one pass over
    vertices and one over edges, then advanced element by element
    (:meth:`advance`) — O(changed elements), never a rescan.

    Out-/in-degree follow the edge list (an edge counts once at its
    ``source`` and once at its ``target``, whatever its kind), as the
    cost analysis expects.
    """

    __slots__ = ("vertex_counts", "edge_counts", "out", "into", "total_out", "attrs")

    def __init__(self, graph: Graph) -> None:
        vertex_counts: Dict[str, int] = {}
        attr_freq: Dict[Tuple[str, str], Dict[Any, int]] = {}
        for v in graph.vertices():
            vertex_counts[v.type] = vertex_counts.get(v.type, 0) + 1
            for attr, value in v.attrs.items():
                if _hashable(value):
                    bucket = attr_freq.setdefault((v.type, attr), {})
                    bucket[value] = bucket.get(value, 0) + 1
        edge_counts: Dict[str, int] = {}
        outdeg: Dict[str, Dict[Any, int]] = {}
        indeg: Dict[str, Dict[Any, int]] = {}
        total_out: Dict[Any, int] = {}
        for e in graph.edges():
            edge_counts[e.type] = edge_counts.get(e.type, 0) + 1
            per_src = outdeg.setdefault(e.type, {})
            per_src[e.source] = per_src.get(e.source, 0) + 1
            per_tgt = indeg.setdefault(e.type, {})
            per_tgt[e.target] = per_tgt.get(e.target, 0) + 1
            total_out[e.source] = total_out.get(e.source, 0) + 1
        #: vertex type -> vertices of it / edge type -> edges of it
        self.vertex_counts = vertex_counts
        self.edge_counts = edge_counts
        #: edge type -> tally of source (``out``) / target (``into``) ids
        self.out = {etype: _Tally(per) for etype, per in outdeg.items()}
        self.into = {etype: _Tally(per) for etype, per in indeg.items()}
        #: tally of source ids over all edge types; its count-of-counts
        #: table *is* the out-degree histogram above degree 0
        self.total_out = _Tally(total_out)
        #: (vertex type, attribute) -> tally of the hashable values
        self.attrs = {key: _Tally(bucket) for key, bucket in attr_freq.items()}

    # -- one element in or out -----------------------------------------
    def _vertex(self, v: Any, step: int) -> None:
        _bump(self.vertex_counts, v.type, step)
        for attr, value in v.attrs.items():
            if _hashable(value):
                self._tally(self.attrs, (v.type, attr), value, step)

    def _edge(self, e: Any, step: int) -> None:
        _bump(self.edge_counts, e.type, step)
        self._tally(self.out, e.type, e.source, step)
        self._tally(self.into, e.type, e.target, step)
        self.total_out.bump(e.source, step)

    @staticmethod
    def _tally(table: Dict[Any, _Tally], name: Any, key: Any, step: int) -> None:
        """Bump ``key`` in ``table[name]``, keeping no empty tallies."""
        tally = table.get(name)
        if tally is None:
            if step < 0:
                raise KeyError(name)
            tally = table[name] = _Tally()
        tally.bump(key, step)
        if not tally.counts:
            del table[name]

    def advance(
        self,
        base: Graph,
        new: Graph,
        vertex_ids: Iterable[Any],
        edge_ids: Iterable[int],
    ) -> None:
        """Move the counts from describing ``base`` to describing
        ``new``, given the ids under which the two may differ: each id's
        element in ``base`` is taken out and its element in ``new`` put
        in (either may be absent; the same object on both sides is no
        change).  A ``KeyError`` means the counts did not describe
        ``base`` — they are then unusable and the caller drops them."""
        for ids, old_of, new_of, move in (
            (vertex_ids, base._vertices, new._vertices, self._vertex),
            (edge_ids, base._edges, new._edges, self._edge),
        ):
            for ident in ids:
                old = old_of.get(ident)
                cur = new_of.get(ident)
                if old is cur:
                    continue
                if old is not None:
                    move(old, -1)
                if cur is not None:
                    move(cur, +1)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> GraphStatsSnapshot:
        total_vertices = sum(self.vertex_counts.values())
        edge_counts = self.edge_counts
        vertex_counts = sorted(self.vertex_counts.items())
        edge_rows = sorted(edge_counts.items())
        out_degree = sorted(
            (etype, (tally.max, edge_counts[etype]))
            for etype, tally in self.out.items()
        )
        in_degree = sorted(
            (etype, (tally.max, edge_counts[etype]))
            for etype, tally in self.into.items()
        )
        hist = dict(self.total_out.sizes)
        isolated = total_vertices - len(self.total_out.counts)
        if isolated:
            hist[0] = isolated
        histogram = sorted(hist.items())
        attr_max = sorted((key, tally.max) for key, tally in self.attrs.items())

        digest = hashlib.blake2b(digest_size=12)
        for part in (
            vertex_counts, edge_rows, out_degree, in_degree, histogram, attr_max
        ):
            digest.update(repr(part).encode())
        return GraphStatsSnapshot(
            vertex_counts=tuple(vertex_counts),
            edge_counts=tuple(edge_rows),
            total_vertices=total_vertices,
            total_edges=sum(edge_counts.values()),
            out_degree=tuple(out_degree),
            in_degree=tuple(in_degree),
            degree_histogram=tuple(histogram),
            attr_max_freq=tuple(attr_max),
            fingerprint=digest.hexdigest(),
        )


class CarriedStats(NamedTuple):
    """What a graph version carries in ``Graph._stats``: its immutable
    snapshot, and — on the newest version of a lineage only — the
    mutable counts the next commit advances (``None`` once they have
    moved on to a later version)."""

    snapshot: GraphStatsSnapshot
    counts: Optional[GraphStats]


def stats_snapshot(graph: Graph) -> GraphStatsSnapshot:
    """The :class:`GraphStatsSnapshot` of ``graph``.

    A version that carries its statistics — every version a
    :class:`~repro.graph.mutation.GraphStore` publishes once its
    lineage has been profiled, and any graph profiled before — answers
    in O(1).  Otherwise the counts are built from scratch (one pass over
    vertices, one over edges), the snapshot is read off them, and both
    ride on the graph until a mutator drops them.
    """
    carried = graph._stats
    if carried is None:
        counts = GraphStats(graph)
        carried = graph._stats = CarriedStats(counts.snapshot(), counts)
    return carried.snapshot


__all__ = [
    "density",
    "average_degree",
    "clustering_coefficient",
    "average_clustering",
    "eccentricity",
    "diameter",
    "distance_histogram",
    "describe",
    "GraphStatsSnapshot",
    "GraphStats",
    "CarriedStats",
    "stats_snapshot",
]
