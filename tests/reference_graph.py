"""The per-vertex bucket storage ``repro.graph.Graph`` kept before
adjacency moved to one column per ``(direction, edge type)``, and the
SDMC search that walked it — the oracle of
``test_graph_columns_differential.py``.

Adjacency here is ``vertex id -> direction -> edge type -> [Step]``: every
vertex owns its buckets, a :class:`Step` points at its :class:`Edge`
object, and the order edge types come in is each *vertex's* first-seen
order.  There is no copy-on-write (``clone`` is a deep copy), no schema
and no statistics: only what a reader can observe of the graph.

The shipped kernels read ``Graph.columns``; :meth:`ReferenceGraph.columns`
answers that call by transposing the per-vertex buckets on demand, so the
shipped pattern matcher can run over this storage and a difference
between the two graphs is a difference in what adjacency *holds*.
:func:`reference_sdmc` shares nothing with the shipped search.
"""

import copy
from collections import defaultdict

from repro.darpe.automaton import LazyDFA
from repro.errors import GraphError
from repro.graph.elements import FORWARD, REVERSE, UNDIRECTED, Edge, Step, Vertex


class ReferenceGraph:
    schema = None

    def __init__(self, name="Graph"):
        self.name = name
        self.epoch = 0
        self._vertices = {}
        self._edges = {}
        self._next_eid = 0
        # vertex id -> direction -> edge type -> list of Steps
        self._adjacency = {}
        self._edge_type_directed = {}

    # -- construction and mutation -------------------------------------
    def add_vertex(self, vid, vtype, **attrs):
        if vid in self._vertices:
            raise GraphError(f"vertex id {vid!r} already exists")
        vertex = self._vertices[vid] = Vertex(vid, vtype, attrs)
        self._adjacency[vid] = {
            FORWARD: defaultdict(list),
            REVERSE: defaultdict(list),
            UNDIRECTED: defaultdict(list),
        }
        return vertex

    def add_edge(self, source, target, etype, directed=None, **attrs):
        self.vertex(source)
        self.vertex(target)
        if directed is None:
            directed = self._edge_type_directed.get(etype, True)
        if self._edge_type_directed.setdefault(etype, directed) != directed:
            raise GraphError(f"edge type {etype!r} used with inconsistent directedness")
        eid = self._next_eid
        self._next_eid += 1
        edge = self._edges[eid] = Edge(eid, etype, source, target, directed, attrs)
        if directed:
            self._adjacency[source][FORWARD][etype].append(Step(edge, FORWARD, target))
            self._adjacency[target][REVERSE][etype].append(Step(edge, REVERSE, source))
        else:
            self._adjacency[source][UNDIRECTED][etype].append(
                Step(edge, UNDIRECTED, target)
            )
            if source != target:
                self._adjacency[target][UNDIRECTED][etype].append(
                    Step(edge, UNDIRECTED, source)
                )
        return edge

    def upsert_vertex(self, vid, vtype=None, **attrs):
        existing = self._vertices.get(vid)
        if existing is None:
            if vtype is None:
                raise GraphError(f"vertex {vid!r} does not exist")
            return self.add_vertex(vid, vtype, **attrs), True
        if vtype is not None and vtype != existing.type:
            raise GraphError(f"vertex {vid!r} has type {existing.type!r}")
        existing.attrs.update(attrs)
        return existing, False

    def upsert_edge(self, source, target, etype, directed=None, **attrs):
        matches = self.find_edges(source, target, etype)
        if not matches:
            return self.add_edge(source, target, etype, directed=directed, **attrs), True
        edge = matches[0]
        if directed is not None and directed != edge.directed:
            raise GraphError(f"edge {source!r}-{target!r} cannot change directedness")
        edge.attrs.update(attrs)
        return edge, False

    def delete_edge(self, eid):
        edge = self.edge(eid)
        del self._edges[eid]
        if edge.directed:
            self._drop_step(edge.source, FORWARD, edge.type, eid)
            self._drop_step(edge.target, REVERSE, edge.type, eid)
        else:
            self._drop_step(edge.source, UNDIRECTED, edge.type, eid)
            if edge.source != edge.target:
                self._drop_step(edge.target, UNDIRECTED, edge.type, eid)
        return edge

    def delete_vertex(self, vid):
        self.vertex(vid)
        cascaded = sorted({step.edge.eid for step in self.steps(vid)})
        for eid in cascaded:
            self.delete_edge(eid)
        del self._adjacency[vid]
        del self._vertices[vid]
        return cascaded

    def _drop_step(self, vid, direction, etype, eid):
        buckets = self._adjacency[vid][direction]
        bucket = buckets.get(etype)
        if bucket is not None:
            bucket[:] = [step for step in bucket if step.edge.eid != eid]
            if not bucket:
                del buckets[etype]

    def clone(self):
        return copy.deepcopy(self)

    # -- lookup --------------------------------------------------------
    def vertex(self, vid):
        try:
            return self._vertices[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def has_vertex(self, vid):
        return vid in self._vertices

    def edge(self, eid):
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid!r}") from None

    def vertices(self, vtype=None):
        return (v for v in self._vertices.values() if vtype is None or v.type == vtype)

    def vertex_ids(self):
        return iter(self._vertices)

    def count_vertices(self, vtype=None):
        return sum(1 for _ in self.vertices(vtype))

    def edges(self):
        return iter(self._edges.values())

    # -- traversal -----------------------------------------------------
    def buckets(self, vid):
        try:
            return self._adjacency[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def steps(self, vid, direction=None, etype=None):
        adjacency = self.buckets(vid)
        for d in (direction,) if direction else (FORWARD, REVERSE, UNDIRECTED):
            buckets = adjacency[d]
            if etype is not None:
                yield from buckets.get(etype, ())
            else:
                for bucket in buckets.values():
                    yield from bucket

    def outdegree(self, vid, etype=None):
        return sum(1 for d in (FORWARD, UNDIRECTED) for _ in self.steps(vid, d, etype))

    def indegree(self, vid, etype=None):
        return sum(1 for d in (REVERSE, UNDIRECTED) for _ in self.steps(vid, d, etype))

    def neighbors(self, vid, direction=None, etype=None):
        seen = set()
        for step in self.steps(vid, direction, etype):
            if step.neighbor not in seen:
                seen.add(step.neighbor)
                yield self._vertices[step.neighbor]

    def find_edges(self, source, target, etype):
        adjacency = self._adjacency.get(source)
        if adjacency is None:
            return []
        found = [
            step.edge
            for direction in (FORWARD, UNDIRECTED)
            for step in adjacency[direction].get(etype, ())
            if step.neighbor == target
        ]
        found.sort(key=lambda e: e.eid)
        return found

    # -- the shipped kernels' seam, answered by transposition ----------
    def columns(self, direction):
        by_type = {}
        for vid, adjacency in self._adjacency.items():
            for etype, steps in adjacency[direction].items():
                by_type.setdefault(etype, {})[vid] = (
                    [step.neighbor for step in steps],
                    [step.edge.eid for step in steps],
                )
        return by_type

    def vertex_getter(self):
        return self._vertices.__getitem__


def reference_sdmc(graph, source, darpe, targets=None, max_length=None, etype_order=None):
    """The level-synchronised product BFS as it walked per-vertex
    buckets: ``({target: (distance, count)}, counters)`` where the
    counters are what the shipped search reports as ``sdmc.*``.  The
    result lists targets in the order the search resolved them; with
    ``targets`` it stops once each is resolved and keeps only those.

    ``etype_order`` maps a direction to the edge types in the order the
    other graph lists its columns: a vertex's buckets are walked in that
    order instead of its own first-seen one (which order a graph keeps
    is a fact of its history, not of what it holds)."""
    graph.vertex(source)
    dfa = darpe.new_dfa()
    start = (source, dfa.start)
    visited = {start}
    frontier = {start: 1}
    results = {}
    remaining = set(targets) if targets is not None else None
    level = 0
    edges_scanned = 0
    peak = 1

    def record(states):
        per_vertex = defaultdict(int)
        for (vid, q), count in states.items():
            if dfa.is_accepting(q):
                per_vertex[vid] += count
        for vid, count in per_vertex.items():
            results.setdefault(vid, (level, count))
            if remaining is not None:
                remaining.discard(vid)

    def buckets(vid, direction):
        held = graph.buckets(vid)[direction]
        if etype_order is None:
            return held.items()
        return [(etype, held[etype]) for etype in etype_order[direction] if etype in held]

    record(frontier)
    while frontier and (max_length is None or level < max_length):
        if remaining is not None and not remaining:
            break
        next_frontier = defaultdict(int)
        for (vid, q), count in frontier.items():
            for direction in dfa.directions(q):
                for etype, bucket in buckets(vid, direction):
                    q2 = dfa.step(q, (etype, direction))
                    if q2 == LazyDFA.DEAD:
                        continue
                    edges_scanned += len(bucket)
                    for step in bucket:
                        ps = (step.neighbor, q2)
                        if ps not in visited:
                            next_frontier[ps] += count
        level += 1
        visited.update(next_frontier)
        record(next_frontier)
        frontier = next_frontier
        peak = max(peak, len(frontier))
    if targets is not None:
        results = {vid: found for vid, found in results.items() if vid in targets}
    return results, {
        "sdmc.calls": 1,
        "sdmc.product_states": len(visited),
        "sdmc.bfs_levels": level,
        "sdmc.edges_scanned": edges_scanned,
        "sdmc.frontier_peak": peak,
    }
