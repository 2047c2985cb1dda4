"""The in-memory property graph.

:class:`Graph` stores typed vertices and typed (directed or undirected)
edges and maintains an adjacency index keyed by ``(edge type, direction)``
so that DARPE evaluation can expand a frontier one adorned symbol at a
time without scanning unrelated edges.

Vertex ids are arbitrary hashable values chosen by the caller; edge ids are
integers assigned by the graph.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import GraphError, SchemaError
from .elements import FORWARD, REVERSE, UNDIRECTED, Edge, Step, Vertex
from .schema import GraphSchema


class _Ownership:
    """What a graph has made private since :meth:`Graph.clone` last left
    it sharing every element with another version.

    ``vertices`` / ``edges`` hold the ids this graph has written —
    copied for an attribute update, inserted, or deleted — so they
    double as the change set the mutation layer diffs two versions by.
    ``adjacency`` holds the vertex ids whose bucket map is private and
    ``types`` the vertex types whose id list is.  ``copied`` counts the
    shared elements that had to be copied before a write.
    """

    __slots__ = ("vertices", "edges", "adjacency", "types", "copied")

    def __init__(self) -> None:
        self.vertices: Set[Any] = set()
        self.edges: Set[int] = set()
        self.adjacency: Set[Any] = set()
        self.types: Set[str] = set()
        self.copied = 0


class Graph:
    """A mixed-kind property graph.

    Parameters
    ----------
    schema:
        Optional :class:`~repro.graph.schema.GraphSchema`.  When provided,
        every insertion is validated against it; when omitted, types are
        registered implicitly on first use (schema-free mode).
    name:
        A display name, used in error messages and query headers.
    """

    def __init__(self, schema: Optional[GraphSchema] = None, name: Optional[str] = None):
        self.schema = schema
        self.name = name or (schema.name if schema else "Graph")
        #: Mutation epoch: 0 for a freshly built graph; every committed
        #: :class:`~repro.graph.mutation.MutationBatch` bumps it by one.
        #: Readers pin an epoch through a GraphStore to get snapshot
        #: isolation; the WAL stamps each record with the epoch it
        #: produces, which is what crash recovery replays against.
        self.epoch = 0
        self._vertices: Dict[Any, Vertex] = {}
        self._edges: Dict[int, Edge] = {}
        self._next_eid = 0
        # vertex id -> direction -> edge type -> list of Steps
        self._adjacency: Dict[Any, Dict[str, Dict[str, List[Step]]]] = {}
        # vertex type -> list of vertex ids (insertion order)
        self._by_type: Dict[str, List[Any]] = defaultdict(list)
        # edge type -> directedness actually observed (for schema-free mode)
        self._edge_type_directed: Dict[str, bool] = {}
        # None until the first clone(): every element is this graph's own
        # and mutators write in place.  After a clone, the record of what
        # has been made private again (copy-on-write).
        self._own: Optional[_Ownership] = None
        # Statistics carried by this version (repro.graph.stats owns the
        # shape); every mutator drops them.
        self._stats: Any = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vid: Any, vtype: str, **attrs: Any) -> Vertex:
        """Insert a vertex; raises :class:`GraphError` on duplicate id."""
        if vid in self._vertices:
            raise GraphError(f"vertex id {vid!r} already exists")
        if self.schema is not None:
            vt = self.schema.vertex_type(vtype)
            attrs = vt.validate_attrs(attrs)
        vertex = Vertex(vid, vtype, attrs)
        self._stats = None
        self._vertices[vid] = vertex
        own = self._own
        if own is None:
            self._by_type[vtype].append(vid)
        else:
            own.vertices.add(vid)
            own.adjacency.add(vid)
            self._writable_type_list(vtype).append(vid)
        self._adjacency[vid] = {
            FORWARD: defaultdict(list),
            REVERSE: defaultdict(list),
            UNDIRECTED: defaultdict(list),
        }
        return vertex

    def add_edge(
        self,
        source: Any,
        target: Any,
        etype: str,
        directed: Optional[bool] = None,
        **attrs: Any,
    ) -> Edge:
        """Insert an edge between two existing vertices.

        ``directed`` defaults to the schema's declaration when a schema is
        present, and to ``True`` otherwise.
        """
        src = self.vertex(source)
        tgt = self.vertex(target)
        if self.schema is not None:
            et = self.schema.edge_type(etype)
            if directed is None:
                directed = et.directed
            elif directed != et.directed:
                raise SchemaError(
                    f"edge type {etype!r} is declared "
                    f"{'directed' if et.directed else 'undirected'}"
                )
            et.validate_endpoints(src.type, tgt.type)
            attrs = et.validate_attrs(attrs)
        else:
            if directed is None:
                directed = self._edge_type_directed.get(etype, True)
            observed = self._edge_type_directed.setdefault(etype, directed)
            if observed != directed:
                raise GraphError(
                    f"edge type {etype!r} used with inconsistent directedness"
                )
        eid = self._next_eid
        self._next_eid += 1
        edge = Edge(eid, etype, source, target, directed, attrs)
        self._stats = None
        self._edges[eid] = edge
        own = self._own
        if own is not None:
            own.edges.add(eid)
            self._writable_buckets(source)
            self._writable_buckets(target)
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

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def upsert_vertex(
        self, vid: Any, vtype: Optional[str] = None, **attrs: Any
    ) -> Tuple[Vertex, bool]:
        """Insert or update a vertex; returns ``(vertex, created)``.

        An existing vertex keeps its type (``vtype`` must match when
        given) and merges ``attrs`` over its current attribute map — the
        TigerGraph upsert contract.  A new vertex needs ``vtype``.
        """
        existing = self._vertices.get(vid)
        if existing is not None:
            if vtype is not None and vtype != existing.type:
                raise GraphError(
                    f"vertex {vid!r} has type {existing.type!r}; an upsert "
                    f"cannot change it to {vtype!r}"
                )
            if attrs:
                if self.schema is not None:
                    vt = self.schema.vertex_type(existing.type)
                    validated = vt.validate_attrs(attrs)
                    attrs = {key: validated[key] for key in attrs}
                existing = self._writable_vertex(existing)
                existing.attrs.update(attrs)
            return existing, False
        if vtype is None:
            raise GraphError(
                f"vertex {vid!r} does not exist; an inserting upsert "
                f"needs a vertex type"
            )
        return self.add_vertex(vid, vtype, **attrs), True

    def upsert_edge(
        self,
        source: Any,
        target: Any,
        etype: str,
        directed: Optional[bool] = None,
        **attrs: Any,
    ) -> Tuple[Edge, bool]:
        """Insert or update an edge; returns ``(edge, created)``.

        Edge identity for upserts is ``(source, target, type)`` —
        unordered for undirected types.  When a matching edge exists its
        attributes are merged; otherwise the edge is inserted (endpoints
        must already exist).
        """
        matches = self.find_edges(source, target, etype)
        if matches:
            edge = matches[0]
            if directed is not None and directed != edge.directed:
                raise GraphError(
                    f"edge {source!r}-{target!r} of type {etype!r} is "
                    f"{'directed' if edge.directed else 'undirected'}; an "
                    f"upsert cannot change that"
                )
            if attrs:
                if self.schema is not None:
                    et = self.schema.edge_type(etype)
                    validated = et.validate_attrs(attrs)
                    attrs = {key: validated[key] for key in attrs}
                edge = self._writable_edge(edge)
                edge.attrs.update(attrs)
            return edge, False
        return self.add_edge(source, target, etype, directed=directed, **attrs), True

    def delete_edge(self, eid: int) -> Edge:
        """Remove one edge by id; returns the removed edge."""
        edge = self.edge(eid)
        self._stats = None
        del self._edges[eid]
        own = self._own
        if own is not None:
            own.edges.add(eid)
            self._writable_buckets(edge.source)
            self._writable_buckets(edge.target)
        if edge.directed:
            self._drop_step(edge.source, FORWARD, edge.type, eid)
            self._drop_step(edge.target, REVERSE, edge.type, eid)
        else:
            self._drop_step(edge.source, UNDIRECTED, edge.type, eid)
            if edge.source != edge.target:
                self._drop_step(edge.target, UNDIRECTED, edge.type, eid)
        return edge

    def delete_vertex(self, vid: Any) -> List[int]:
        """Remove a vertex, cascading every incident edge.

        Returns the sorted edge ids that were cascaded — directed in or
        out, undirected, and self-loops alike.
        """
        vertex = self.vertex(vid)
        cascaded = sorted({step.edge.eid for step in self.steps(vid)})
        for eid in cascaded:
            self.delete_edge(eid)
        self._stats = None
        del self._adjacency[vid]
        del self._vertices[vid]
        if self._own is not None:
            self._own.vertices.add(vid)
        if vertex.type in self._by_type:
            ids = self._writable_type_list(vertex.type)
            ids.remove(vid)
            if not ids:
                del self._by_type[vertex.type]
        return cascaded

    def _drop_step(self, vid: Any, direction: str, etype: str, eid: int) -> None:
        buckets = self._adjacency[vid][direction]
        bucket = buckets.get(etype)
        if bucket is not None:
            bucket[:] = [step for step in bucket if step.edge.eid != eid]
            if not bucket:
                del buckets[etype]

    def set_vertex_attr(self, vertex: Vertex, name: str, value: Any) -> None:
        """The query-side attribute write-back (POST_ACCUM ``v.attr =
        expr``): writes the :class:`Vertex` object in place — unlogged,
        and visible in every version that shares the object — and drops
        the statistics this graph carries, which the write may have
        made stale."""
        self._stats = None
        vertex.attrs[name] = value

    # -- copy-on-write: make one shared element private before a write --
    def _writable_vertex(self, vertex: Vertex) -> Vertex:
        self._stats = None
        own = self._own
        if own is not None and vertex.vid not in own.vertices:
            own.vertices.add(vertex.vid)
            own.copied += 1
            vertex = Vertex(vertex.vid, vertex.type, vertex.attrs)
            self._vertices[vertex.vid] = vertex
        return vertex

    def _writable_edge(self, edge: Edge) -> Edge:
        """The edge's private copy — and, because a :class:`Step` points
        at its edge, a fresh step in its place in every bucket that
        crosses it."""
        self._stats = None
        own = self._own
        if own is None or edge.eid in own.edges:
            return edge
        own.edges.add(edge.eid)
        own.copied += 1
        fresh = Edge(
            edge.eid, edge.type, edge.source, edge.target, edge.directed, edge.attrs
        )
        self._edges[edge.eid] = fresh
        if edge.directed:
            crossings = ((edge.source, FORWARD), (edge.target, REVERSE))
        elif edge.source != edge.target:
            crossings = ((edge.source, UNDIRECTED), (edge.target, UNDIRECTED))
        else:
            crossings = ((edge.source, UNDIRECTED),)
        for vid, direction in crossings:
            bucket = self._writable_buckets(vid)[direction][edge.type]
            for index, step in enumerate(bucket):
                if step.edge is edge:
                    bucket[index] = Step(fresh, direction, step.neighbor)
        return fresh

    def _writable_buckets(self, vid: Any) -> Dict[str, Dict[str, List[Step]]]:
        buckets = self._adjacency[vid]
        own = self._own
        if own is not None and vid not in own.adjacency:
            own.adjacency.add(vid)
            own.copied += 1
            buckets = self._adjacency[vid] = {
                direction: defaultdict(
                    list, {etype: list(steps) for etype, steps in by_type.items()}
                )
                for direction, by_type in buckets.items()
            }
        return buckets

    def _writable_type_list(self, vtype: str) -> List[Any]:
        own = self._own
        if own is not None and vtype not in own.types:
            own.types.add(vtype)
            if vtype in self._by_type:
                own.copied += 1
                self._by_type[vtype] = list(self._by_type[vtype])
        return self._by_type[vtype]

    def clone(self) -> "Graph":
        """A new version of this graph that shares every vertex, edge,
        bucket map and type list with it: only the four top-level id
        maps are copied (same positions, same edge ids, same epoch,
        shared schema).  Mutating either graph never perturbs readers of
        the other — from here on each side copies the one element a
        mutator is about to write before writing it, tracked by a fresh
        ownership record on both.  This is the publish step of the
        mutation layer: a commit costs what its batch touches, not what
        the graph holds."""
        other = Graph.__new__(Graph)
        other.schema = self.schema
        other.name = self.name
        other.epoch = self.epoch
        other._vertices = self._vertices.copy()
        other._edges = self._edges.copy()
        other._next_eid = self._next_eid
        other._adjacency = self._adjacency.copy()
        other._by_type = self._by_type.copy()
        other._edge_type_directed = self._edge_type_directed.copy()
        other._stats = None
        other._own = _Ownership()
        self._own = _Ownership()
        return other

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def vertex(self, vid: Any) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def has_vertex(self, vid: Any) -> bool:
        return vid in self._vertices

    def edge(self, eid: int) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid!r}") from None

    def vertices(self, vtype: Optional[str] = None) -> Iterator[Vertex]:
        """All vertices, or all vertices of one type, in insertion order."""
        if vtype is None:
            yield from self._vertices.values()
        else:
            for vid in self._by_type.get(vtype, ()):
                yield self._vertices[vid]

    def vertex_ids(self, vtype: Optional[str] = None) -> Iterator[Any]:
        if vtype is None:
            yield from self._vertices
        else:
            yield from self._by_type.get(vtype, ())

    def edges(self, etype: Optional[str] = None) -> Iterator[Edge]:
        if etype is None:
            yield from self._edges.values()
        else:
            for e in self._edges.values():
                if e.type == etype:
                    yield e

    def vertex_types(self) -> Tuple[str, ...]:
        return tuple(self._by_type)

    def edge_types(self) -> Tuple[str, ...]:
        if self.schema is not None:
            return self.schema.edge_type_names()
        return tuple(self._edge_type_directed)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def buckets(self, vid: Any) -> Mapping[str, Mapping[str, Sequence[Step]]]:
        """The adjacency of ``vid`` as its buckets: crossing direction ->
        edge type -> the steps of that direction and type, each level in
        insertion order.

        This is the one seam the engine reads adjacency through — the
        automaton is stepped once per bucket and the bucket's steps are
        then a plain loop — so a different storage layout (CSR row
        slices) only has to answer this call.  The result is a read-only
        view of live storage; every direction key is present.
        """
        try:
            return self._adjacency[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def steps(
        self,
        vid: Any,
        direction: Optional[str] = None,
        etype: Optional[str] = None,
    ) -> Iterator[Step]:
        """Traversal steps available from ``vid``.

        ``direction`` restricts to one of :data:`FORWARD`, :data:`REVERSE`,
        :data:`UNDIRECTED`; ``etype`` restricts to one edge type.  With no
        restrictions, every crossable incidence of the vertex is yielded
        (directed edges appear once per crossable orientation).
        """
        adjacency = self._adjacency.get(vid)
        if adjacency is None:
            raise GraphError(f"unknown vertex id {vid!r}")
        directions = (direction,) if direction else (FORWARD, REVERSE, UNDIRECTED)
        for d in directions:
            buckets = adjacency[d]
            if etype is not None:
                yield from buckets.get(etype, ())
            else:
                for bucket in buckets.values():
                    yield from bucket

    def outdegree(self, vid: Any, etype: Optional[str] = None) -> int:
        """Number of outgoing directed edges (plus undirected incidences).

        This matches GSQL's ``v.outdegree()`` builtin, which counts the
        edges a traversal can leave the vertex through in forward or
        undirected fashion.
        """
        adjacency = self._adjacency.get(vid)
        if adjacency is None:
            raise GraphError(f"unknown vertex id {vid!r}")
        total = 0
        for d in (FORWARD, UNDIRECTED):
            buckets = adjacency[d]
            if etype is not None:
                total += len(buckets.get(etype, ()))
            else:
                total += sum(len(bucket) for bucket in buckets.values())
        return total

    def indegree(self, vid: Any, etype: Optional[str] = None) -> int:
        """Number of incoming directed edges (plus undirected incidences)."""
        adjacency = self._adjacency.get(vid)
        if adjacency is None:
            raise GraphError(f"unknown vertex id {vid!r}")
        total = 0
        for d in (REVERSE, UNDIRECTED):
            buckets = adjacency[d]
            if etype is not None:
                total += len(buckets.get(etype, ()))
            else:
                total += sum(len(bucket) for bucket in buckets.values())
        return total

    def neighbors(
        self,
        vid: Any,
        direction: Optional[str] = None,
        etype: Optional[str] = None,
    ) -> Iterator[Vertex]:
        """Distinct neighbor vertices reachable in one step."""
        seen = set()
        for step in self.steps(vid, direction, etype):
            if step.neighbor not in seen:
                seen.add(step.neighbor)
                yield self._vertices[step.neighbor]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def find_vertex(self, vtype: str, attr: str, value: Any) -> Optional[Vertex]:
        """First vertex of ``vtype`` whose attribute equals ``value``."""
        for v in self.vertices(vtype):
            if v.get(attr) == value:
                return v
        return None

    def find_edges(self, source: Any, target: Any, etype: str) -> List[Edge]:
        """Edges of ``etype`` between the two vertices, in insertion
        order.  Directed edges match the ``source -> target`` orientation
        only; undirected edges match either endpoint order.  Unknown
        endpoints yield an empty list (upsert-friendly)."""
        adjacency = self._adjacency.get(source)
        if adjacency is None:
            return []
        found = []
        for direction in (FORWARD, UNDIRECTED):
            for step in adjacency[direction].get(etype, ()):
                if step.neighbor == target:
                    found.append(step.edge)
        found.sort(key=lambda e: e.eid)
        return found

    def degree_histogram(self) -> Dict[int, int]:
        """Map from out-degree to number of vertices with that degree."""
        hist: Dict[int, int] = defaultdict(int)
        for vid in self._vertices:
            hist[self.outdegree(vid)] += 1
        return dict(hist)

    def summary(self) -> Dict[str, Any]:
        """A small statistics dict (used by benchmark logs)."""
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "vertex_types": {t: len(ids) for t, ids in self._by_type.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Graph({self.name}: |V|={self.num_vertices}, |E|={self.num_edges})"

    def __contains__(self, vid: Any) -> bool:
        return vid in self._vertices


def induced_subgraph(graph: Graph, vertex_ids: Iterable[Any]) -> Graph:
    """A new graph containing the given vertices and all edges among them.

    Vertex and edge attributes are shared (not deep-copied); the subgraph
    is intended for read-only analytics.
    """
    keep = set(vertex_ids)
    sub = Graph(schema=graph.schema, name=f"{graph.name}-sub")
    for vid in keep:
        v = graph.vertex(vid)
        sub.add_vertex(vid, v.type, **v.attrs)
    for e in graph.edges():
        if e.source in keep and e.target in keep:
            sub.add_edge(e.source, e.target, e.type, directed=e.directed, **e.attrs)
    return sub
