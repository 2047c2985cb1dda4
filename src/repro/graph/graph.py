"""The in-memory property graph.

:class:`Graph` stores typed vertices and typed (directed or undirected)
edges and keeps adjacency *by adorned symbol*: one column per
``(direction, edge type)``, so that DARPE evaluation expands a frontier
one symbol at a time, reading only the column that symbol names.

Vertex ids are arbitrary hashable values chosen by the caller; edge ids are
integers assigned by the graph.
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
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..errors import GraphError, SchemaError
from .elements import FORWARD, REVERSE, UNDIRECTED, Edge, Step, Vertex
from .schema import GraphSchema

#: One vertex's incidences in one column: its neighbour ids and the ids of
#: the edges leading to them, parallel and in insertion order.
Bucket = Tuple[List[Any], List[int]]
#: All incidences of one ``(direction, edge type)``: vertex id -> bucket.
#: A vertex with no such edge has no entry.
Column = Dict[Any, Bucket]

_DIRECTIONS = (FORWARD, REVERSE, UNDIRECTED)


class _Ownership:
    """What a graph has made private since :meth:`Graph.clone` last left
    it sharing every element with another version.

    ``vertices`` / ``edges`` hold the ids this graph has written —
    copied for an attribute update, inserted, or deleted — so they
    double as the change set the mutation layer diffs two versions by.
    ``adjacency`` holds the keys of the private columns, ``(direction,
    edge type)``, and buckets, ``(direction, edge type, vertex id)``, and
    ``types`` the vertex types whose id list is private.  ``copied``
    counts the shared elements that had to be copied before a write.
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
        # direction -> edge type -> column; edge types in first-seen order
        self._adjacency: Dict[str, Dict[str, Column]] = {d: {} for d in _DIRECTIONS}
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
        return self._insert_vertex(vid, vtype, attrs)

    def _insert_vertex(self, vid: Any, vtype: str, attrs: Dict[str, Any]) -> Vertex:
        # The one vertex insertion: add_vertex and the JSON loader, which
        # passes each parsed attribute object as it is (no ** repacking).
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
            self._writable_type_list(vtype).append(vid)
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
        return self._insert_edge(source, target, etype, directed, attrs)

    def _insert_edge(
        self,
        source: Any,
        target: Any,
        etype: str,
        directed: Optional[bool],
        attrs: Dict[str, Any],
    ) -> Edge:
        # The one edge insertion, shared like _insert_vertex.
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
        if self._own is not None:
            self._own.edges.add(eid)
        for direction, vid, neighbor in _crossings(edge):
            neighbors, eids = self._writable_bucket(direction, etype, vid)
            neighbors.append(neighbor)
            eids.append(eid)
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
        if self._own is not None:
            self._own.edges.add(eid)
        for direction, vid, _ in _crossings(edge):
            neighbors, eids = self._writable_bucket(direction, edge.type, vid)
            at = eids.index(eid)
            del neighbors[at], eids[at]
            if not eids:
                column = self._adjacency[direction][edge.type]
                del column[vid]
                if not column:
                    del self._adjacency[direction][edge.type]
        return edge

    def delete_vertex(self, vid: Any) -> List[int]:
        """Remove a vertex, cascading every incident edge.

        Returns the sorted edge ids that were cascaded — directed in or
        out, undirected, and self-loops alike.
        """
        vertex = self.vertex(vid)
        cascaded = sorted({eid for _, (_, eids) in self._buckets_of(vid) for eid in eids})
        for eid in cascaded:
            self.delete_edge(eid)
        self._stats = None
        del self._vertices[vid]
        if self._own is not None:
            self._own.vertices.add(vid)
        if vertex.type in self._by_type:
            ids = self._writable_type_list(vertex.type)
            ids.remove(vid)
            if not ids:
                del self._by_type[vertex.type]
        return cascaded

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
        """The edge's private copy.  Adjacency holds edge *ids*, so it
        is not touched."""
        self._stats = None
        own = self._own
        if own is not None and edge.eid not in own.edges:
            own.edges.add(edge.eid)
            own.copied += 1
            edge = Edge(
                edge.eid, edge.type, edge.source, edge.target, edge.directed, edge.attrs
            )
            self._edges[edge.eid] = edge
        return edge

    def _writable_bucket(self, direction: str, etype: str, vid: Any) -> Bucket:
        """The bucket of ``vid`` in one column, created empty when the
        vertex has none, after making the column's map and then the
        bucket private: each is copied at most once per version, and an
        unshared graph writes both in place."""
        by_type = self._adjacency[direction]
        column = by_type.get(etype)
        own = self._own
        if column is None:
            column = by_type[etype] = {}
            if own is not None:
                own.adjacency.add((direction, etype))
        elif own is not None and (direction, etype) not in own.adjacency:
            own.adjacency.add((direction, etype))
            own.copied += 1
            column = by_type[etype] = column.copy()
        bucket = column.get(vid)
        if bucket is None:
            bucket = column[vid] = ([], [])
            if own is not None:
                own.adjacency.add((direction, etype, vid))
        elif own is not None and (direction, etype, vid) not in own.adjacency:
            own.adjacency.add((direction, etype, vid))
            own.copied += 1
            bucket = column[vid] = (list(bucket[0]), list(bucket[1]))
        return bucket

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
        adjacency column and type list with it: only the top-level maps
        are copied — vertices and edges by id, the type index, and per
        direction the handful of edge type -> column entries (same
        positions, same edge ids, same epoch, shared schema).  Mutating
        either graph never perturbs readers of the other — from here on
        each side copies the one element a mutator is about to write
        before writing it, tracked by a fresh ownership record on both.
        This is the publish step of the mutation layer: a commit costs
        what its batch touches, not what the graph holds."""
        other = Graph.__new__(Graph)
        other.schema = self.schema
        other.name = self.name
        other.epoch = self.epoch
        other._vertices = self._vertices.copy()
        other._edges = self._edges.copy()
        other._next_eid = self._next_eid
        other._adjacency = {d: by_type.copy() for d, by_type in self._adjacency.items()}
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

    def count_vertices(self, vtype: Optional[str] = None) -> int:
        """How many vertices (of one type) this version holds."""
        if vtype is None:
            return len(self._vertices)
        return len(self._by_type.get(vtype, ()))

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
    def columns(self, direction: str) -> Mapping[str, Column]:
        """The adjacency crossed in ``direction``: edge type -> column,
        edge types in the order the graph first saw them; a column maps
        a vertex id to its bucket ``(neighbour ids, edge ids)`` and has
        no entry for a vertex without such an edge.

        This is the seam the engine reads adjacency through: one column
        per adorned symbol, one ``column.get(vid)`` per vertex crossed,
        then a plain loop over the bucket.  A read-only view of this
        version's live storage.
        """
        return self._adjacency[direction]

    def vertex_getter(self) -> Callable[[Any], Vertex]:
        """This version's id -> :class:`Vertex` lookup as a C-level
        callable, for resolving a bucket's neighbour ids with ``map``
        (every id a bucket holds is a live vertex)."""
        return self._vertices.__getitem__

    def _buckets_of(
        self,
        vid: Any,
        directions: Iterable[str] = _DIRECTIONS,
        etype: Optional[str] = None,
    ) -> Iterator[Tuple[str, Bucket]]:
        """``(direction, bucket)`` for every bucket ``vid`` has in the
        columns of ``directions`` — one edge type's, or all — in traversal
        order: direction-major, then edge types as the graph first saw
        them."""
        if vid not in self._vertices:
            raise GraphError(f"unknown vertex id {vid!r}")
        for d in directions:
            by_type = self._adjacency[d]
            columns = by_type.values() if etype is None else (by_type.get(etype, {}),)
            for column in columns:
                bucket = column.get(vid)
                if bucket is not None:
                    yield d, bucket

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
        edges = self._edges
        directions = (direction,) if direction else _DIRECTIONS
        for d, (neighbors, eids) in self._buckets_of(vid, directions, etype):
            for neighbor, eid in zip(neighbors, eids):
                yield Step(edges[eid], d, neighbor)

    def outdegree(self, vid: Any, etype: Optional[str] = None) -> int:
        """Number of outgoing directed edges (plus undirected incidences).

        This matches GSQL's ``v.outdegree()`` builtin, which counts the
        edges a traversal can leave the vertex through in forward or
        undirected fashion.
        """
        return self._degree(vid, (FORWARD, UNDIRECTED), etype)

    def indegree(self, vid: Any, etype: Optional[str] = None) -> int:
        """Number of incoming directed edges (plus undirected incidences)."""
        return self._degree(vid, (REVERSE, UNDIRECTED), etype)

    def _degree(self, vid: Any, directions: Tuple[str, str], etype: Optional[str]) -> int:
        # ``v.outdegree()`` runs per row of an ACCUM clause: the same
        # walk as _buckets_of, without a generator in between
        if vid not in self._vertices:
            raise GraphError(f"unknown vertex id {vid!r}")
        total = 0
        for d in directions:
            by_type = self._adjacency[d]
            for column in by_type.values() if etype is None else (by_type.get(etype, {}),):
                bucket = column.get(vid)
                if bucket is not None:
                    total += len(bucket[1])
        return total

    def neighbors(
        self,
        vid: Any,
        direction: Optional[str] = None,
        etype: Optional[str] = None,
    ) -> Iterator[Vertex]:
        """Distinct neighbor vertices reachable in one step."""
        seen = set()
        directions = (direction,) if direction else _DIRECTIONS
        for _, (neighbors, _) in self._buckets_of(vid, directions, etype):
            for neighbor in neighbors:
                if neighbor not in seen:
                    seen.add(neighbor)
                    yield self._vertices[neighbor]

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
        if source not in self._vertices:
            return []
        found = sorted(
            eid
            for _, (neighbors, eids) in self._buckets_of(source, (FORWARD, UNDIRECTED), etype)
            for neighbor, eid in zip(neighbors, eids)
            if neighbor == target
        )
        return [self._edges[eid] for eid in found]

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


def _crossings(edge: Edge) -> Iterator[Tuple[str, Any, Any]]:
    """``(direction, vertex id, neighbour id)`` for every bucket the edge
    is recorded in: directed, forward at the source and reverse at the
    target; undirected, once at each distinct endpoint."""
    if edge.directed:
        yield FORWARD, edge.source, edge.target
        yield REVERSE, edge.target, edge.source
    else:
        yield UNDIRECTED, edge.source, edge.target
        if edge.source != edge.target:
            yield UNDIRECTED, edge.target, edge.source


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
