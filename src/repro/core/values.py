"""Runtime value containers for query execution: tables and vertex sets."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import QueryRuntimeError
from ..graph.elements import Vertex
from ..graph.graph import Graph


class Table:
    """A named, ordered result table produced by ``SELECT ... INTO``.

    Columns are named; rows are tuples.  Tables are append-only during
    query execution and read-only afterwards.
    """

    def __init__(self, name: str, columns: Sequence[str]):
        self.name = name
        self.columns = tuple(columns)
        self._rows: List[Tuple[Any, ...]] = []

    def append(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise QueryRuntimeError(
                f"table {self.name!r} expects {len(self.columns)} columns, "
                f"got {len(row)}"
            )
        self._rows.append(tuple(row))

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        return list(self._rows)

    def dicts(self) -> Iterator[Dict[str, Any]]:
        for row in self._rows:
            yield dict(zip(self.columns, row))

    def column(self, name: str) -> List[Any]:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise QueryRuntimeError(
                f"table {self.name!r} has no column {name!r}"
            ) from None
        return [row[idx] for row in self._rows]

    def sort(self, key, reverse: bool = False) -> None:
        self._rows.sort(key=key, reverse=reverse)

    def truncate(self, limit: int) -> None:
        del self._rows[limit:]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name}: {self.columns}, {len(self)} rows)"


class VertexSet:
    """An ordered, duplicate-free set of vertices (a GSQL vertex-set
    variable, e.g. the result of ``S = SELECT v FROM ...``)."""

    def __init__(self, graph: Graph, vertices: Iterable[Vertex] = ()):
        self.graph = graph
        self._order: List[Vertex] = []
        self._ids = set()
        for v in vertices:
            self.add(v)

    @classmethod
    def of_distinct(
        cls, graph: Graph, vertices: List[Vertex], ids: Optional[set] = None
    ) -> "VertexSet":
        """The set over ``vertices``, a list the caller already made
        duplicate-free (by vertex id): it is kept as the set's order, and
        ``ids`` — the set of exactly their ids, when the caller has it —
        as the set's ids; otherwise they are taken in one pass.  No
        per-vertex :meth:`add` either way."""
        vset = cls(graph)
        vset._order = vertices
        vset._ids = {v.vid for v in vertices} if ids is None else ids
        return vset

    def add(self, vertex: Vertex) -> None:
        if vertex.vid not in self._ids:
            self._ids.add(vertex.vid)
            self._order.append(vertex)

    def ids(self) -> List[Any]:
        return [v.vid for v in self._order]

    def __contains__(self, item: Any) -> bool:
        if isinstance(item, Vertex):
            return item.vid in self._ids
        return item in self._ids

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    @classmethod
    def all_of_type(cls, graph: Graph, vtype: Optional[str]) -> "VertexSet":
        """``{Type.*}`` — every vertex of a type (or every vertex when
        ``vtype`` is None, GSQL's ``{ANY}``)."""
        return cls(graph, graph.vertices(vtype))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VertexSet({len(self)} vertices)"


__all__ = ["Table", "VertexSet"]
