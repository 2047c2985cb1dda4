"""Query execution context: parameters, accumulators, vertex sets.

The context owns the accumulator state a query manipulates:

* one instance per declared *global* accumulator (``@@name``);
* a lazily-populated family of instances per declared *vertex*
  accumulator (``@name``), keyed by vertex id — "each vertex storing its
  own local accumulator instance" (Section 3).

Lazy instantiation matters: queries over large graphs typically touch a
small working set of vertices, and GSQL vertex accumulators behave as if
every vertex had one from the start (reads of untouched instances yield
the type's default), which is exactly what on-demand creation gives.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..accum.base import Accumulator
from ..errors import QueryCompileError, QueryRuntimeError
from ..graph.graph import Graph
from .values import Table, VertexSet

#: Accumulator scopes.
GLOBAL = "global"
VERTEX = "vertex"


class AccumDecl:
    """A declared accumulator: name, scope and instance factory.

    ``factory`` is a zero-argument callable returning a fresh
    :class:`~repro.accum.base.Accumulator`; for vertex scope it is invoked
    once per touched vertex.
    """

    def __init__(self, name: str, scope: str, factory: Callable[[], Accumulator]):
        if scope not in (GLOBAL, VERTEX):
            raise QueryCompileError(f"unknown accumulator scope {scope!r}")
        if name.startswith("@"):
            raise QueryCompileError(
                "declare accumulators with bare names; the @/@@ prefix is "
                "implied by the scope"
            )
        self.name = name
        self.scope = scope
        self.factory = factory
        probe = factory()
        if not isinstance(probe, Accumulator):
            raise QueryCompileError(
                f"accumulator {name!r}: factory must produce Accumulator "
                f"instances, got {type(probe).__name__}"
            )
        self.order_invariant = probe.order_invariant

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        prefix = "@@" if self.scope == GLOBAL else "@"
        return f"AccumDecl({prefix}{self.name})"


class QueryContext:
    """All mutable state of one query execution."""

    def __init__(self, graph: Graph, params: Optional[Dict[str, Any]] = None):
        self.graph = graph
        self.params: Dict[str, Any] = dict(params) if params else {}
        self._decls: Dict[str, AccumDecl] = {}
        self._globals: Dict[str, Accumulator] = {}
        self._vertex_accums: Dict[str, Dict[Any, Accumulator]] = {}
        self.vertex_sets: Dict[str, VertexSet] = {}
        self.tables: Dict[str, Table] = {}
        #: Queries callable from expressions (GSQL subquery composition).
        self.subqueries: Dict[str, Any] = {}
        self.printed: list = []
        self.returned: Any = None

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def declare(self, decl: AccumDecl) -> None:
        if decl.name in self._decls:
            raise QueryCompileError(f"accumulator {decl.name!r} already declared")
        self._decls[decl.name] = decl
        if decl.scope == GLOBAL:
            self._globals[decl.name] = decl.factory()
        else:
            self._vertex_accums[decl.name] = {}

    def declaration(self, name: str) -> AccumDecl:
        decl = self._decls.get(name)
        if decl is None:
            raise QueryRuntimeError(f"accumulator {name!r} was never declared")
        return decl

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def global_accum(self, name: str) -> Accumulator:
        acc = self._globals.get(name)
        if acc is None:
            decl = self._decls.get(name)
            if decl is not None and decl.scope == VERTEX:
                raise QueryRuntimeError(
                    f"@{name} is a vertex accumulator; use v.@{name}"
                )
            raise QueryRuntimeError(f"unknown global accumulator @@{name}")
        return acc

    def vertex_accum(self, name: str, vid: Any) -> Accumulator:
        family = self._vertex_accums.get(name)
        if family is None:
            decl = self._decls.get(name)
            if decl is not None and decl.scope == GLOBAL:
                raise QueryRuntimeError(
                    f"@@{name} is a global accumulator; do not qualify it "
                    f"with a vertex"
                )
            raise QueryRuntimeError(f"unknown vertex accumulator @{name}")
        acc = family.get(vid)
        if acc is None:
            acc = self._decls[name].factory()
            family[vid] = acc
        return acc

    def vertex_accum_resolver(self, name: str) -> Callable[[Any], Accumulator]:
        """A ``vid -> instance`` closure with the family lookup hoisted.

        The Map kernel resolves instances once per row; this pre-binds
        the per-name dict and factory so the per-row path is one dict
        probe.  Undeclared or wrongly-scoped names return a delegating
        closure instead of raising here, so a zero-row block does not
        error on a name it never touches.
        """
        family = self._vertex_accums.get(name)
        if family is None:
            return lambda vid: self.vertex_accum(name, vid)
        factory = self._decls[name].factory
        get = family.get

        def resolve(vid: Any) -> Accumulator:
            acc = get(vid)
            if acc is None:
                acc = factory()
                family[vid] = acc
            return acc

        return resolve

    def vertex_accum_values(self, name: str) -> Iterator[Tuple[Any, Any]]:
        """(vertex id, value) pairs for every *materialized* instance."""
        family = self._vertex_accums.get(name)
        if family is None:
            raise QueryRuntimeError(f"unknown vertex accumulator @{name}")
        return ((vid, acc.value) for vid, acc in family.items())

    def has_accum(self, name: str) -> bool:
        return name in self._decls

    def global_accum_names(self) -> Tuple[str, ...]:
        return tuple(self._globals)

    def vertex_accum_names(self) -> Tuple[str, ...]:
        return tuple(self._vertex_accums)

    # ------------------------------------------------------------------
    # Snapshots (primed reads: v.@acc')
    # ------------------------------------------------------------------
    def snapshot_vertex_accum(self, name: str) -> Dict[Any, Any]:
        """Copy the current values of a vertex accumulator family.

        Taken at block entry for accumulators the block reads with the
        prime suffix (``v.@score'`` in the PageRank of Figure 4), so the
        previous iteration's values stay readable after this block's
        Reduce phase overwrites the live instances.
        """
        family = self._vertex_accums.get(name)
        if family is None:
            raise QueryRuntimeError(f"unknown vertex accumulator @{name}")
        return {vid: acc.value for vid, acc in family.items()}

    def snapshot_global_accum(self, name: str) -> Any:
        return self.global_accum(name).value

    # ------------------------------------------------------------------
    # Vertex sets and tables
    # ------------------------------------------------------------------
    def set_vertex_set(self, name: str, vset: VertexSet) -> None:
        self.vertex_sets[name] = vset

    def vertex_set(self, name: str) -> VertexSet:
        vset = self.vertex_sets.get(name)
        if vset is None:
            raise QueryRuntimeError(f"unknown vertex set {name!r}")
        return vset

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise QueryRuntimeError(f"unknown table {name!r}")
        return table

    def param(self, name: str) -> Any:
        if name not in self.params:
            raise QueryRuntimeError(f"unknown parameter {name!r}")
        return self.params[name]


__all__ = ["AccumDecl", "QueryContext", "GLOBAL", "VERTEX"]
