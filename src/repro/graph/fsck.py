"""Structural invariant checking for graphs — the recovery oracle.

After a crash, "the store recovered" is only meaningful if the rebuilt
graph is *internally consistent*: every edge indexed from both ends,
no bucket entry naming a vertex or edge that no longer exists, degree
arithmetic that re-derives from the edge list, and an epoch that
matches what the WAL says was committed.  :func:`fsck_graph` checks
exactly that — it re-derives the adjacency index, the type index and
(when the graph carries them) the statistics from the primary
vertex/edge maps and diffs them against the maintained ones, so any
drift introduced by a mutation bug, a stale copy-on-write copy or a bad
replay shows up as a named violation.

The chaos recovery sweep (``tests/test_wal_recovery.py``) runs this
after every simulated crash point, and ``repro fsck`` exposes it on the
command line.  The check catalog (:data:`CHECKS`) is pinned by the docs
drift test and the WAL baseline guard.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from ..obs import count as _count
from .elements import FORWARD, REVERSE, UNDIRECTED
from .graph import Graph
from .stats import GraphStats
from .wal import scan_wal

PathLike = Union[str, Path]

#: check name -> what it verifies.  Every violation names its check.
CHECKS: Dict[str, str] = {
    "dangling-edge": (
        "every edge's source and target id resolve to a live vertex"
    ),
    "adjacency-symmetry": (
        "the adjacency columns hold exactly one step per crossable "
        "orientation of each edge (directed: forward at the source and "
        "reverse at the target; undirected: one at each distinct "
        "endpoint) and no step for any other edge or for a deleted "
        "vertex; a bucket's neighbour and edge-id sequences have equal "
        "length, each recorded neighbour is its edge's other endpoint, "
        "and no empty bucket or column is left behind"
    ),
    "degree-reconciliation": (
        "outdegree/indegree of every vertex re-derived from the edge "
        "list match the adjacency index, and their totals reconcile "
        "with the edge count"
    ),
    "stats-reconciliation": (
        "the statistics a graph version carries (its snapshot, and the "
        "counts the next commit would advance) equal statistics rebuilt "
        "from scratch over the same vertices and edges"
    ),
    "type-index": (
        "the vertex type index lists every vertex exactly once under "
        "its own type, with no stale or duplicate ids"
    ),
    "wal-epoch": (
        "the graph's epoch equals the last committed epoch in the WAL "
        "(checked only when a WAL directory is given)"
    ),
}


class FsckViolation(NamedTuple):
    """One broken invariant: which check, and a one-line detail."""

    check: str
    detail: str


class FsckReport(NamedTuple):
    """The outcome of one :func:`fsck_graph` run."""

    ok: bool
    violations: List[FsckViolation]
    #: Checks that ran, in catalog order.
    checks: List[str]
    #: Sizes the checks were computed over.
    vertices: int
    edges: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "vertices": self.vertices,
            "edges": self.edges,
            "checks": list(self.checks),
            "violations": [
                {"check": v.check, "detail": v.detail} for v in self.violations
            ],
        }


def _expected_steps(graph: Graph) -> Dict[Tuple[str, str, Any], Dict[int, Any]]:
    """Re-derive the adjacency columns from the edge map alone:
    ``(direction, edge type, vertex) -> {eid: neighbour}`` (an edge
    crosses one bucket at most once)."""
    expected: Dict[Tuple[str, str, Any], Dict[int, Any]] = {}
    for edge in graph._edges.values():
        if edge.directed:
            crossings = [(FORWARD, edge.source, edge.target),
                         (REVERSE, edge.target, edge.source)]
        else:
            crossings = [(UNDIRECTED, edge.source, edge.target)]
            if edge.source != edge.target:
                crossings.append((UNDIRECTED, edge.target, edge.source))
        for direction, vid, neighbor in crossings:
            expected.setdefault((direction, edge.type, vid), {})[edge.eid] = neighbor
    return expected


def _degrees(
    buckets: Dict[Tuple[str, str, Any], Any]
) -> Tuple[Dict[Any, int], Dict[Any, int]]:
    """Per-vertex (outdegree, indegree) of a ``(direction, edge type,
    vertex) -> sized bucket`` table: forward and undirected steps leave
    a vertex, reverse and undirected ones enter it."""
    outs: Dict[Any, int] = {}
    ins: Dict[Any, int] = {}
    for (direction, _etype, vid), bucket in buckets.items():
        if direction != REVERSE:
            outs[vid] = outs.get(vid, 0) + len(bucket)
        if direction != FORWARD:
            ins[vid] = ins.get(vid, 0) + len(bucket)
    return outs, ins


def fsck_graph(graph: Graph, wal_dir: Optional[PathLike] = None) -> FsckReport:
    """Run every invariant check; never raises on a broken graph — the
    report carries the violations (a missing/corrupt WAL *directory*
    still raises, since fsck cannot then say anything about epochs)."""
    violations: List[FsckViolation] = []
    checks = list(CHECKS)
    if wal_dir is None:
        checks.remove("wal-epoch")

    def broken(check: str, detail: str) -> None:
        violations.append(FsckViolation(check, detail))

    # dangling-edge ----------------------------------------------------
    for edge in graph._edges.values():
        for role, vid in (("source", edge.source), ("target", edge.target)):
            if vid not in graph._vertices:
                broken(
                    "dangling-edge",
                    f"edge {edge.eid} ({edge.type}) has a deleted "
                    f"{role} vertex {vid!r}",
                )

    # adjacency-symmetry -----------------------------------------------
    # One pass over the columns against the table re-derived from the
    # edge map; the buckets' edge ids are kept for the degree check.
    expected = _expected_steps(graph)
    actual: Dict[Tuple[str, str, Any], List[int]] = {}
    for direction, by_type in graph._adjacency.items():
        for etype, column in by_type.items():
            if not column:
                broken(
                    "adjacency-symmetry",
                    f"empty column left behind for {direction}/{etype}",
                )
            for vid, (neighbors, eids) in column.items():
                where = f"vertex {vid!r} {direction}/{etype}"
                actual[direction, etype, vid] = eids
                if vid not in graph._vertices:
                    broken(
                        "adjacency-symmetry",
                        f"adjacency entry for deleted vertex {vid!r} "
                        f"({direction}/{etype})",
                    )
                if len(neighbors) != len(eids):
                    broken(
                        "adjacency-symmetry",
                        f"{where}: {len(neighbors)} neighbours recorded "
                        f"against {len(eids)} edge ids",
                    )
                elif not eids:
                    broken("adjacency-symmetry", f"{where}: empty bucket left behind")
                want = expected.get((direction, etype, vid), {})
                for neighbor, eid in zip(neighbors, eids):
                    if eid not in graph._edges:
                        broken(
                            "adjacency-symmetry",
                            f"vertex {vid!r} holds a step for deleted "
                            f"edge {eid} ({etype}, {direction})",
                        )
                    elif eid in want and want[eid] != neighbor:
                        broken(
                            "adjacency-symmetry",
                            f"{where}: edge {eid} recorded with neighbour "
                            f"{neighbor!r}, its other endpoint is {want[eid]!r}",
                        )
    for key in sorted(set(expected) | set(actual), key=repr):
        want = expected.get(key, {})
        have = actual.get(key, [])
        if sorted(want) != sorted(have):
            direction, etype, vid = key
            missing = sorted(eid for eid in want if eid not in have)
            extra = sorted(eid for eid in have if have.count(eid) > (eid in want))
            broken(
                "adjacency-symmetry",
                f"vertex {vid!r} {direction}/{etype}: missing steps for "
                f"edges {missing}, unexpected steps for edges {extra}",
            )

    # degree-reconciliation --------------------------------------------
    derived_outs, derived_ins = _degrees(expected)
    outs, ins = _degrees(actual)
    total_out = 0
    total_in = 0
    for vid in graph._vertices:
        derived_out = derived_outs.get(vid, 0)
        derived_in = derived_ins.get(vid, 0)
        out = outs.get(vid, 0)
        ind = ins.get(vid, 0)
        if out != derived_out or ind != derived_in:
            broken(
                "degree-reconciliation",
                f"vertex {vid!r}: outdegree {out} (derived {derived_out}), "
                f"indegree {ind} (derived {derived_in})",
            )
        total_out += derived_out
        total_in += derived_in
    directed = sum(1 for e in graph._edges.values() if e.directed)
    undirected_inc = sum(
        1 if e.source == e.target else 2
        for e in graph._edges.values()
        if not e.directed
    )
    if total_out != directed + undirected_inc or total_in != directed + undirected_inc:
        broken(
            "degree-reconciliation",
            f"degree totals (out={total_out}, in={total_in}) do not "
            f"reconcile with {directed} directed edges + "
            f"{undirected_inc} undirected incidences",
        )

    # stats-reconciliation ---------------------------------------------
    carried = graph._stats
    if carried is not None:
        rebuilt = GraphStats(graph).snapshot()
        views = [("snapshot", carried.snapshot)]
        if carried.counts is not None:
            views.append(("counts", carried.counts.snapshot()))
        for what, snapshot in views:
            if snapshot != rebuilt:
                fields = [
                    name
                    for name, have, want in zip(rebuilt._fields, snapshot, rebuilt)
                    if have != want
                ]
                broken(
                    "stats-reconciliation",
                    f"carried {what} differs from a rebuild in "
                    f"{', '.join(fields)}",
                )

    # type-index -------------------------------------------------------
    seen: Dict[Any, str] = {}
    for vtype, ids in graph._by_type.items():
        if not ids:
            broken("type-index", f"empty id list for type {vtype!r}")
        for vid in ids:
            if vid in seen:
                broken(
                    "type-index",
                    f"vertex {vid!r} indexed under both {seen[vid]!r} "
                    f"and {vtype!r}",
                )
            seen[vid] = vtype
            vertex = graph._vertices.get(vid)
            if vertex is None:
                broken(
                    "type-index",
                    f"type index {vtype!r} lists deleted vertex {vid!r}",
                )
            elif vertex.type != vtype:
                broken(
                    "type-index",
                    f"vertex {vid!r} has type {vertex.type!r} but is "
                    f"indexed under {vtype!r}",
                )
    for vid, vertex in graph._vertices.items():
        if vid not in seen:
            broken(
                "type-index",
                f"vertex {vid!r} ({vertex.type}) missing from the type "
                f"index",
            )

    # wal-epoch --------------------------------------------------------
    if wal_dir is not None:
        scan = scan_wal(wal_dir)
        if graph.epoch != scan.last_epoch:
            broken(
                "wal-epoch",
                f"graph epoch {graph.epoch} != last committed WAL epoch "
                f"{scan.last_epoch} "
                f"({'graph behind log' if graph.epoch < scan.last_epoch else 'graph ahead of log'})",
            )

    _count("fsck.runs")
    if violations:
        _count("fsck.violations", len(violations))
    return FsckReport(
        ok=not violations,
        violations=violations,
        checks=checks,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
    )


def check_catalog() -> List[Tuple[str, str]]:
    """The (check, description) catalog, sorted — docs and the WAL
    baseline guard read this."""
    return sorted(CHECKS.items())


__all__ = [
    "CHECKS",
    "FsckViolation",
    "FsckReport",
    "fsck_graph",
    "check_catalog",
]
