"""Generated differential for adjacency storage: the per-symbol columns of
``repro.graph.Graph`` against the per-vertex buckets of ``Step`` objects
they replaced (``tests/reference_graph.py``).

A Hypothesis sequence of inserts, upserts and deletes runs against both;
``clone()`` forks a version at random points and later writes land on
either side of the fork.  The reference clones by deep copy, so each
version has an oracle no other version can reach — a write that leaks
from one version into another (a column or bucket written without being
copied first) shows up as *that* version drifting from its oracle.

After every step, for every version still held: each bucket's steps in
order, degrees, ``find_edges`` and ``neighbors``, a clean fsck, the SDMC
search — results in the order it resolved them, under target and length
bounds — with its counters, and the sixteen named pattern shapes of
``test_core_pattern_differential.py`` as row multisets with counters.
Across edge types the two layouts order steps differently (the graph's
first-seen order against each vertex's), which is why rows compare as
multisets; inside one bucket the order is the same and is compared.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.pattern import Pattern, evaluate_pattern
from repro.darpe.automaton import CompiledDarpe
from repro.errors import GraphError
from repro.graph import FORWARD, REVERSE, UNDIRECTED, Graph
from repro.graph.fsck import fsck_graph
from repro.obs import collect
from repro.paths import shortest_path_dag, single_source_sdmc

from .reference_graph import ReferenceGraph, reference_sdmc
from .test_core_pattern_differential import NAMED_SHAPES, _context

IDS = (0, 1, 2, 3, 4)
#: vertex 3 is the one ``Q``, as in the named shapes' ring
VTYPE = {vid: "Q" if vid == 3 else "P" for vid in IDS}
DIRECTED = {"A": True, "B": True, "U": False}
#: ``(A>|B>).(U|A>)`` crosses two forward columns from its start state,
#: and ends in two different accepting DFA states: on the seeded ring it
#: reaches vertex 3 in both at level 2 (0 -A> 1 -U- 3 and 0 -B> 2 -A> 3),
#: and the vertex's count is their sum.
DARPES = [
    CompiledDarpe.parse(text)
    for text in ("A>*", "(A>|U)*", "(A>|<A)*1..2", "U.B>", "(A>|B>).(U|A>)")
]
#: (targets, max_length) of each search: the whole product graph, an early
#: stop once the targets are resolved, a length cap, and both.
SEARCHES = [(None, None), ({1, 3}, None), (None, 1), ({4}, 2)]

_vid = st.sampled_from(IDS)
#: the value an upsert writes (``w`` on a vertex, ``q`` on an edge), or
#: None for an upsert without attributes
_value = st.none() | st.integers(0, 3)
#: one step: (kind, which version it lands on, arguments)
_steps = st.tuples(
    st.sampled_from((
        "add_vertex", "add_edge", "add_edge", "add_edge", "upsert_vertex",
        "upsert_edge", "upsert_edge", "delete_edge", "delete_vertex", "clone",
    )),
    st.integers(0, 7), _vid, _vid, st.sampled_from(sorted(DIRECTED)), _value,
)


def _seeded(graph):
    """The named shapes' own ring — 0 -A> 1 -A> 2 -A> 3 -A> 0, chords
    0 -B> 2 and 1 -U- 3 — so every shape starts out matching something
    and deletes and upserts have something to hit from the first step."""
    for vid in IDS[:4]:
        graph.add_vertex(vid, VTYPE[vid], w=vid)
    for q, (source, target, etype) in enumerate(
        [(0, 1, "A"), (1, 2, "A"), (2, 3, "A"), (3, 0, "A"), (0, 2, "B"), (1, 3, "U")]
    ):
        graph.add_edge(source, target, etype, directed=DIRECTED[etype], q=q)
    return graph


def _apply(graph, kind, a, b, etype, value):
    """One step on one graph; returns what the caller can observe of it
    (a result, or the error class — both sides must agree on that too).
    Every vertex is created with a ``w`` and every edge with a ``q``, the
    attributes the named shapes filter on."""
    try:
        if kind == "add_vertex":
            graph.add_vertex(a, VTYPE[a], w=a)
        elif kind == "add_edge":  # self-loops and parallel edges included
            return graph.add_edge(a, b, etype, directed=DIRECTED[etype], q=value or 0).eid
        elif kind == "upsert_vertex":
            attrs = {"w": a} if not graph.has_vertex(a) else {} if value is None else {"w": value}
            return graph.upsert_vertex(a, VTYPE[a], **attrs)[1]
        elif kind == "upsert_edge":
            if not (graph.has_vertex(a) and graph.find_edges(a, b, etype)):
                attrs = {"q": value or 0}
            else:
                attrs = {} if value is None else {"q": value}
            edge, created = graph.upsert_edge(a, b, etype, directed=DIRECTED[etype], **attrs)
            return edge.eid, created
        elif kind == "delete_edge":
            eids = sorted(e.eid for e in graph.edges())
            if eids:
                return graph.delete_edge(eids[a % len(eids)]).eid
        elif kind == "delete_vertex":
            return graph.delete_vertex(a)
    except GraphError:
        return GraphError
    return None


def _step_key(step):
    return step.edge.eid, step.direction, step.neighbor, sorted(step.edge.attrs.items())


def _assert_same_adjacency(graph, reference):
    assert [(v.vid, v.type, v.attrs) for v in graph.vertices()] == [
        (v.vid, v.type, v.attrs) for v in reference.vertices()
    ]
    assert [(e.eid, e.type, e.source, e.target, e.directed, e.attrs) for e in graph.edges()] == [
        (e.eid, e.type, e.source, e.target, e.directed, e.attrs) for e in reference.edges()
    ]
    for vid in reference.vertex_ids():
        for direction in (FORWARD, REVERSE, UNDIRECTED, None):
            for etype in DIRECTED:
                # one bucket: the same steps in the same order
                got = list(graph.steps(vid, direction, etype))
                assert list(map(_step_key, got)) == list(
                    map(_step_key, reference.steps(vid, direction, etype))
                )
                assert all(step.edge is graph.edge(step.edge.eid) for step in got)
                assert [v.vid for v in graph.neighbors(vid, direction, etype)] == [
                    v.vid for v in reference.neighbors(vid, direction, etype)
                ]
            # across edge types: the same steps, each layout in its own order
            assert sorted(map(_step_key, graph.steps(vid, direction))) == sorted(
                map(_step_key, reference.steps(vid, direction))
            )
            assert {v.vid for v in graph.neighbors(vid, direction)} == {
                v.vid for v in reference.neighbors(vid, direction)
            }
        for etype in (None, *DIRECTED):
            assert graph.outdegree(vid, etype) == reference.outdegree(vid, etype)
            assert graph.indegree(vid, etype) == reference.indegree(vid, etype)
        for target in IDS:
            for etype in DIRECTED:
                assert [e.eid for e in graph.find_edges(vid, target, etype)] == [
                    e.eid for e in reference.find_edges(vid, target, etype)
                ]
    report = fsck_graph(graph)
    assert report.ok, report.violations


def _assert_same_sdmc(graph, reference):
    """Results in resolution order (the order hop rows follow), and the
    counters, for every DARPE, source and search bound."""
    etype_order = {d: list(graph.columns(d)) for d in (FORWARD, REVERSE, UNDIRECTED)}
    for darpe in DARPES:
        for source in reference.vertex_ids():
            for targets, max_length in SEARCHES:
                with collect() as col:
                    got = single_source_sdmc(graph, source, darpe, targets, max_length)
                want, counters = reference_sdmc(
                    reference, source, darpe, targets, max_length, etype_order
                )
                case = (darpe.text, source, targets, max_length)
                assert [(vid, tuple(res)) for vid, res in got.items()] == list(
                    want.items()
                ), case
                assert col.counters == counters, case


def _row_key(value):
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return getattr(value, "vid", getattr(value, "eid", value))


def _matched(graph, chains, filters, pinned, mode):
    """The pattern's rows as a multiset (vertices and edges by id) with
    the counters and hop-span attributes of the run."""
    if not all(graph.has_vertex(vid) for vid in pinned.values()):
        return None
    members = [graph.vertex(vid) for vid in (0, 1, 2) if graph.has_vertex(vid)]
    ctx = _context(graph, members, {var: graph.vertex(vid) for var, vid in pinned.items()})
    with collect() as col:
        matched = evaluate_pattern(ctx, Pattern(chains), mode, filters)
    rows = Counter()
    for values, multiplicity in matched.rows:
        rows[tuple(map(_row_key, values))] += multiplicity
    spans = [
        sorted(span.attrs.items())
        for root in col.roots for span in root.walk() if span.name == "hop"
    ]
    return matched.variables, rows, dict(col.counters), spans


def _assert_same_patterns(graph, reference):
    for name, shape in NAMED_SHAPES.items():
        assert _matched(graph, *shape) == _matched(reference, *shape), name


def _run(steps):
    versions = [(_seeded(Graph()), _seeded(ReferenceGraph()))]
    for kind, which, a, b, etype, value in steps:
        graph, reference = versions[which % len(versions)]
        if kind == "clone":
            if len(versions) < 4:
                versions.append((graph.clone(), reference.clone()))
        else:
            assert _apply(graph, kind, a, b, etype, value) == _apply(
                reference, kind, a, b, etype, value
            )
        for graph, reference in versions:
            _assert_same_adjacency(graph, reference)
            _assert_same_sdmc(graph, reference)
            _assert_same_patterns(graph, reference)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_steps, min_size=1, max_size=12))
# vertex 0 loses its one A edge and gets it back: its own buckets now list
# B before A, while the graph's A column never went away
@example(steps=[("delete_edge", 0, 0, 0, "A", None), ("add_edge", 0, 0, 1, "A", None)])
def test_columns_match_per_vertex_buckets(steps):
    _run(steps)


def test_every_named_shape_matches_something_on_the_seeded_ring():
    """So the pattern comparison above is not comparing empty with empty."""
    graph, reference = _seeded(Graph()), _seeded(ReferenceGraph())
    for name, shape in NAMED_SHAPES.items():
        got = _matched(graph, *shape)
        assert got == _matched(reference, *shape), name
        assert got[1], name


def test_one_vertex_in_two_accepting_states_is_their_sum():
    """So the SDMC comparison covers the per-vertex sum of one level."""
    graph = _seeded(Graph())
    darpe = DARPES[-1]
    ends = shortest_path_dag(graph, 0, darpe)._accepting_by_vertex[3]
    assert len({q for _, q in ends}) == 2
    assert single_source_sdmc(graph, 0, darpe)[3] == (2, 2)
    assert reference_sdmc(_seeded(ReferenceGraph()), 0, darpe)[0][3] == (2, 2)


# ----------------------------------------------------------------------
# The differential catches the two ways this layout can go wrong
# ----------------------------------------------------------------------

#: fork, then write the fork: edge 0 -A> 2 lands in the column (and, for
#: vertex 0, the bucket) that the original still reads
FORK_THEN_WRITE = [
    ("clone", 0, 0, 0, "A", None),
    ("add_edge", 1, 0, 2, "A", None),
]


def test_catches_a_column_written_without_being_copied(monkeypatch):
    def shared_write(self, direction, etype, vid):
        # the copy-on-write step left out: whoever shares the column, or
        # the bucket, sees the write
        column = self._adjacency[direction].setdefault(etype, {})
        return column.setdefault(vid, ([], []))

    _run(FORK_THEN_WRITE)
    monkeypatch.setattr(Graph, "_writable_bucket", shared_write)
    # the original now holds a step for edge 6, which only the fork has
    with pytest.raises((AssertionError, KeyError)):
        _run(FORK_THEN_WRITE)


def test_catches_a_neighbour_appended_without_its_edge_id(monkeypatch):
    class Forgetful(list):
        def append(self, eid):
            pass

    real = Graph._writable_bucket

    def half_write(self, direction, etype, vid):
        neighbors, eids = real(self, direction, etype, vid)
        return neighbors, Forgetful(eids)

    steps = [("add_edge", 0, 2, 3, "A", None)]
    _run(steps)
    monkeypatch.setattr(Graph, "_writable_bucket", half_write)
    with pytest.raises(AssertionError):
        _run(steps)
