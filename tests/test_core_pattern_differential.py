"""Generated differential for the pattern matcher: slot-tuple rows
(``repro.core.pattern``) against the dict-row matcher they replaced
(``tests/reference_pattern.py``).

Over Hypothesis-built typed graphs and patterns the two must produce the
same rows *in the same order*, the same multiplicities, the same hop-span
attributes and the same counters — the row representation is an
implementation detail of the matcher, visible to nobody.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryContext
from repro.core.exprs import AttrRef, Binary, Literal, NameRef
from repro.core.pattern import (
    Chain,
    EngineMode,
    Pattern,
    VertexSpec,
    evaluate_pattern,
    hop,
)
from repro.core.values import Table, VertexSet
from repro.graph import Graph
from repro.obs import collect
from repro.paths import PathSemantics

from . import reference_pattern

#: Mostly one type, so typed positions still match something.
VERTEX_TYPES = ("P", "P", "P", "Q")
#: Positions may name a type, a wildcard or the vertex set ``S``.
SPEC_NAMES = ("P", "P", "Q", "_", "ANY", "S")
#: Single-symbol hops (adjacency plan; may bind an edge variable) ...
SINGLE = ("A>", "<A", "B>", "U", "_>")
#: ... and multi-edge ones (forward SDMC / enumeration, or reversed).
MULTI = ("A>*", "(A>|U)*", "A>*1..2", "A>.B>", "(A>|<A)*1..2")
VERTEX_VARS = ("a", "b", "c")
EDGE_VARS = ("e", "f")
MODES = (
    EngineMode.counting(),
    EngineMode.enumeration(PathSemantics.ALL_SHORTEST),
    EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE),
)


@st.composite
def graphs(draw):
    n = draw(st.integers(3, 6))
    g = Graph()
    for i in range(n):
        g.add_vertex(i, draw(st.sampled_from(VERTEX_TYPES)), w=draw(st.integers(0, 3)))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from(("A", "B", "U")), st.integers(0, 3),
        ),
        min_size=3, max_size=16,
    ))
    for source, target, etype, q in edges:
        if source != target:
            g.add_edge(source, target, etype, directed=etype != "U", q=q)
    return g


@st.composite
def chains(draw, first_var=None):
    """A chain whose variables come from a small pool, so repeats — a
    vertex variable bound twice is a join, an edge variable bound twice
    is re-bound — are common."""
    var = first_var or draw(st.sampled_from(VERTEX_VARS))
    source = VertexSpec(draw(st.sampled_from(SPEC_NAMES)), var)
    hops = []
    for _ in range(draw(st.integers(0, 3))):
        target_var = draw(st.none() | st.sampled_from(VERTEX_VARS))
        target = draw(st.sampled_from(SPEC_NAMES))
        if draw(st.booleans()):
            edge_var = draw(st.none() | st.sampled_from(EDGE_VARS))
            hops.append(hop(draw(st.sampled_from(SINGLE)), target, target_var, edge_var))
        else:
            hops.append(hop(draw(st.sampled_from(MULTI)), target, target_var))
    return Chain(source, hops)


@st.composite
def cases(draw):
    graph = draw(graphs())
    pattern_chains = [draw(chains())]
    if draw(st.booleans()):
        # A second chain starting at a variable of the first: a join.
        shared = draw(st.sampled_from(pattern_chains[0].variables()))
        if not shared.startswith("__v") and shared not in EDGE_VARS:
            pattern_chains.append(draw(chains(first_var=shared)))
    if draw(st.booleans()):
        # The Figure 1 shape: a hop-free conjunct naming a registered table.
        pattern_chains.append(Chain(VertexSpec("T", "r"), []))
    pattern = Pattern(pattern_chains)

    filters = {}
    for name in pattern.visible_variables():
        if draw(st.integers(0, 2)):
            continue
        attr = "q" if name in EDGE_VARS else "k" if name == "r" else "w"
        bound = Literal(draw(st.integers(0, 3)))
        op = draw(st.sampled_from((">", "<=", "!=")))
        filters[name] = [Binary(op, AttrRef(NameRef(name), attr), bound)]

    vertices = list(graph.vertices())
    members = draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    pinned = draw(st.none() | st.sampled_from(VERTEX_VARS))
    params = {pinned: draw(st.sampled_from(vertices))} if pinned else {}
    return graph, pattern, filters, members, params, draw(st.sampled_from(MODES))


def _context(graph, members, params):
    ctx = QueryContext(graph, params)
    ctx.set_vertex_set("S", VertexSet(graph, members))
    table = Table("T", ["k", "tag"])
    for k in range(3):
        table.append((k, f"t{k}"))
    ctx.tables["T"] = table
    return ctx


def _observed(col):
    spans = [
        (span.name, sorted(span.attrs.items()))
        for root in col.roots
        for span in root.walk()
    ]
    return dict(col.counters), spans


def _assert_same(graph, pattern, filters, members, params, mode):
    """Both matchers on fresh, equal contexts; returns the shipped table
    and the plans its hops ran."""
    with collect() as want_col:
        variables, want_rows = reference_pattern.evaluate_pattern(
            _context(graph, members, params), pattern, mode, filters
        )
    with collect() as got_col:
        table = evaluate_pattern(
            _context(graph, members, params), pattern, mode, filters
        )
    assert table.variables == variables == pattern.variables()
    assert all(set(bindings) == set(variables) for bindings, _ in want_rows)
    assert table.rows == [
        (tuple(bindings[name] for name in variables), multiplicity)
        for bindings, multiplicity in want_rows
    ]
    assert table.total_multiplicity() == sum(m for _, m in want_rows)
    assert _observed(got_col) == _observed(want_col)
    plans = {
        span.attrs["plan"]
        for root in got_col.roots
        for span in root.walk()
        if span.name == "hop"
    }
    return table, plans


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_tuple_rows_match_dict_rows(case):
    _assert_same(*case)


def _w(var, op, bound, attr="w"):
    return Binary(op, AttrRef(NameRef(var), attr), Literal(bound))


def _ring():
    """0 -A> 1 -A> 2 -A> 3 -A> 0 over type P (vertex 3 is a Q), chords
    0 -B> 2 and 1 -U- 3; ``w`` is the vertex id, ``q`` the edge's rank."""
    g = Graph()
    for i in range(4):
        g.add_vertex(i, "Q" if i == 3 else "P", w=i)
    for q, (source, target, etype) in enumerate(
        [(0, 1, "A"), (1, 2, "A"), (2, 3, "A"), (3, 0, "A"), (0, 2, "B"), (1, 3, "U")]
    ):
        g.add_edge(source, target, etype, directed=etype != "U", q=q)
    return g


COUNTING = EngineMode.counting()
ENUMERATION = EngineMode.enumeration(PathSemantics.ALL_SHORTEST)

#: name -> (chains, filters, pinned params, mode): one hand-built case per
#: shape the matcher treats specially, each with a non-empty result.
NAMED_SHAPES = {
    "repeated variable as a join": (
        [Chain(VertexSpec("_", "a"), [hop("A>*", "_", "b"), hop("A>*", "_", "a")])],
        {}, {}, COUNTING,
    ),
    "repeated variable on an adjacency hop": (
        [Chain(VertexSpec("_", "a"), [hop("U", "_", "b"), hop("U", "_", "a")])],
        {}, {}, COUNTING,
    ),
    "edge variable with a filter": (
        [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b", "e")])],
        {"e": [_w("e", ">", 0, "q")]}, {}, COUNTING,
    ),
    "edge variable re-bound by a later hop": (
        [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b", "e"), hop("A>", "_", "c", "e")])],
        {}, {}, COUNTING,
    ),
    "edge variable onto a joined target": (
        [Chain(VertexSpec("_", "a"), [hop("U", "_", "b", "e"), hop("U", "_", "a", "f")])],
        {}, {}, COUNTING,
    ),
    "wildcards": (
        [Chain(VertexSpec("ANY", "a"), [hop("_>", "_", "b")])], {}, {}, COUNTING,
    ),
    "vertex-set source and target": (
        [Chain(VertexSpec("S", "a"), [hop("A>", "S", "b")])], {}, {}, COUNTING,
    ),
    "pinned parameter": (
        [Chain(VertexSpec("P", "a"), [hop("A>*", "_", "b")])], {}, {"a": 1}, COUNTING,
    ),
    "pinned target": (
        [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b")])], {}, {"b": 2}, COUNTING,
    ),
    "Kleene hop with a filtered target": (
        [Chain(VertexSpec("_", "a"), [hop("(A>|U)*", "P", "b")])],
        {"b": [_w("b", ">", 0)]}, {}, COUNTING,
    ),
    "forward enumeration plan": (
        [Chain(VertexSpec("_", "a"), [hop("(A>|U)*1..2", "_", "b")])],
        {}, {}, EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE),
    ),
    "reversed enumeration plan": (
        [Chain(VertexSpec("_", "a"), [hop("A>*", "_", "b")])],
        {"b": [_w("b", "==", 2)]}, {}, ENUMERATION,
    ),
    "reversed enumeration plan under a join": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>*", "_", "a")])],
        {"a": [_w("a", "<=", 1)]}, {}, ENUMERATION,
    ),
    "two-chain join": (
        [
            Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "_", "c")]),
            Chain(VertexSpec("_", "a"), [hop("B>", "_", "c")]),
        ],
        {}, {}, COUNTING,
    ),
    "relational-table conjunct": (
        [
            Chain(VertexSpec("P", "a"), [hop("A>", "_", "b")]),
            Chain(VertexSpec("T", "r"), []),
        ],
        {"r": [_w("r", ">", 0, "k")]}, {}, COUNTING,
    ),
    "two table conjuncts joined on their variable": (
        [Chain(VertexSpec("T", "r"), []), Chain(VertexSpec("T", "r"), [])],
        {}, {}, COUNTING,
    ),
}


def test_named_shapes_are_all_covered():
    graph = _ring()
    members = [graph.vertex(0), graph.vertex(1), graph.vertex(2)]
    plans = set()
    for name, (pattern_chains, filters, pinned, mode) in NAMED_SHAPES.items():
        params = {var: graph.vertex(vid) for var, vid in pinned.items()}
        table, ran = _assert_same(
            graph, Pattern(pattern_chains), filters, members, params, mode
        )
        assert table.rows, name
        plans |= ran
    assert plans == {
        "adjacency", "sdmc-counting", "enumeration", "enumeration-reversed",
    }
