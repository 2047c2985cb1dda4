"""Generated differential for the pattern matcher: slot-tuple rows
(``repro.core.pattern``) against the dict-row matcher they replaced
(``tests/reference_pattern.py``).

Over Hypothesis-built typed graphs and patterns the two must produce the
same rows *in the same order*, the same multiplicities, the same hop-span
attributes and the same counters — the row representation is an
implementation detail of the matcher, visible to nobody.

Pushed-down filters are lowered the way a compiled block lowers them, so
comparisons carry their tag and the shipped bind stage tests them inline;
the reference runs every conjunct's closure.  Attributes may be missing,
None or a string where a number is compared: the two must then raise the
same ``QueryRuntimeError`` (type and message), or agree on the verdict.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.lowering import lower_pushed_filter
from repro.core import QueryContext
from repro.core.exprs import NO_SCOPE, AttrRef, Binary, EvalEnv, Literal, NameRef, Scope
from repro.core.pattern import (
    Chain,
    EngineMode,
    Pattern,
    VertexSpec,
    _bind_filters,
    evaluate_pattern,
    hop,
)
from repro.core.values import Table, VertexSet
from repro.errors import QueryRuntimeError
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
OPS = ("==", "!=", "<", "<=", ">", ">=")
#: Declared parameters a filter may compare against: an int, a float and a
#: str the bind stage binds, a None and a bool it leaves to the closures.
PARAMS = {"lo": 1, "mid": 1.5, "word": "s", "nothing": None, "flag": True}
OPERANDS = (
    Literal(0), Literal(1), Literal(2), Literal(3), Literal(2.5), Literal("s"),
    *(NameRef(name) for name in PARAMS),
)
#: The attribute a variable's filters read: edges carry ``q``, table rows
#: ``k``, vertices ``w``.
ATTR = {"e": "q", "f": "q", "r": "k"}
#: An attribute value that is not there at all.
MISSING = object()
NUMBERS = (0, 1, 2, 3)
#: Attribute values of a graph with odd ones: None, a string, missing.
ODD = NUMBERS * 3 + (None, "s", MISSING)


def _attrs(name, value):
    return {} if value is MISSING else {name: value}


@st.composite
def graphs(draw):
    n = draw(st.integers(3, 6))
    values = st.sampled_from(ODD if draw(st.booleans()) else NUMBERS)
    g = Graph()
    for i in range(n):
        g.add_vertex(i, draw(st.sampled_from(VERTEX_TYPES)), **_attrs("w", draw(values)))
    edges = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1),
            st.sampled_from(("A", "B", "U")), values,
        ),
        min_size=3, max_size=16,
    ))
    for source, target, etype, q in edges:
        if source != target:
            g.add_edge(source, target, etype, directed=etype != "U", **_attrs("q", q))
    return g


def _lowered(var, conjunct):
    """``conjunct`` as a compiled block's pushdown lowers it: under the
    one-slot scope of ``var`` with ``PARAMS`` declared."""
    return lower_pushed_filter(conjunct, None, Scope((var,), (), PARAMS))


@st.composite
def conjuncts(draw, var):
    """``var.attr <op> operand`` — the tagged shape — or, now and then,
    ``operand <op> var.attr``, which keeps its closure."""
    op = draw(st.sampled_from(OPS))
    operand = draw(st.sampled_from(OPERANDS))
    attr = AttrRef(NameRef(var), ATTR.get(var, "w"))
    if draw(st.integers(0, 4)):
        return Binary(op, attr, operand)
    return Binary(op, operand, attr)


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
        filters[name] = [
            _lowered(name, draw(conjuncts(name))) for _ in range(draw(st.integers(1, 2)))
        ]

    vertices = list(graph.vertices())
    members = draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    pinned = draw(st.none() | st.sampled_from(VERTEX_VARS))
    params = {pinned: draw(st.sampled_from(vertices))} if pinned else {}
    return graph, pattern, filters, members, params, draw(st.sampled_from(MODES))


def _context(graph, members, params):
    ctx = QueryContext(graph, {**PARAMS, **params})
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


def _outcome(matcher, graph, pattern, filters, members, params, mode):
    """The matcher's result and collector, or the type and message of
    the ``QueryRuntimeError`` it raised."""
    with collect() as col:
        try:
            result = matcher(_context(graph, members, params), pattern, mode, filters)
        except QueryRuntimeError as exc:
            return (type(exc), str(exc)), col
    return result, col


def _assert_same(graph, pattern, filters, members, params, mode):
    """Both matchers on fresh, equal contexts; returns the shipped table
    and the plans its hops ran, plus ``"semijoin"`` when a semi-join
    pruned a hop (None, and no hop plans, when both raised)."""
    case = (graph, pattern, filters, members, params, mode)
    want, want_col = _outcome(reference_pattern.evaluate_pattern, *case)
    table, got_col = _outcome(evaluate_pattern, *case)
    pruned = {"semijoin"} if got_col.counter("planner.hops_semijoin") else set()
    if isinstance(want[0], type) or isinstance(table, tuple):
        assert table == want
        assert _observed(got_col) == _observed(want_col)
        return None, pruned
    variables, want_rows = want
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
    return table, plans | pruned


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_tuple_rows_match_dict_rows(case):
    _assert_same(*case)


@st.composite
def semijoin_cases(draw):
    """Chains of two or three adjacency hops whose last far end is
    pinned, a vertex set or filtered — the shape a semi-join prunes —
    from a wide seed, so the far end is often the smaller side."""
    graph = draw(graphs())
    source = VertexSpec(draw(st.sampled_from(("_", "P"))), "a")
    count = draw(st.integers(2, 3))
    hops = []
    for i in range(count):
        # the far end is a named variable, so it can be filtered or pinned
        names = st.sampled_from(VERTEX_VARS)
        target_var = draw(names if i == count - 1 else st.none() | names)
        edge_var = draw(st.none() | st.sampled_from(EDGE_VARS))
        hops.append(hop(
            draw(st.sampled_from(SINGLE)), draw(st.sampled_from(SPEC_NAMES)),
            target_var, edge_var,
        ))
    pattern = Pattern([Chain(source, hops)])
    far = hops[-1].target.var
    filters = {}
    for name in pattern.visible_variables():
        if name == far or not draw(st.integers(0, 3)):
            filters[name] = [_lowered(name, draw(conjuncts(name)))]
    vertices = list(graph.vertices())
    members = draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True))
    params = {far: draw(st.sampled_from(vertices))} if draw(st.booleans()) else {}
    return graph, pattern, filters, members, params, COUNTING


@settings(max_examples=200, deadline=None)
@given(case=semijoin_cases())
def test_semijoin_pruned_rows_match_dict_rows(case):
    _assert_same(*case)


def _w(var, op, bound, attr="w"):
    """The lowered filter ``var.attr op bound`` (``bound`` a value, or a
    ``NameRef`` to one of ``PARAMS``)."""
    operand = bound if isinstance(bound, NameRef) else Literal(bound)
    return _lowered(var, Binary(op, AttrRef(NameRef(var), attr), operand))


def _ring(w2=2):
    """0 -A> 1 -A> 2 -A> 3 -A> 0 over type P (vertex 3 is a Q), chords
    0 -B> 2 and 1 -U- 3; ``w`` is the vertex id (vertex 2's is ``w2``, or
    absent for ``MISSING``), ``q`` the edge's rank."""
    g = Graph()
    for i in range(4):
        g.add_vertex(i, "Q" if i == 3 else "P", **_attrs("w", w2 if i == 2 else i))
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
    # A semi-join prunes the first hop to the b the second hop extends.
    "semi-join: filtered far end": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "P", "c")])],
        {"c": [_w("c", "==", 2)]}, {}, COUNTING,
    ),
    "semi-join: filtered far end behind a filtered target (the ic6 shape)": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "P", "c")])],
        {"b": [_w("b", ">=", 0)], "c": [_w("c", "==", 2)]}, {}, COUNTING,
    ),
    "semi-join: filtered far end behind an edge variable (the ic11 shape)": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b", "e"), hop("A>", "P", "c")])],
        {"e": [_w("e", "<", 3, "q")], "c": [_w("c", ">", NameRef("lo"))]}, {}, COUNTING,
    ),
    "semi-join: pinned far end": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "_", "c")])],
        {}, {"c": 3}, COUNTING,
    ),
    "semi-join: vertex-set far end": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "S", "c")])],
        {}, {}, COUNTING,
    ),
    "semi-join: joined far end": (
        [Chain(VertexSpec("_", "a"), [hop("_>", "_", "b"), hop("<A", "S", "a")])],
        {}, {}, COUNTING,
    ),
    "semi-join: undirected far hop": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("U", "_", "c")])],
        {"c": [_w("c", "==", 3)]}, {}, COUNTING,
    ),
    "semi-join abandoned: undecidable far end the hop never reaches": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("U", "P", "c")])],
        {"c": [_w("c", "<", 3)]}, {}, COUNTING,
    ),
    "semi-join abandoned: undecidable far end the hop reaches": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "P", "c")])],
        {"c": [_w("c", "<", 3)]}, {}, COUNTING,
    ),
    "semi-join: edge filter raises on a row it would drop": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b", "e"), hop("A>", "P", "c")])],
        {"e": [_w("e", "<", 3, "q")], "c": [_w("c", "==", 2)]}, {}, COUNTING,
    ),
    "semi-join: target filter raises on a row it would drop": (
        [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b"), hop("A>", "_", "c")])],
        {"b": [_w("b", "<", 3)], "c": [_w("c", "==", 1)]}, {}, COUNTING,
    ),
}

#: Named shapes run on another graph than ``_ring()``: vertex 2's ``w``
#: is None, or the A edge leaving vertex 2 has ``q`` None.
SHAPE_GRAPHS = {
    "semi-join: target filter raises on a row it would drop": lambda: _ring(None),
    "semi-join abandoned: undecidable far end the hop never reaches": lambda: _ring(None),
    "semi-join abandoned: undecidable far end the hop reaches": lambda: _ring(None),
    "semi-join: edge filter raises on a row it would drop": (
        lambda: _edge_q(_ring(), 2, None)
    ),
}

#: Named shapes whose evaluation raises (the same error in both matchers).
RAISING_SHAPES = {
    "semi-join: target filter raises on a row it would drop",
    "semi-join abandoned: undecidable far end the hop reaches",
    "semi-join: edge filter raises on a row it would drop",
}


def test_named_shapes_are_all_covered():
    plans = set()
    pruned = set()
    for name, (pattern_chains, filters, pinned, mode) in NAMED_SHAPES.items():
        graph = SHAPE_GRAPHS.get(name, _ring)()
        members = [graph.vertex(0), graph.vertex(1), graph.vertex(2)]
        params = {var: graph.vertex(vid) for var, vid in pinned.items()}
        table, ran = _assert_same(
            graph, Pattern(pattern_chains), filters, members, params, mode
        )
        if name in RAISING_SHAPES:
            assert table is None, name
        else:
            assert table.rows, name
        if "semijoin" in ran:
            pruned.add(name)
        plans |= ran
    assert plans == {
        "adjacency", "sdmc-counting", "enumeration", "enumeration-reversed",
        "semijoin",
    }
    assert pruned == {
        name for name in NAMED_SHAPES
        if name.startswith("semi-join:")
    }


# ----------------------------------------------------------------------
# Bound comparisons: the inline test against the conjuncts' closures
# ----------------------------------------------------------------------

#: From every P vertex (0, 1, 2) across one A edge: b is 1, 2 or 3.
ONE_HOP = [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b")])]

#: name -> (vertex 2's ``w``, chains, filters, raises): each is run on
#: ``_ring(w2)`` by both matchers.
BOUND_COMPARISONS = {
    **{
        f"b.w {op} 2": (2, ONE_HOP, {"b": [_w("b", op, 2)]}, False)
        for op in OPS
    },
    "int parameter": (2, ONE_HOP, {"b": [_w("b", ">=", NameRef("lo"))]}, False),
    "float parameter": (2, ONE_HOP, {"b": [_w("b", "<", NameRef("mid"))]}, False),
    "float literal": (2, ONE_HOP, {"b": [_w("b", ">", 1.5)]}, False),
    "str parameter, equality": (2, ONE_HOP, {"b": [_w("b", "==", NameRef("word"))]}, False),
    "str parameter, ordering": (2, ONE_HOP, {"b": [_w("b", "<", NameRef("word"))]}, True),
    "None parameter": (2, ONE_HOP, {"b": [_w("b", "!=", NameRef("nothing"))]}, False),
    "bool parameter": (2, ONE_HOP, {"b": [_w("b", "==", NameRef("flag"))]}, False),
    "two conjuncts on one variable": (
        2, ONE_HOP, {"b": [_w("b", ">=", NameRef("lo")), _w("b", "!=", 3)]}, False,
    ),
    "seed filter": (2, ONE_HOP, {"a": [_w("a", "<", 2)]}, False),
    "Kleene hop target": (
        2, [Chain(VertexSpec("P", "a"), [hop("A>*", "_", "b")])],
        {"a": [_w("a", "==", 0)], "b": [_w("b", ">", NameRef("lo"))]}, False,
    ),
    "edge variable": (
        2, [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b", "e")])],
        {"e": [_w("e", "<=", NameRef("lo"), "q")]}, False,
    ),
    "table row": (
        2, [Chain(VertexSpec("T", "r"), [])], {"r": [_w("r", ">=", NameRef("lo"), "k")]},
        False,
    ),
    "None attribute, ordering": (None, ONE_HOP, {"b": [_w("b", "<", 3)]}, True),
    "None attribute, equality": (None, ONE_HOP, {"b": [_w("b", "==", 2)]}, False),
    "None attribute, inequality": (None, ONE_HOP, {"b": [_w("b", "!=", 2)]}, False),
    "None attribute in the second conjunct": (
        None, ONE_HOP, {"b": [_w("b", "!=", 0), _w("b", "<", 3)]}, True,
    ),
    "None attribute on a Kleene target": (
        None, [Chain(VertexSpec("P", "a"), [hop("A>*1..2", "_", "b")])],
        {"a": [_w("a", "==", 0)], "b": [_w("b", ">=", 1)]}, True,
    ),
    "string attribute against an int": ("s", ONE_HOP, {"b": [_w("b", ">", 1)]}, True),
    "string attribute, equality": ("s", ONE_HOP, {"b": [_w("b", "==", 2)]}, False),
    "missing attribute": (MISSING, ONE_HOP, {"b": [_w("b", ">=", 0)]}, True),
    "missing attribute on the seed": (MISSING, ONE_HOP, {"a": [_w("a", "<", 9)]}, True),
}


@pytest.mark.parametrize("name", sorted(BOUND_COMPARISONS))
def test_bound_comparisons_decide_as_their_closures(name):
    w2, pattern_chains, filters, raises = BOUND_COMPARISONS[name]
    graph = _ring(w2)
    members = [graph.vertex(0), graph.vertex(1), graph.vertex(2)]
    table, _ = _assert_same(graph, Pattern(pattern_chains), filters, members, {}, COUNTING)
    assert (table is None) == raises


def test_lowering_tags_only_the_comparison_shape():
    b_w = AttrRef(NameRef("b"), "w")
    tagged = [
        Binary(op, b_w, operand)
        for op in OPS for operand in (Literal(2), Literal("s"), NameRef("lo"))
    ]
    untagged = [
        Binary("<", Literal(2), b_w),  # operand on the left
        Binary("<", b_w, NameRef("undeclared")),
        Binary("<", b_w, NameRef("b")),  # the variable itself
        Binary("<", AttrRef(NameRef("c"), "w"), Literal(2)),  # another name
        Binary("+", b_w, Literal(2)),
        Binary("IN", b_w, Literal((1, 2))),
        Binary("<", b_w, Binary("+", Literal(1), Literal(1))),
    ]
    env = EvalEnv(QueryContext(Graph(), PARAMS))
    for conjunct in tagged:
        attr, op, operand = _lowered("b", conjunct).compare
        assert (attr, op) == ("w", conjunct.op)
        assert operand(env) == conjunct.right.closure(NO_SCOPE)[0](env)
    for conjunct in untagged:
        assert _lowered("b", conjunct).compare is None, conjunct


def test_a_clean_comparison_never_runs_its_closure():
    """With plain operands the verdict is the inline test's; only what it
    cannot decide reaches the closure (here: one that raises)."""

    def closure_ran(env):
        raise AssertionError("closure ran")

    graph = _ring(None)
    ctx = _context(graph, [], {})
    for operand in (2, NameRef("lo")):
        lowered = _w("b", "<", operand)
        lowered.fn = closure_ran
        passes = _bind_filters(ctx, "b", [lowered])
        assert passes(graph.vertex(0)) is True
        assert passes(graph.vertex(3)) is False
        with pytest.raises(AssertionError, match="closure ran"):
            passes(graph.vertex(2))  # w is None
    # a None operand is not bound: the closure decides every vertex
    lowered = _w("b", "==", NameRef("nothing"))
    lowered.fn = closure_ran
    with pytest.raises(AssertionError, match="closure ran"):
        _bind_filters(ctx, "b", [lowered])(graph.vertex(0))


# ----------------------------------------------------------------------
# The admission loop: every first sight decided inline, as the closures
# ----------------------------------------------------------------------

def _edge_q(graph, source, value):
    """``graph`` with the A edge leaving ``source`` given ``q = value``."""
    edge = next(e for e in graph.edges("A") if e.source == source)
    edge.attrs["q"] = value
    return graph


def _fan():
    """0 -A> 1 (``q`` None) and 0 -A> 2 (vertex 2's ``w`` None): one bucket
    whose first crossing fails its edge filter, its second its target's."""
    g = Graph()
    for i, w in enumerate((0, 1, None)):
        g.add_vertex(i, "P", w=w)
    g.add_edge(0, 1, "A", q=None)
    g.add_edge(0, 2, "A", q=1)
    return g


#: name -> (graph factory, chains, filters, pinned params, raises).
ADMISSION = {
    "ic5 shape: <HasMember:e ... e.joinDate > n": (
        _ring, [Chain(VertexSpec("P", "a"), [hop("<A", "_", "b", "e")])],
        {"e": [_w("e", ">", NameRef("lo"), "q")]}, {}, False,
    ),
    "ic11 shape: WorkAt>:w ... w.workFrom < n": (
        _ring, [Chain(VertexSpec("_", "a"), [hop("A>", "P", "b", "w")])],
        {"w": [_w("w", "<", 3, "q")], "b": [_w("b", ">=", NameRef("lo"))]}, {}, False,
    ),
    "bound edge comparison meets a None attribute": (
        lambda: _edge_q(_ring(), 1, None),
        [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b", "w")])],
        {"w": [_w("w", "<", 3, "q")]}, {}, True,
    ),
    "edge error before a later target's error in one bucket": (
        _fan, [Chain(VertexSpec("_", "a"), [hop("A>", "_", "b", "e")])],
        {"e": [_w("e", ">=", 0, "q")], "b": [_w("b", "<", 3)]}, {}, True,
    ),
    "repeat target behind a raising filter": (
        lambda: _ring(None), [Chain(VertexSpec("_", "a"), [hop("_>", "_", "b")])],
        {"b": [_w("b", "<", 3)]}, {}, True,
    ),
    "pinned target with a filter": (
        _ring, [Chain(VertexSpec("P", "a"), [hop("A>", "_", "b")])],
        {"b": [_w("b", ">=", NameRef("lo"))]}, {"b": 2}, False,
    ),
    "vertex-set target with a filter": (
        _ring, [Chain(VertexSpec("_", "a"), [hop("A>", "S", "b")])],
        {"b": [_w("b", "!=", 1)]}, {}, False,
    ),
    "wildcard hop over several columns": (
        _ring, [Chain(VertexSpec("P", "a"), [hop("_>", "_", "b"), hop("U", "_", "c")])],
        {"b": [_w("b", ">", 0)], "c": [_w("c", "<=", 3)]}, {}, False,
    ),
    "pinned seed with a filter": (
        _ring, ONE_HOP, {"a": [_w("a", ">", 0)]}, {"a": 1}, False,
    ),
    "vertex-set seed with a raising filter": (
        lambda: _ring(None), [Chain(VertexSpec("S", "a"), [hop("A>", "_", "b")])],
        {"a": [_w("a", "<", 3)]}, {}, True,
    ),
    "seed and Kleene target, both filtered": (
        _ring, [Chain(VertexSpec("P", "a"), [hop("(A>|U)*", "_", "b")])],
        {"a": [_w("a", "<=", 1)], "b": [_w("b", "!=", NameRef("lo"))]}, {}, False,
    ),
}


@pytest.mark.parametrize("name", sorted(ADMISSION))
def test_admission_decides_as_the_closures(name):
    make, pattern_chains, filters, pinned, raises = ADMISSION[name]
    graph = make()
    members = [graph.vertex(0), graph.vertex(1), graph.vertex(2)]
    params = {var: graph.vertex(vid) for var, vid in pinned.items()}
    table, _ = _assert_same(graph, Pattern(pattern_chains), filters, members, params, COUNTING)
    assert (table is None) == raises


def test_a_raising_filter_runs_as_often_as_the_closures(monkeypatch):
    """Vertex 2 is a target of two rows and its filter raises: both
    matchers call the filter on the same vertices, in the same order, and
    stop at the first encounter of 2 — nothing is remembered for it, so a
    second evaluation calls it again."""
    from repro.core.exprs import _FUNCTIONS, Call

    calls = []

    def seen(vertex):
        calls.append(vertex.vid)
        if vertex.vid == 2:
            raise QueryRuntimeError("no verdict for 2")
        return True

    monkeypatch.setitem(_FUNCTIONS, "seen", seen)
    graph = _ring()
    pattern = Pattern([Chain(VertexSpec("_", "a"), [hop("_>", "_", "b")])])
    filters = {"b": [_lowered("b", Call("seen", [NameRef("b")]))]}
    logs = []
    for matcher in (reference_pattern.evaluate_pattern, evaluate_pattern):
        del calls[:]
        for _ in range(2):
            with pytest.raises(QueryRuntimeError, match="no verdict for 2"):
                matcher(_context(graph, [], {}), pattern, COUNTING, filters)
        logs.append(list(calls))
    assert logs[0] == logs[1]
    assert logs[1].count(2) == 2 and logs[1][-1] == 2
