"""Plain-hop admission against the dict-row reference matcher.

A plain adjacency hop — no edge variable, no join, no pair semi-join —
whose targets are admitted by the type test plus bound comparisons
extends its whole table in one pass, each target tested inline, when
the buckets it crosses repeat no target id among their first few dozen
incidences.  Where targets repeat it keeps the verdict memo, and a
target the inline test cannot
decide (a missing attribute, a string against a number, a None ordered)
makes it rerun through the memo.  Whichever way it goes, the rows, their
order and multiplicities, the counters and hop-span attributes and the
error text must be those of ``tests/reference_pattern.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pattern as pattern_module
from repro.core.exprs import NameRef
from repro.core.pattern import Chain, Pattern, VertexSpec, hop
from repro.graph import Graph
from repro.graph.elements import FORWARD
from repro.ldbc import generate_snb_graph

from .test_core_pattern_differential import (
    COUNTING,
    MISSING,
    ODD,
    _assert_same,
    _attrs,
    _lowered,
    _w,
    conjuncts,
)


@pytest.fixture
def admissions(monkeypatch):
    """Counts the hops that bound the memoised admission."""
    calls = []
    bind = pattern_module._admission

    def counted(*args):
        calls.append(args[1].var)
        return bind(*args)

    monkeypatch.setattr(pattern_module, "_admission", counted)
    return calls


def _buckets(targets, last=2):
    """Sources 0-2 (type P) with ``A`` edges to the targets each lists
    (type Q, ``w`` = 1 unless ``last`` says otherwise for the last one
    listed)."""
    g = Graph()
    for source in targets:
        g.add_vertex(source, "P", w=0)
    ids = sorted({t for ts in targets.values() for t in ts})
    for t in ids:
        g.add_vertex(t, "Q", **_attrs("w", last if t == ids[-1] else 1))
    for source, ts in targets.items():
        for t in ts:
            g.add_edge(source, t, "A")
    return g


#: Every target in one bucket only.
DISTINCT = {0: [10, 11], 1: [12, 13], 2: [14, 15]}
#: Target 10 in the buckets of 0 and 1.
REPEATED = {0: [10, 11], 1: [10, 12], 2: [13, 14]}

ONE_HOP = Pattern([Chain(VertexSpec("P", "a"), [hop("A>", "Q", "b")])])

#: name -> (targets, the last target's ``w``, filter, raises, memo bound).
CASES = {
    "distinct targets, clean values": (DISTINCT, 2, _w("b", "<", 3), False, False),
    "distinct targets, two comparisons": (
        DISTINCT, 2, [_w("b", ">=", NameRef("lo")), _w("b", "!=", 2)], False, False,
    ),
    "distinct targets, no filter": (DISTINCT, 2, None, False, False),
    "later bucket lacks the attribute": (DISTINCT, MISSING, _w("b", "<", 3), True, True),
    "later bucket holds a str against an int": (DISTINCT, "s", _w("b", ">", 0), True, True),
    "later bucket holds None, ordered": (DISTINCT, None, _w("b", "<", 3), True, True),
    "later bucket holds None, equality": (DISTINCT, None, _w("b", "==", 1), False, False),
    "later bucket holds a str, equality": (DISTINCT, "s", _w("b", "==", 1), False, False),
    "repeated targets keep the memo": (REPEATED, 2, _w("b", "<", 3), False, True),
    "repeated targets, a raising later bucket": (REPEATED, None, _w("b", "<", 3), True, True),
    "repeated targets, no filter": (REPEATED, 2, None, False, False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_plain_hop_matches_the_reference(name, admissions):
    targets, last, filters, raises, memo = CASES[name]
    graph = _buckets(targets, last)
    if filters is not None and not isinstance(filters, list):
        filters = [filters]
    table, plans = _assert_same(
        graph, ONE_HOP, {"b": filters} if filters else {}, [], {}, COUNTING
    )
    assert (table is None) == raises
    if table is not None:
        assert plans == {"adjacency"}
    # the reference binds its own acceptor: only the shipped hop counts
    assert bool(admissions) == memo, admissions


def test_a_repeat_past_the_window_takes_the_one_pass(admissions):
    """Which way a hop runs changes its cost, never its rows: a target
    repeated only after the first few dozen incidences is tested inline
    at each of them."""
    window = pattern_module._REPEAT_WINDOW
    targets = {0: list(range(10, 10 + window)), 1: [10 + window, 10], 2: [10 + window + 1]}
    table, _ = _assert_same(_buckets(targets), ONE_HOP, {"b": [_w("b", "<", 3)]}, [], {}, COUNTING)
    assert len(table.rows) == window + 3
    assert admissions == []


def test_a_hop_without_a_filter_never_binds_the_memo(admissions):
    """Admission by the type test alone stores no verdict either way."""
    graph = _buckets(REPEATED)
    chained = Pattern([Chain(VertexSpec("P", "a"), [hop("A>", "_", "b"), hop("<A", "P", "c")])])
    table, _ = _assert_same(graph, chained, {}, [], {}, COUNTING)
    assert table.rows and admissions == []


# ----------------------------------------------------------------------
# ContainerOf>: every post in one forum
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def snb():
    return generate_snb_graph(scale_factor=0.05, seed=11)


def _dates(graph, label):
    values = sorted(v.attrs["creationDate"] for v in graph.vertices(label))
    return values[len(values) // 2]


def test_container_of_admits_inline(snb, admissions):
    """Distinct forums reach distinct posts: one pass, no memo."""
    pattern = Pattern([Chain(VertexSpec("Forum", "fo"), [hop("ContainerOf>", "Post", "po")])])
    filters = {"po": [_w("po", "<", _dates(snb, "Post"), "creationDate")]}
    table, plans = _assert_same(snb, pattern, filters, [], {}, COUNTING)
    assert table.rows and plans == {"adjacency"}
    assert admissions == []


def test_container_of_behind_a_fan_in_keeps_the_memo(snb, admissions):
    """Back from each post to its forum and out again: the second
    ``ContainerOf>`` hop crosses a forum once per post in it, so its
    targets repeat and it binds the memo."""
    pattern = Pattern([Chain(VertexSpec("Post", "po"), [
        hop("<ContainerOf", "Forum", "fo"), hop("ContainerOf>", "Post", "p2"),
    ])])
    bound = _dates(snb, "Post")
    filters = {
        "po": [_w("po", "<", bound, "creationDate")],
        "p2": [_w("p2", ">=", bound, "creationDate")],
    }
    table, _ = _assert_same(snb, pattern, filters, [], {}, COUNTING)
    assert table.rows
    assert admissions == ["p2"]


def test_container_of_with_a_post_lacking_the_attribute(snb, admissions):
    """One post of the last forum crossed has no ``creationDate``: the
    one pass stops, the hop reruns through the memo, and both matchers
    raise the same error."""
    graph = generate_snb_graph(scale_factor=0.05, seed=11)
    forums = list(graph.vertices("Forum"))
    bucket = graph.columns(FORWARD)["ContainerOf"][forums[-1].vid][0]
    del graph.vertex(bucket[-1]).attrs["creationDate"]
    pattern = Pattern([Chain(VertexSpec("Forum", "fo"), [hop("ContainerOf>", "Post", "po")])])
    filters = {"po": [_w("po", "<", _dates(snb, "Post"), "creationDate")]}
    table, _ = _assert_same(graph, pattern, filters, [], {}, COUNTING)
    assert table is None
    assert admissions == ["po"]


# ----------------------------------------------------------------------
# Generated: forests, so a forward hop meets each target once
# ----------------------------------------------------------------------

@st.composite
def forests(draw):
    """Vertices 0..n-1, each but the first maybe an ``A`` child of an
    earlier one: ``A>`` from distinct sources meets distinct targets,
    ``<A`` meets a parent once per child."""
    n = draw(st.integers(3, 9))
    values = st.sampled_from(ODD)
    g = Graph()
    for i in range(n):
        g.add_vertex(i, draw(st.sampled_from(("P", "P", "Q"))), **_attrs("w", draw(values)))
    for i in range(1, n):
        parent = draw(st.none() | st.integers(0, i - 1))
        if parent is not None:
            g.add_edge(parent, i, "A")
    return g


@st.composite
def forest_cases(draw):
    graph = draw(forests())
    hops = [
        hop(draw(st.sampled_from(("A>", "A>", "<A"))), draw(st.sampled_from(("P", "Q", "_"))), var)
        for var in ("b", "c")[: draw(st.integers(1, 2))]
    ]
    pattern = Pattern([Chain(VertexSpec(draw(st.sampled_from(("P", "_"))), "a"), hops)])
    filters = {}
    for var in pattern.visible_variables()[1:]:
        if draw(st.integers(0, 3)):
            filters[var] = [
                _lowered(var, draw(conjuncts(var))) for _ in range(draw(st.integers(1, 2)))
            ]
    return graph, pattern, filters, [], {}, COUNTING


@settings(max_examples=300, deadline=None)
@given(case=forest_cases())
def test_forest_hops_match_the_reference(case):
    _assert_same(*case)
