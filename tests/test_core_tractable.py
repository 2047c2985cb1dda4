"""Tests for the static tractable-class rules (Section 7): GSQL-W012
flags every order-dependent accumulator declaration, GSQL-E013 every
block that feeds one from a Kleene pattern."""

from repro.accum import ListAccum, SetAccum, SumAccum
from repro.analysis import analyze
from repro.core import (
    AccumTarget,
    AccumUpdate,
    DeclareAccum,
    Literal,
    NameRef,
    Query,
    RunBlock,
    SelectBlock,
    While,
    chain,
    hop,
)
from repro.core.context import GLOBAL, VERTEX
from repro.core.pattern import Pattern


ORDER_DEPENDENT = "GSQL-W012"
KLEENE_FEEDS = "GSQL-E013"


def violations(query):
    """The Section 7 diagnostics of ``query``, in display order."""
    return [
        d.code for d in analyze(query)
        if d.code in (ORDER_DEPENDENT, KLEENE_FEEDS)
    ]


def kleene_block(accum_name):
    return SelectBlock(
        pattern=Pattern([chain("V", "s", hop("E>*", "V", "t"))]),
        select_var="t",
        accum=[AccumUpdate(AccumTarget(accum_name, NameRef("t")), "+=", Literal(1))],
    )


def test_sum_from_kleene_is_tractable():
    q = Query(
        "q",
        [
            DeclareAccum("n", VERTEX, lambda: SumAccum(0, int)),
            RunBlock(kleene_block("n")),
        ],
    )
    assert violations(q) == []


def test_list_accum_flagged():
    q = Query(
        "q",
        [DeclareAccum("trace", VERTEX, ListAccum), RunBlock(kleene_block("trace"))],
    )
    assert set(violations(q)) == {ORDER_DEPENDENT, KLEENE_FEEDS}


def test_string_sum_flagged():
    q = Query(
        "q",
        [DeclareAccum("s", GLOBAL, lambda: SumAccum(element_type=str))],
    )
    assert violations(q) == [ORDER_DEPENDENT]


def test_set_accum_fine():
    q = Query(
        "q",
        [DeclareAccum("seen", VERTEX, SetAccum), RunBlock(kleene_block("seen"))],
    )
    assert violations(q) == []


def test_blocks_inside_control_flow_analyzed():
    q = Query(
        "q",
        [
            DeclareAccum("trace", VERTEX, ListAccum),
            While(Literal(False), [RunBlock(kleene_block("trace"))], Literal(1)),
        ],
    )
    assert KLEENE_FEEDS in violations(q)


def test_kleene_free_list_accum_only_soft_flagged():
    """A ListAccum fed from a single-edge pattern is reported (strict
    class definition) but has no kleene-feeds violation."""
    block = SelectBlock(
        pattern=Pattern([chain("V", "s", hop("E>", "V", "t"))]),
        select_var="t",
        accum=[AccumUpdate(AccumTarget("trace", NameRef("t")), "+=", Literal(1))],
    )
    q = Query(
        "q", [DeclareAccum("trace", VERTEX, ListAccum), RunBlock(block)]
    )
    assert violations(q) == [ORDER_DEPENDENT]
