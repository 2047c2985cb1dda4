"""The ACCUM clause's table-level heap fold against ``HeapAccum``.

A block whose ACCUM clause is one ``@@heap += (...)`` statement folds the
whole binding table into a block-private copy of the heap in one loop,
dropping most inputs on an inlined comparison of the first sort field
(``repro.compile.lowering._heap_fold``).  It must keep what
``HeapAccum.combine_weighted`` keeps, input by input, and raise what it
raises; a fault plan must still see one ``block.accum_map`` hit per
binding row, and AccSan must still record one event per input.
"""

import functools
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accsan
from repro.accum import ASC, DESC, HeapAccum
from repro.accum.algebra import digest_value
from repro.compile import CompileStats
from repro.compile.lowering import compile_accum_clause
from repro.core import QueryContext
from repro.core.context import GLOBAL, AccumDecl
from repro.core.exprs import EvalEnv, NameRef, Scope
from repro.core.stmts import AccumTarget, AccumUpdate, InputBuffer
from repro.errors import AccumulatorError, InjectedFault
from repro.governor.faults import FaultPlan, inject_faults
from repro.graph import Graph
from repro.gsql import parse_query
from repro.ldbc import generate_snb_graph
from repro.obs import collect

from .test_accum_heap_reference import LABEL, TRIPLE, _exact

#: Sort values: mostly small ints, so the first field ties the worst
#: retained tuple's often, and now and then one equal in another type or
#: sign, a NULL or NaN (refused) or a string (no order against a number).
#: Each NaN is made anew.
SORT_VALUE = st.one_of(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    st.sampled_from([True, 1.0, -0.0, None, "x"]),
    st.builds(float, st.just("nan")),
)
#: Inputs of the declared arity mostly, and of the wrong one.
INPUT = st.tuples(SORT_VALUE, SORT_VALUE, LABEL).flatmap(lambda abs_: st.sampled_from([
    abs_, abs_, abs_, abs_[:2], abs_ + (0,), list(abs_),
]))
#: The first field's order both ways, and sometimes a second field.
SORT_SPEC = st.tuples(
    st.sampled_from([ASC, DESC]), st.sampled_from([None, ("b", ASC), ("b", DESC)]),
).map(lambda spec: [("a", spec[0])] + ([spec[1]] if spec[1] else []))


def _combined(capacity, sort_spec, held, rows):
    """``rows`` folded one by one with ``combine_weighted`` into a heap
    holding ``held``: its values, or the error's message."""
    heap = HeapAccum(TRIPLE, capacity, sort_spec)
    heap.assign(held)
    try:
        for (value,), multiplicity in rows:
            heap.combine_weighted(value, multiplicity)
    except AccumulatorError as exc:
        return str(exc)
    return [_exact(t.values) for t in heap.value]


def _folded(capacity, sort_spec, held, rows, table=True):
    """``@@h += x`` over ``rows`` through the clause's table-level entry
    (or its row function), then the Reduce: the heap's values, or the
    error's message — with the live heap as the block found it — and the
    ``accum.combine_weighted`` count."""
    ctx = QueryContext(Graph())
    ctx.declare(AccumDecl("h", GLOBAL, lambda: HeapAccum(TRIPLE, capacity, sort_spec)))
    heap = ctx.global_accum("h")
    heap.assign(held)
    before = heap.value
    bind = compile_accum_clause(
        [AccumUpdate(AccumTarget("h"), "+=", NameRef("x"))], {}, CompileStats(), Scope(["x"])
    )
    buffer = InputBuffer()
    env = EvalEnv(ctx)
    with collect() as col:
        try:
            if table:
                bind(ctx, buffer, table=True)(env, rows)
            else:
                kernel = bind(ctx, buffer)
                for values, multiplicity in rows:
                    env.row = values
                    kernel(env, multiplicity)
            buffer.flush()
        except AccumulatorError as exc:
            assert heap.value == before, "a failed Map phase touched the live heap"
            return str(exc), None
    return [_exact(t.values) for t in heap.value], col.counters.get("accum.combine_weighted")


@settings(max_examples=400, deadline=None)
@given(
    capacity=st.integers(1, 4),
    sort_spec=SORT_SPEC,
    held=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), LABEL), max_size=4),
    rows=st.lists(st.tuples(st.tuples(INPUT), st.integers(-1, 5)), max_size=14),
)
def test_the_fold_keeps_what_combine_weighted_keeps(capacity, sort_spec, held, rows):
    """ASC and DESC first fields, first-field ties with the worst retained
    tuple, NULL and NaN sort values, multiplicities 0 and -1 and inputs of
    the wrong arity: the table-level fold and the row function end where
    ``combine_weighted`` ends, or raise its error, and count every row."""
    expected = _combined(capacity, sort_spec, held, rows)
    got, count = _folded(capacity, sort_spec, held, rows)
    assert got == expected
    assert _folded(capacity, sort_spec, held, rows, table=False) == (got, count)
    if count is not None and rows:
        assert count == len(rows)


FULL = [(5, 5, "x"), (3, 3, "y")]
fold_into_full = functools.partial(_folded, 2, [("a", DESC), ("b", DESC)], FULL)


@pytest.mark.parametrize("item, kept", [
    ((2, 9, "z"), FULL),                    # strictly worse first field: dropped
    ((3, 2, "z"), FULL),                    # tie at the threshold, worse second field
    ((3, 4, "z"), [(5, 5, "x"), (3, 4, "z")]),  # tie at the threshold, better second field
    ((3, 3, "a"), [(5, 5, "x"), (3, 3, "a")]),  # whole-key tie: the smaller tuple ranks first
    ((3, 3, "z"), FULL),
    ((6, 0, "z"), [(6, 0, "z"), (5, 5, "x")]),
    ((2, 9), FULL),                         # short: not screened, then dropped by the insert
])
def test_ties_at_the_threshold(item, kept):
    rows = [((item,), 1)]
    assert fold_into_full(rows)[0] == [_exact(v) for v in kept]
    assert _combined(2, [("a", DESC), ("b", DESC)], FULL, rows) == [_exact(v) for v in kept]


@pytest.mark.parametrize("item, multiplicity, message", [
    ((2, None, "z"), 1, "HeapAccum sort field 'b' holds NULL"),
    ((2, float("nan"), "z"), 1, "HeapAccum sort field 'b' holds NaN"),
    ((None, 9, "z"), 1, "HeapAccum sort field 'a' holds NULL"),
    (("x", 9, "z"), 1, "HeapAccum sort field 'a' holds int/str"),
    ((9, 9, "z"), -1, "negative multiplicity -1"),
])
def test_values_that_cannot_rank_raise_as_combine_weighted_does(item, multiplicity, message):
    """A NULL or NaN in the second field raises though the first alone
    would drop the input; so do a NULL first field, a string against a
    number and a negative multiplicity."""
    rows = [((item,), multiplicity)]
    assert fold_into_full(rows) == (message, None)
    assert _combined(2, [("a", DESC), ("b", DESC)], FULL, rows) == message


def test_multiplicity_zero_folds_nothing():
    rows = [(((9, 9, "z"),), 0), (((None, 0, "z"),), 0)]
    assert fold_into_full(rows) == ([_exact(v) for v in FULL], 2)


# ----------------------------------------------------------------------
# IC9 end to end: fault sites and AccSan events
# ----------------------------------------------------------------------

BOUND = 20120601
IC9 = """
CREATE QUERY ic9(vertex<Person> p) FOR GRAPH SNB {
  TYPEDEF TUPLE <INT creationDate, INT length, STRING author> Msg;
  HeapAccum<Msg>(20, creationDate DESC, length DESC) @@recent;

  F = SELECT o
      FROM   Person:p -(Knows*1..2)- Person:o
      WHERE  o <> p;

  C = SELECT m
      FROM   F:f -(<CommentCreator)- Comment:m
      WHERE  m.creationDate < 20120601
      ACCUM  @@recent += (m.creationDate, m.length, f.lastName);

  PO = SELECT m
       FROM   F:f -(<PostCreator)- Post:m
       WHERE  m.creationDate < 20120601
       ACCUM  @@recent += (m.creationDate, m.length, f.lastName);

  PRINT @@recent;
}
"""


@pytest.fixture(scope="module")
def snb():
    graph = generate_snb_graph(scale_factor=0.1, seed=42)
    person = max(graph.vertices("Person"), key=lambda v: v.vid)
    return graph, person


def _run(graph, person):
    return parse_query(IC9).run(graph, p=person).printed


def _heap_inputs(graph, person):
    """The ``(creationDate, length, lastName)`` inputs of the two heap
    blocks, read off the graph: friends within two Knows hops, then their
    messages before the bound."""
    depth = {person.vid: 0}
    queue = deque([person.vid])
    while queue:
        vid = queue.popleft()
        if depth[vid] == 2:
            continue
        for edge in graph.edges("Knows"):
            for a, b in ((edge.source, edge.target), (edge.target, edge.source)):
                if a == vid and b not in depth:
                    depth[b] = depth[vid] + 1
                    queue.append(b)
    friends = {vid for vid, d in depth.items() if d}
    inputs = []
    for etype in ("CommentCreator", "PostCreator"):
        for edge in graph.edges(etype):
            if edge.target in friends:
                m = graph.vertex(edge.source)
                if m.attrs["creationDate"] < BOUND:
                    f = graph.vertex(edge.target)
                    inputs.append(
                        (m.attrs["creationDate"], m.attrs["length"], f.attrs["lastName"])
                    )
    return inputs


def test_a_fault_plan_fires_once_per_binding_row(snb):
    """Under an armed plan the Map phase runs per row: one
    ``block.accum_map`` hit per acc-execution, the same result as
    without the plan, and a fault at hit k aborts leaving no heap input
    behind."""
    graph, person = snb
    expected = _run(graph, person)
    with collect() as col:
        _run(graph, person)
    rows = col.counters["block.acc_executions"]
    assert rows == len(_heap_inputs(graph, person)) > 20
    plan = FaultPlan()
    with inject_faults(plan):
        assert _run(graph, person) == expected
    assert plan.hit_count("block.accum_map") == rows
    plan = FaultPlan().inject("block.accum_map", at=rows - 1)
    with inject_faults(plan), pytest.raises(InjectedFault):
        _run(graph, person)
    assert plan.hit_count("block.accum_map") == rows


def test_a_sanitized_run_records_every_heap_input(snb):
    """With AccSan bound the heap statement takes the buffered path: one
    ``accum`` event per input, its digest that of the input tuple, and
    the same printed heap."""
    graph, person = snb
    expected = _run(graph, person)
    with accsan.sanitize() as sanitizer:
        assert _run(graph, person) == expected
    events = [e for e in sanitizer.events if e.target == "@@recent"]
    assert {(e.site, e.accum, e.op) for e in events} == {("accum", "HeapAccum", "+=")}
    assert Counter(e.digest for e in events) == Counter(
        digest_value(value) for value in _heap_inputs(graph, person)
    )
    assert not sanitizer.detections
