"""``HeapAccum.combine_weighted`` coerces an input once and drops a
positional input that cannot beat a full heap before building its
``TupleValue``.  The insert-one-copy-at-a-time ``combine`` it replaced is
kept here as the reference, under the full order written out — the sort
fields, then the whole value tuple — and the two must retain the same
tuples after every operation of a generated sequence.
"""

import contextlib
import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accsan
from repro.accum import ASC, DESC, HeapAccum, TupleType
from repro.accum.heap import _Reversed
from repro.accum.tuples import coerce_tuple
from repro.compile import CompileStats
from repro.compile.lowering import compile_accum_clause
from repro.core import QueryContext
from repro.core.context import GLOBAL, AccumDecl
from repro.core.exprs import EvalEnv, NameRef, Scope
from repro.core.stmts import AccumTarget, AccumUpdate, InputBuffer
from repro.errors import AccumulatorError
from repro.graph import Graph
from repro.obs import collect


def _rank(value):
    """One field of the tie-break: NULL first, then numbers, then strings."""
    if value is None:
        return (0,)
    return (2, value) if isinstance(value, str) else (1, value)


class ReferenceHeapAccum(HeapAccum):
    """The old per-copy insert: every copy is coerced and keyed again.
    A NULL sort field is refused; equal sort keys rank the smaller value
    tuple first."""

    def _reference_key(self, item):
        parts = []
        for field, order in self.sort_spec:
            val = item.get(field)
            if val is None:
                raise AccumulatorError(f"sort field {field!r} is NULL")
            parts.append(_Reversed(val) if order == ASC else val)
        parts.append(_Reversed(tuple(map(_rank, item.values))))
        return tuple(parts)

    def combine(self, item):
        tup = coerce_tuple(self.tuple_type, item)
        entry = (self._reference_key(tup), None, tup)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        else:
            worst = self._heap[0]
            if worst[0] < entry[0]:
                heapq.heapreplace(self._heap, entry)

    def combine_weighted(self, item, multiplicity):
        if multiplicity < 0:
            raise AccumulatorError(f"negative multiplicity {multiplicity}")
        for _ in range(min(multiplicity, self.capacity)):
            self.combine(item)


TRIPLE = TupleType("T", [("a", "INT"), ("b", "INT"), ("s", "STRING")])
SINGLE = TupleType("One", [("a", "INT")])

#: Mostly small ints — ties are the interesting case — and now and then a
#: NULL: refused in a sort field, a tie-break like any value elsewhere.
FIELD = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.none())
LABEL = st.sampled_from(["x", "y", "z"])


def _shapes(a, b, s):
    """One logical input in every form ``coerce_tuple`` accepts."""
    return st.sampled_from([
        (a, b, s),                              # the positional tuple ACCUM builds
        [a, b, s],
        {"a": a, "b": b, "s": s},
        TRIPLE.make(a, b, s),
        (a, b),                                 # short: trailing fields are NULL
    ])


TRIPLE_INPUT = st.tuples(FIELD, FIELD, LABEL).flatmap(lambda abs_: _shapes(*abs_))
SINGLE_INPUT = st.integers(0, 5).flatmap(
    lambda a: st.sampled_from([a, (a,), {"a": a}, SINGLE.make(a)])  # bare scalar too
)
SORT_SPECS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "s"]), st.sampled_from([ASC, DESC])),
    min_size=1, max_size=3, unique_by=lambda pair: pair[0],
)


def _operations(inputs):
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), inputs, st.integers(0, 9)),
            st.tuples(st.just("assign"), st.lists(inputs, max_size=6)),
            st.tuples(st.just("merge"), st.lists(inputs, max_size=6)),
        ),
        max_size=25,
    )


def _apply(heap, operation):
    """Apply one operation; the exception class it raised, or None."""
    try:
        if operation[0] == "add":
            heap.combine_weighted(operation[1], operation[2])
        elif operation[0] == "assign":
            heap.assign(operation[1])
        else:
            other = type(heap)(heap.tuple_type, heap.capacity, heap.sort_spec)
            for item in operation[1]:
                other.combine(item)
            heap.merge(other)
    except (TypeError, AccumulatorError) as exc:
        return type(exc)
    return None


def _assert_same_heaps(tuple_type, capacity, sort_spec, operations):
    shipped = HeapAccum(tuple_type, capacity, sort_spec)
    reference = ReferenceHeapAccum(tuple_type, capacity, sort_spec)
    for operation in operations:
        raised = _apply(reference, operation)
        assert _apply(shipped, operation) is raised, operation
        if raised is not None:
            return  # a NULL sort field: both refused, at the same input
        assert shipped.value == reference.value, operation
        assert len(shipped) == len(reference)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 4),
    sort_spec=SORT_SPECS,
    operations=_operations(TRIPLE_INPUT),
)
def test_same_retained_tuples_as_the_per_copy_insert(capacity, sort_spec, operations):
    _assert_same_heaps(TRIPLE, capacity, sort_spec, operations)


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 3),
    order=st.sampled_from([ASC, DESC]),
    operations=_operations(SINGLE_INPUT),
)
def test_single_field_heaps_take_bare_scalars(capacity, order, operations):
    _assert_same_heaps(SINGLE, capacity, [("a", order)], operations)


def test_a_full_heap_drops_a_losing_positional_input_unbuilt(monkeypatch):
    """The IC9 shape: capacity reached, most inputs rank below the root.
    Only the input that gets in is ever made into a ``TupleValue``."""
    heap = HeapAccum(TRIPLE, 2, [("a", DESC), ("b", DESC)])
    heap.combine((5, 5, "x"))
    heap.combine((4, 4, "y"))
    built = []
    make = TupleType.make
    monkeypatch.setattr(
        TupleType, "make", lambda self, *a, **kw: built.append(a) or make(self, *a, **kw)
    )
    for losing in [(1, 1, "z"), (4, 4, "y"), (4, 3, "z")]:
        heap.combine_weighted(losing, 7)
    assert built == []
    heap.combine_weighted((6, 0, "w"), 1)
    assert built == [(6, 0, "w")]
    assert [t.values for t in heap.value] == [(6, 0, "w"), (5, 5, "x")]


def test_negative_multiplicity_still_rejected():
    heap = HeapAccum(SINGLE, 1, [("a", ASC)])
    with pytest.raises(AccumulatorError, match="negative multiplicity"):
        heap.combine_weighted(1, -1)


def test_equal_keys_keep_one_set_in_every_input_order():
    """The tie case: three slots, sorted by ``a DESC`` only, four inputs
    of which three share the key 1.  Every order keeps the same tuples,
    in the same ``value`` order."""
    inputs = [(2, 0, "z"), (1, 0, "a"), (1, 0, "b"), (1, 0, "c")]
    kept = set()
    for order in itertools.permutations(inputs):
        heap = HeapAccum(TRIPLE, 3, [("a", DESC)])
        for item in order:
            heap.combine(item)
        kept.add(tuple(t.values for t in heap.value))
    assert kept == {((2, 0, "z"), (1, 0, "a"), (1, 0, "b"))}


@pytest.mark.parametrize("alone", [True, False])
def test_a_null_sort_field_is_refused_for_every_input(alone):
    heap = HeapAccum(TRIPLE, 3, [("a", DESC), ("b", ASC)])
    if not alone:
        heap.combine((1, 1, "x"))
    for item in [(1, None, "y"), TRIPLE.make(None, 1, "y"), {"a": 2}]:
        with pytest.raises(AccumulatorError, match="sort field '[ab]' holds NULL"):
            heap.combine_weighted(item, 2)
    assert len(heap) == (0 if alone else 1)


def test_mixed_sort_field_types_raise_an_accumulator_error():
    heap = HeapAccum(TRIPLE, 1, [("s", DESC)])
    heap.combine((1, 1, "x"))
    with pytest.raises(AccumulatorError, match="sort field 's' holds int/str"):
        heap.combine((1, 1, 5))
    with pytest.raises(AccumulatorError, match="sort field 's' holds dict"):
        HeapAccum(TRIPLE, 2, [("s", DESC)]).combine((1, 1, {}))


# ----------------------------------------------------------------------
# The ACCUM Map kernel's early reject against the buffered Reduce
# ----------------------------------------------------------------------

class _BufferedOnly(InputBuffer):
    """A sink the Map kernel does not fold into early: every ``+=`` input
    is buffered and folded by the Reduce, as before the early reject."""


def _run_blocks(sink, capacity, sort_spec, blocks, sanitize=False):
    """``@@h += x`` over each block's ``(x, μ)`` rows, Map then Reduce, on
    one heap; the heap's values after each block, or the error's message
    (and whether the live heap was left as the block found it)."""
    ctx = QueryContext(Graph())
    ctx.declare(AccumDecl("h", GLOBAL, lambda: HeapAccum(TRIPLE, capacity, sort_spec)))
    bind = compile_accum_clause(
        [AccumUpdate(AccumTarget("h"), "+=", NameRef("x"))], {}, CompileStats(), Scope(["x"])
    )
    heap = ctx.global_accum("h")
    seen = []
    with collect() as col, accsan.sanitize() if sanitize else contextlib.nullcontext():
        for rows in blocks:
            before = heap.value
            buffer = sink()
            try:
                kernel = bind(ctx, buffer)
                env = EvalEnv(ctx)
                for value, multiplicity in rows:
                    env.row = (value,)
                    kernel(env, multiplicity)
                buffer.flush()
            except AccumulatorError as exc:
                seen.append((str(exc), heap.value == before))
                break
            seen.append([t.values for t in heap.value])
    return seen, col.counters.get("accum.combine_weighted")


#: Inputs of every arity around the tuple type's three, and non-tuples.
ROW_VALUE = st.tuples(FIELD, FIELD, LABEL).flatmap(lambda abs_: st.sampled_from([
    abs_, abs_[:2], abs_ + (0,), list(abs_), TRIPLE.make(*abs_),
]))


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 4),
    sort_spec=SORT_SPECS,
    blocks=st.lists(
        st.lists(st.tuples(ROW_VALUE, st.integers(1, 6)), max_size=12), min_size=1, max_size=2
    ),
)
def test_map_kernel_early_reject_matches_the_buffered_reduce(capacity, sort_spec, blocks):
    """Two blocks filling one heap, mixed ASC/DESC orders, multiplicities
    above the capacity, wrong-arity inputs: the Map kernel folding into a
    private copy keeps what the buffered Reduce keeps, raises what it
    raises, counts every input, and an error leaves the live heap as the
    block found it.  With AccSan bound the kernel takes the buffered path."""
    early, early_count = _run_blocks(InputBuffer, capacity, sort_spec, blocks)
    buffered, buffered_count = _run_blocks(_BufferedOnly, capacity, sort_spec, blocks)
    sanitized, _ = _run_blocks(InputBuffer, capacity, sort_spec, blocks, sanitize=True)
    assert [_outcome(s) for s in early] == [_outcome(s) for s in buffered]
    assert [_outcome(s) for s in sanitized] == [_outcome(s) for s in buffered]
    if early and isinstance(early[-1], tuple):
        assert early[-1][1], "an error in the Map phase touched the live heap"
    else:
        assert early_count == buffered_count == (sum(len(rows) for rows in blocks) or None)


def _outcome(step):
    return step[0] if isinstance(step, tuple) else step


def test_a_heap_the_clause_also_assigns_keeps_the_buffered_path():
    """The Reduce assigns before it folds: a clause with ``@@h = ...`` and
    ``@@h += x`` must not fold into a copy taken before the assignment."""
    from repro.core.exprs import Literal

    ctx = QueryContext(Graph())
    ctx.declare(AccumDecl("h", GLOBAL, lambda: HeapAccum(TRIPLE, 2, [("a", DESC)])))
    ctx.global_accum("h").assign([(9, 0, "x"), (8, 0, "y")])
    bind = compile_accum_clause(
        [
            AccumUpdate(AccumTarget("h"), "=", Literal(())),
            AccumUpdate(AccumTarget("h"), "+=", NameRef("x")),
        ],
        {}, CompileStats(), Scope(["x"]),
    )
    buffer = InputBuffer()
    kernel = bind(ctx, buffer)
    env = EvalEnv(ctx)
    for value in [(1, 0, "a"), (2, 0, "b"), (3, 0, "c")]:
        env.row = (value,)
        kernel(env, 1)
    buffer.flush()
    assert [t.values for t in ctx.global_accum("h").value] == [(3, 0, "c"), (2, 0, "b")]
