"""``HeapAccum.combine_weighted`` coerces an input once and drops a
positional input that cannot beat a full heap before building its
``TupleValue``.  The insert-one-copy-at-a-time ``combine`` it replaced is
kept here as the reference, and the two must retain the same tuples after
every operation of a generated sequence.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accum import ASC, DESC, HeapAccum, TupleType
from repro.accum.heap import _Reversed
from repro.accum.tuples import coerce_tuple
from repro.errors import AccumulatorError


class ReferenceHeapAccum(HeapAccum):
    """The old per-copy insert: every copy is coerced and keyed again."""

    def _reference_key(self, item):
        parts = []
        for field, order in self.sort_spec:
            val = item.get(field)
            parts.append(_Reversed(val) if order == ASC else val)
        return tuple(parts)

    def combine(self, item):
        tup = coerce_tuple(self.tuple_type, item)
        entry = (self._reference_key(tup), tup.values, tup)
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
#: NULL, which only ever compares equal to another NULL.
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


def _value(heap):
    """``heap.value`` — or TypeError when ranking the retained tuples
    meets a NULL beside a number (the heap order never compared them)."""
    try:
        return heap.value
    except TypeError:
        return TypeError


def _assert_same_heaps(tuple_type, capacity, sort_spec, operations):
    shipped = HeapAccum(tuple_type, capacity, sort_spec)
    reference = ReferenceHeapAccum(tuple_type, capacity, sort_spec)
    for operation in operations:
        raised = _apply(reference, operation)
        assert _apply(shipped, operation) is raised, operation
        if raised is not None:
            return  # a NULL met a number: both refused, at the same input
        assert _value(shipped) == _value(reference), operation
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
