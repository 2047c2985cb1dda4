"""``HeapAccum.combine_weighted`` coerces an input once and drops a
positional input that cannot beat a full heap before building its
``TupleValue``.  The insert-one-copy-at-a-time ``combine`` it replaced is
kept here as the reference, under the full order written out — the sort
fields, then the whole value tuple — and the two must retain the same
tuples after every operation of a generated sequence.
"""

import contextlib
import functools
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
    """One field of the tie-break: NULL first, then numbers, then strings,
    then the rest; equal values by type name, then by repr."""
    if value is None:
        return (0,)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, (bool, int, float)) and value == value:
        return (1, value, type(value).__name__, repr(value))
    return (3, type(value).__name__, repr(value))


_ARRIVALS = itertools.count()


class ReferenceHeapAccum(HeapAccum):
    """The old per-copy insert: every copy is coerced and keyed again.
    A NULL or NaN sort field is refused; equal sort keys rank the smaller
    value tuple first."""

    def _reference_key(self, item):
        parts = []
        for field, order in self.sort_spec:
            val = item.get(field)
            if val is None or val != val:
                raise AccumulatorError(f"sort field {field!r} is NULL or NaN")
            parts.append(_Reversed(val) if order == ASC else val)
        parts.append(_Reversed(tuple(map(_rank, item.values))))
        return tuple(parts)

    def combine(self, item):
        # Tuples whose keys tie in full rank alike (a NaN payload each, say)
        # and are interchangeable: their arrival orders them in the list.
        tup = coerce_tuple(self.tuple_type, item)
        entry = (self._reference_key(tup), next(_ARRIVALS), tup)
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


PAIR = TupleType("P", [("a", "FLOAT"), ("s", "STRING")])


def _exact(values):
    """Values as their types and reprs: ``1``, ``1.0`` and ``True`` differ,
    and so do ``0.0`` and ``-0.0``."""
    return tuple((type(v).__name__, repr(v)) for v in values)


def test_a_nan_sort_value_is_refused_in_every_input_order():
    """NaN orders with nothing: accepted, it made the retained set depend
    on the input order (and could lose the true top two).  Refused like
    NULL, every order raises at the NaN and keeps the same two tuples."""
    nan = float("nan")
    inputs = [(3.0, "a"), (nan, "n"), (1.0, "b"), (2.0, "c")]
    kept = set()
    for order in itertools.permutations(inputs):
        heap = HeapAccum(PAIR, 2, [("a", DESC)])
        for item in order:
            if item[1] == "n":
                before = heap.value
                with pytest.raises(AccumulatorError, match="sort field 'a' holds NaN"):
                    heap.combine(item)
                assert heap.value == before
            else:
                heap.combine(item)
        kept.add(tuple(t.values for t in heap.value))
    assert kept == {((3.0, "a"), (2.0, "c"))}


@pytest.mark.parametrize("inputs, best", [
    ([(1, "x"), (1.0, "x"), (True, "x")], (True, "x")),
    ([(0.0, "x"), (-0.0, "x")], (-0.0, "x")),
])
def test_equal_values_of_another_type_or_sign_keep_one_tuple_in_every_order(inputs, best):
    """Values that compare equal but differ in type or sign are different
    tuples: the tie-break ranks them by type name, then by repr, so a
    one-slot heap keeps the same one whichever came first."""
    kept = set()
    for order in itertools.permutations(inputs):
        heap = HeapAccum(PAIR, 1, [("a", DESC)])
        for item in order:
            heap.combine(item)
        kept.add(tuple(_exact(t.values) for t in heap.value))
    assert kept == {(_exact(best),)}


@pytest.mark.parametrize("capacity", [1, 2])
def test_separately_made_nan_payloads_with_equal_keys_rank_alike(capacity):
    """Two inputs with equal sort keys and a NaN payload each, made
    separately so that no identity shortcut makes them equal, rank alike:
    in either order the heap takes them without raising and keeps the
    same values, folded directly and through the Map kernel."""
    spec = [("a", DESC)]
    expected = [_exact((1, float("nan"), "x"))] * capacity
    inputs = [(1, float("nan"), "x"), (1, float("nan"), "x"), (0, 0, "y")]
    for order in (inputs, inputs[::-1]):
        heap = HeapAccum(TRIPLE, capacity, spec)
        for item in order:
            heap.combine(item)
        assert [_exact(t.values) for t in heap.value] == expected
        assert _fold(capacity, spec, [], order) == expected


# ----------------------------------------------------------------------
# The ACCUM Map kernel's early reject against the buffered Reduce
# ----------------------------------------------------------------------

class _BufferedOnly(InputBuffer):
    """A sink the Map kernel does not fold into early: every ``+=`` input
    is buffered and folded by the Reduce, as before the early reject."""


def _run_blocks(sink, capacity, sort_spec, blocks, statements=1, sanitize=False,
                heap_type=HeapAccum):
    """``@@h += x`` (and ``@@h += y`` with two statements) over each
    block's ``((x, y), μ)`` rows, Map then Reduce, on one heap; the heap's
    values after each block, or the error's message (and whether the live
    heap was left as the block found it)."""
    ctx = QueryContext(Graph())
    ctx.declare(AccumDecl("h", GLOBAL, lambda: heap_type(TRIPLE, capacity, sort_spec)))
    bind = compile_accum_clause(
        [AccumUpdate(AccumTarget("h"), "+=", NameRef(n)) for n in "xy"[:statements]],
        {}, CompileStats(), Scope(["x", "y"]),
    )
    heap = ctx.global_accum("h")
    # The reference heap's insert raises a raw TypeError on values that do
    # not order; the shipped paths must raise an AccumulatorError or nothing.
    caught = (AccumulatorError, TypeError) if heap_type is ReferenceHeapAccum else AccumulatorError
    seen = []
    with collect() as col, accsan.sanitize() if sanitize else contextlib.nullcontext():
        for rows in blocks:
            before = heap.value
            buffer = sink()
            try:
                kernel = bind(ctx, buffer)
                env = EvalEnv(ctx)
                for values, multiplicity in rows:
                    env.row = values
                    kernel(env, multiplicity)
                buffer.flush()
            except caught as exc:
                try:
                    untouched = heap.value == before
                except TypeError:  # a Reduce stopped mid-push: entries that do not order
                    untouched = False
                seen.append((str(exc), untouched))
                break
            seen.append([_exact(t.values) for t in heap.value])
    return seen, col.counters.get("accum.combine_weighted")


#: Sort values for the kernel: mostly small ints, so that first fields
#: tie and the later fields or the whole tuple decide, and now and then
#: one that equals an int in another type or sign, a bool, a NULL or NaN
#: (refused) or a string (no order against a number).  Each NaN is made
#: anew, so that no identity shortcut makes two NaN payloads equal.
KERNEL_FIELD = st.one_of(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
    st.sampled_from([True, False, 1.0, 0.0, -0.0, None, "x"]),
    st.builds(float, st.just("nan")),
)
#: Inputs of every arity around the tuple type's three, and non-tuples.
ROW_VALUE = st.tuples(KERNEL_FIELD, KERNEL_FIELD, LABEL).flatmap(lambda abs_: st.sampled_from([
    abs_, abs_, abs_[:2], abs_ + (0,), list(abs_), TRIPLE.make(*abs_),
]))


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(1, 4),
    sort_spec=SORT_SPECS,
    statements=st.integers(1, 2),
    blocks=st.lists(
        st.lists(st.tuples(st.tuples(ROW_VALUE, ROW_VALUE), st.integers(0, 6)), max_size=12),
        min_size=1, max_size=2,
    ),
)
def test_map_kernel_early_reject_matches_the_buffered_reduce(
    capacity, sort_spec, statements, blocks
):
    """Two blocks filling one heap, one or two statements feeding it,
    mixed ASC/DESC orders, capacity 1, μ = 0 and μ above the capacity,
    wrong-arity inputs, first-field ties, bools, NULL and NaN anywhere and
    strings against numbers: the Map kernel folding into a private copy
    keeps what the buffered Reduce keeps, raises what it raises, counts
    every input, and an error leaves the live heap as the block found it.
    With AccSan bound the kernel takes the buffered path.  The per-copy
    reference heap, which shares no decision with the shipped one, keeps
    the same tuples and raises on the same block."""
    run = functools.partial(_run_blocks, capacity=capacity, sort_spec=sort_spec,
                            blocks=blocks, statements=statements)
    early, early_count = run(InputBuffer)
    buffered, buffered_count = run(_BufferedOnly)
    sanitized, _ = run(InputBuffer, sanitize=True)
    reference, _ = run(_BufferedOnly, heap_type=ReferenceHeapAccum)
    assert [_outcome(s) for s in early] == [_outcome(s) for s in buffered]
    assert [_outcome(s) for s in sanitized] == [_outcome(s) for s in buffered]
    assert [_kept(s) for s in early] == [_kept(s) for s in reference]
    if early and isinstance(early[-1], tuple):
        assert early[-1][1], "an error in the Map phase touched the live heap"
    else:
        inputs = statements * sum(len(rows) for rows in blocks)
        assert early_count == buffered_count == (inputs or None)


def _outcome(step):
    return step[0] if isinstance(step, tuple) else step


def _kept(step):
    return "raised" if isinstance(step, tuple) else step


def _fold(capacity, sort_spec, held, inputs):
    """``inputs`` through the Map kernel's early reject (μ = 1 each) into a
    heap already holding ``held``; the heap's values after the Reduce."""
    ctx = QueryContext(Graph())
    ctx.declare(AccumDecl("h", GLOBAL, lambda: HeapAccum(TRIPLE, capacity, sort_spec)))
    ctx.global_accum("h").assign(held)
    bind = compile_accum_clause(
        [AccumUpdate(AccumTarget("h"), "+=", NameRef("x"))], {}, CompileStats(), Scope(["x"])
    )
    buffer = InputBuffer()
    kernel = bind(ctx, buffer)
    env = EvalEnv(ctx)
    for value in inputs:
        env.row = (value,)
        kernel(env, 1)
    buffer.flush()
    return [_exact(t.values) for t in ctx.global_accum("h").value]


@pytest.mark.parametrize("sort_spec, held, item, enters", [
    # The worst retained tuple ties the input's first field: the later
    # fields decide ...
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (4, 3, "z"), True),
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (4, 6, "a"), False),
    ([("a", ASC), ("b", DESC)], [(1, 0, "x"), (4, 5, "y")], (4, 6, "z"), True),
    ([("a", ASC), ("b", DESC)], [(1, 0, "x"), (4, 5, "y")], (4, 4, "a"), False),
    # ... and on a whole-key tie the smaller tuple ranks first.
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (4, 5, "a"), True),
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (4, 5, "z"), False),
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (4, 5, "y"), False),
    ([("a", DESC)], [(5, 0, "x"), (1, 0, "y")], (True, 0, "y"), True),
    ([("a", DESC)], [(5, 0, "x"), (1.0, 0, "y")], (1, 0, "y"), False),
    # A first field that differs decides alone.
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (3, 0, "a"), False),
    ([("a", DESC), ("b", ASC)], [(5, 0, "x"), (4, 5, "y")], (6, 9, "z"), True),
    ([("a", ASC)], [(1, 0, "x"), (4, 5, "y")], (5, 0, "a"), False),
    ([("a", ASC)], [(1, 0, "x"), (4, 5, "y")], (False, 9, "z"), True),
])
def test_a_full_heap_decides_first_field_ties_on_the_rest(sort_spec, held, item, enters):
    """The Map kernel drops an input on its first sort field only when it
    is strictly worse there; a tie goes on to the later fields and the
    tie-break, exactly as the per-copy reference ranks it."""
    reference = ReferenceHeapAccum(TRIPLE, 2, sort_spec)
    for value in held:
        reference.combine(value)
    before = [_exact(t.values) for t in reference.value]
    reference.combine(item)
    expected = [_exact(t.values) for t in reference.value]
    assert (expected != before) is enters
    assert _fold(2, sort_spec, held, [item]) == expected


@pytest.mark.parametrize("sort_spec, item, message", [
    ([("a", DESC), ("b", DESC)], (1, None, "z"), "sort field 'b' holds NULL"),
    ([("a", DESC), ("b", DESC)], (1, float("nan"), "z"), "sort field 'b' holds NaN"),
    ([("a", ASC), ("b", DESC)], (9, None, "z"), "sort field 'b' holds NULL"),
    ([("a", DESC), ("s", ASC), ("b", DESC)], (1, float("nan"), "z"), "sort field 'b' holds NaN"),
    ([("a", DESC), ("b", DESC)], ("x", 0, "z"), "sort field 'a' holds int/str"),
])
def test_a_value_that_cannot_rank_raises_though_the_first_field_would_drop_it(
    sort_spec, item, message
):
    """A NULL or NaN in a later sort field raises even when the first field
    alone is worse than the worst retained tuple's, and a string against
    the worst one's number raises too — the errors the buffered Reduce
    raises, leaving the live heap as it was."""
    held = [(5, 5, "x"), (4, 4, "y")]
    with pytest.raises(AccumulatorError, match=message):
        _fold(2, sort_spec, held, [item])
    reference = HeapAccum(TRIPLE, 2, sort_spec)
    reference.assign(held)
    with pytest.raises(AccumulatorError, match=message):
        reference.combine_weighted(item, 1)


def test_a_string_in_a_later_field_is_not_compared_when_the_first_decides():
    """The key comparison never reaches a later field when the first
    differs, so a string there against a number does not raise."""
    held = [(5, 5, "x"), (4, 4, "y")]
    spec = [("a", DESC), ("b", DESC)]
    assert _fold(2, spec, held, [(1, "x", "z"), (6, "x", "z")]) == [
        _exact((6, "x", "z")), _exact((5, 5, "x")),
    ]


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
