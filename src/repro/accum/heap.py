"""HeapAccum: a bounded priority queue over tuple values.

``HeapAccum<T>(capacity, field_1 [ASC|DESC], ..., field_n [ASC|DESC])``
keeps the ``capacity`` best tuples under the lexicographic order given by
the sort fields.  "Best" means *first* under the requested order: with
``score DESC`` the heap retains the highest-scoring tuples.

Order-invariant: ties between sort keys are broken by the full tuple
(:class:`_Tie`), values that compare equal but differ in type or sign
included, and a NULL, NaN or unordered sort value is refused, so the
retained set depends only on the multiset of inputs.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..errors import AccumulatorError
from .base import Accumulator
from .tuples import TupleType, TupleValue, coerce_tuple

ASC = "ASC"
DESC = "DESC"

#: The types a sort value may have: they order among themselves (a NaN,
#: which orders with nothing, is refused besides).
_ORDERED = frozenset((bool, int, float, str))
#: A value's rank in the tie-break: NULL, numbers, strings, the rest (3).
_RANK = {type(None): 0, bool: 1, int: 1, float: 1, str: 2}


class _Reversed:
    """Inverts comparison, for ASC sort keys inside a min-heap."""

    __slots__ = ("item",)

    def __init__(self, item: Any):
        self.item = item

    def __lt__(self, other: "_Reversed") -> bool:
        return other.item < self.item

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.item == other.item


class _Tie(tuple):
    """A tuple's full values, ranked after its sort key: the smaller tuple
    first (so, like a heap key, it compares inverted), values by ``_RANK``
    and value, then type name and repr — so that any two order, and values
    that compare equal but differ in type or sign do too (``1``, ``1.0``
    and ``True``; ``0.0`` and ``-0.0``).

    Its ``==`` is identity, so a comparison of two heap entries with equal
    keys is decided here by ``<`` and never reaches their TupleValues,
    which do not order (two entries that rank alike, a NaN payload
    included, are interchangeable and neither is less)."""

    __slots__ = ()
    __hash__ = object.__hash__

    def __lt__(self, other: "_Tie") -> bool:
        return _canonical(other) < _canonical(self)

    def __eq__(self, other: object) -> bool:
        return self is other


def _canonical(values: Sequence[Any]) -> List[Tuple[Any, ...]]:
    return [
        (_RANK[type(v)], v, type(v).__name__, repr(v)) if type(v) in _RANK and v == v
        else (3, type(v).__name__, repr(v))
        for v in values
    ]


class HeapAccum(Accumulator):
    """A top-k accumulator over :class:`~repro.accum.tuples.TupleValue`s.

    Parameters
    ----------
    tuple_type:
        The element tuple type.
    capacity:
        Maximum number of retained tuples (> 0).
    sort_spec:
        Sequence of ``(field_name, "ASC"|"DESC")`` pairs defining the
        lexicographic ranking; earlier pairs dominate.
    """

    type_name = "HeapAccum"

    def __init__(
        self,
        tuple_type: TupleType,
        capacity: int,
        sort_spec: Sequence[Tuple[str, str]],
    ):
        if capacity <= 0:
            raise AccumulatorError("HeapAccum capacity must be positive")
        if not sort_spec:
            raise AccumulatorError("HeapAccum needs at least one sort field")
        self.tuple_type = tuple_type
        self.capacity = capacity
        self.sort_spec: List[Tuple[str, str]] = []
        for field, order in sort_spec:
            order = order.upper()
            if order not in (ASC, DESC):
                raise AccumulatorError(
                    f"HeapAccum sort order must be ASC or DESC, got {order!r}"
                )
            tuple_type.index_of(field)  # validates the field exists
            self.sort_spec.append((field, order))
        # The sort fields by position: (index into a value tuple, ascending).
        self._key_spec = [
            (tuple_type.index_of(field), order == ASC)
            for field, order in self.sort_spec
        ]
        self._fields = tuple(i for i, _ in self._key_spec)
        self._arity = len(tuple_type.field_names)
        # Min-heap of (inverted sort key, _Tie(values), tuple): the root is
        # the *worst* retained tuple, which a full heap evicts for a better.
        self._heap: List[Tuple[Tuple[Any, ...], _Tie, TupleValue]] = []

    # -- ranking helpers -------------------------------------------------
    def _heap_key(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """The inverted sort key of a positional value tuple, refusing a
        NULL, NaN or unordered sort value."""
        key = []
        for i, asc in self._key_spec:
            value = values[i]
            if type(value) not in _ORDERED or value != value:
                raise self._sort_error(values)
            key.append(_Reversed(value) if asc else value)
        return tuple(key)

    def _sort_error(self, values: Sequence[Any]) -> AccumulatorError:
        """Names the sort field whose value is NULL or NaN or does not order."""
        for field, _ in self.sort_spec:
            value = values[self.tuple_type.index_of(field)]
            kinds = {type(value)} | {type(e[2].get(field)) for e in self._heap}
            if value is None or value != value:
                return AccumulatorError(
                    f"HeapAccum sort field {field!r} holds {'NULL' if value is None else 'NaN'}"
                )
            if not kinds <= _ORDERED or str in kinds and len(kinds) > 1:
                held = "/".join(sorted(k.__name__ for k in kinds))
                return AccumulatorError(f"HeapAccum sort field {field!r} holds {held}")
        return AccumulatorError("HeapAccum sort values do not order")

    def rejects(self, item: Any) -> bool:
        """Whether this heap, full, drops ``item``, a positional value
        tuple, before the TupleValue it would discard is built — the one
        decision procedure, which the ACCUM Map kernel binds once per block
        and :meth:`combine_weighted` asks before it inserts.

        The key comparison is lexicographic, so it is decided at the first
        sort field that differs: an input of the declared arity whose sort
        values are all ordered and whose first one is strictly worse than
        the worst retained tuple's (read raw from its values) is dropped
        on that one comparison.  Anything else — a heap that is not full,
        another shape, a NULL, NaN or unordered sort value, a string
        against a number — is not dropped here, and the insert decides or
        raises; a tie on the first field is decided on the full key and
        the :class:`_Tie`."""
        heap = self._heap
        if len(heap) < self.capacity or type(item) is not tuple or len(item) != self._arity:
            return False
        for i in self._fields:
            value = item[i]
            if type(value) not in _ORDERED or value != value:
                return False
        first, asc = self._key_spec[0]
        value, worst = item[first], heap[0][1][first]
        try:
            if (worst < value) if asc else (value < worst):
                return True
            if value != worst:
                return False
        except TypeError:
            return False
        key = self._heap_key(item)
        root = heap[0]
        try:
            return not (root[0] < key or root[0] == key and root[1] < _Tie(item))
        except TypeError:
            raise self._sort_error(item) from None

    # -- Accumulator interface -------------------------------------------
    @property
    def value(self) -> Tuple[TupleValue, ...]:
        """The retained tuples, best first."""
        return tuple([entry[2] for entry in sorted(self._heap, reverse=True)])

    def assign(self, value: Iterable[Any]) -> None:
        self._heap = []
        for item in value:
            self.combine(item)

    def combine(self, item: Any) -> None:
        self.combine_weighted(item, 1)

    def combine_weighted(self, item: Any, multiplicity: int) -> None:
        if multiplicity < 0:
            raise AccumulatorError(f"negative multiplicity {multiplicity}")
        if multiplicity and not self.rejects(item):
            self.insert(item, multiplicity)

    def insert(self, item: Any, multiplicity: int) -> None:
        """Fold ``multiplicity`` (> 0) copies of ``item``, which
        :meth:`rejects` did not drop (what :meth:`combine_weighted` does
        after asking it)."""
        tup = coerce_tuple(self.tuple_type, item)
        entry = (self._heap_key(tup.values), _Tie(tup.values), tup)
        heap = self._heap
        capacity = self.capacity
        try:
            # Inserting more copies than the capacity can never change the
            # outcome, so cap the work — weighted inputs stay O(capacity).
            for _ in range(min(multiplicity, capacity)):
                if len(heap) < capacity:
                    heapq.heappush(heap, entry)
                elif heap[0] < entry:
                    # Replace the worst retained tuple: the newcomer beats it.
                    heapq.heapreplace(heap, entry)
                else:
                    break  # nor will any further copy
        except TypeError:
            raise self._sort_error(tup.values) from None

    def copy(self) -> "HeapAccum":
        """An independent snapshot (the entries themselves are immutable).

        Made by the constructor, not ``copy.copy``: CPython reads the
        attributes of an instance whose attribute dict has been
        materialised, as ``copy.copy`` does to both objects, without its
        fast path, and that makes :meth:`rejects` — which the ACCUM Map
        kernel calls on every input of its block-private copy — about
        40 % slower (CPython 3.11)."""
        clone = type(self)(self.tuple_type, self.capacity, self.sort_spec)
        clone._heap = list(self._heap)
        return clone

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, HeapAccum):
            raise AccumulatorError("cannot merge HeapAccum with " + other.type_name)
        for entry in other._heap:
            self.combine(entry[2])

    def top(self) -> Optional[TupleValue]:
        """The best retained tuple, or None when empty."""
        items = self.value
        return items[0] if items else None

    def __len__(self) -> int:
        return len(self._heap)


__all__ = ["HeapAccum", "ASC", "DESC"]
