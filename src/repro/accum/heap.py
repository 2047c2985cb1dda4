"""HeapAccum: a bounded priority queue over tuple values.

``HeapAccum<T>(capacity, field_1 [ASC|DESC], ..., field_n [ASC|DESC])``
keeps the ``capacity`` best tuples under the lexicographic order given by
the sort fields.  "Best" means *first* under the requested order: with
``score DESC`` the heap retains the highest-scoring tuples.

Order-invariant: ties between sort keys are broken by the full tuple
(:class:`_Tie`), and a NULL or unordered sort value is refused, so the
retained set depends only on the multiset of inputs.
"""

from __future__ import annotations

import copy
import heapq
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..errors import AccumulatorError
from .base import Accumulator
from .tuples import TupleType, TupleValue, coerce_tuple

ASC = "ASC"
DESC = "DESC"

#: The types a sort value may have: they order among themselves.
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
    and then value — or type name and repr — so that any two order."""

    __slots__ = ()

    def __lt__(self, other: "_Tie") -> bool:
        return _canonical(other) < _canonical(self)


def _canonical(values: Sequence[Any]) -> List[Tuple[Any, ...]]:
    return [
        (_RANK[type(v)], v) if type(v) in _RANK else (3, type(v).__name__, repr(v))
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
        self._arity = len(tuple_type.field_names)
        # Min-heap of (inverted sort key, _Tie(values), tuple): the root is
        # the *worst* retained tuple, which a full heap evicts for a better.
        self._heap: List[Tuple[Tuple[Any, ...], _Tie, TupleValue]] = []

    # -- ranking helpers -------------------------------------------------
    def _heap_key(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """The inverted sort key of a positional value tuple, refusing a
        NULL or unordered sort value."""
        key = []
        for i, asc in self._key_spec:
            if type(values[i]) not in _ORDERED:
                raise self._sort_error(values)
            key.append(_Reversed(values[i]) if asc else values[i])
        return tuple(key)

    def _sort_error(self, values: Sequence[Any]) -> AccumulatorError:
        """Names the sort field whose value is NULL or does not order."""
        for field, _ in self.sort_spec:
            value = values[self.tuple_type.index_of(field)]
            kinds = {type(value)} | {type(e[2].get(field)) for e in self._heap}
            if value is None or not kinds <= _ORDERED or str in kinds and len(kinds) > 1:
                held = "NULL" if value is None else "/".join(sorted(k.__name__ for k in kinds))
                return AccumulatorError(f"HeapAccum sort field {field!r} holds {held}")
        return AccumulatorError("HeapAccum sort values do not order")

    def rejects(self, item: Any) -> bool:
        """Whether a full heap drops ``item``, a positional value tuple, on
        its sort key alone, before the TupleValue it would discard is built
        (the ACCUM Map kernel asks before it calls :meth:`combine_weighted`)."""
        heap = self._heap
        if len(heap) < self.capacity or type(item) is not tuple or len(item) != self._arity:
            return False
        key = self._heap_key(item)
        try:
            root = heap[0]
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
        if not multiplicity or self.rejects(item):
            return
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
        """An independent snapshot (the entries themselves are immutable)."""
        clone = copy.copy(self)
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
