"""HeapAccum: a bounded priority queue over tuple values.

``HeapAccum<T>(capacity, field_1 [ASC|DESC], ..., field_n [ASC|DESC])``
keeps the ``capacity`` best tuples under the lexicographic order given by
the sort fields.  "Best" means *first* under the requested order: with
``score DESC`` the heap retains the highest-scoring tuples.

Order-invariant: the retained set depends only on the multiset of inputs
(ties are broken by the full tuple contents to stay deterministic).
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..errors import AccumulatorError
from .base import Accumulator
from .tuples import TupleType, TupleValue, coerce_tuple

ASC = "ASC"
DESC = "DESC"


class _Reversed:
    """Inverts comparison, for DESC sort keys inside a min-heap."""

    __slots__ = ("item",)

    def __init__(self, item: Any):
        self.item = item

    def __lt__(self, other: "_Reversed") -> bool:
        return other.item < self.item

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.item == other.item


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
        # Min-heap of (inverted sort key, insertion-stable full key).  The
        # heap root is the *worst* retained tuple, so a full heap evicts it
        # when a better tuple arrives.
        self._heap: List[Tuple[Any, Any, TupleValue]] = []

    # -- ranking helpers -------------------------------------------------
    def _rank_key(self, item: TupleValue) -> Tuple[Any, ...]:
        """Key under which *smaller sorts first* in the requested order."""
        parts: List[Any] = []
        for field, order in self.sort_spec:
            val = item.get(field)
            parts.append(val if order == ASC else _Reversed(val))
        return tuple(parts)

    def _heap_key(self, values: Sequence[Any]) -> Tuple[Any, ...]:
        """Inverted key of a positional value tuple: the heap root is the
        worst retained element."""
        return tuple(
            [_Reversed(values[i]) if asc else values[i] for i, asc in self._key_spec]
        )

    # -- Accumulator interface -------------------------------------------
    @property
    def value(self) -> Tuple[TupleValue, ...]:
        """The retained tuples, best first."""
        items = [entry[2] for entry in self._heap]
        items.sort(key=self._rank_key)
        return tuple(items)

    def assign(self, value: Iterable[Any]) -> None:
        self._heap = []
        for item in value:
            self.combine(item)

    def combine(self, item: Any) -> None:
        self.combine_weighted(item, 1)

    def combine_weighted(self, item: Any, multiplicity: int) -> None:
        if multiplicity < 0:
            raise AccumulatorError(f"negative multiplicity {multiplicity}")
        if not multiplicity:
            return
        heap = self._heap
        capacity = self.capacity
        if (
            len(heap) >= capacity
            and type(item) is tuple
            and len(item) == len(self.tuple_type.field_names)
            and not heap[0][0] < self._heap_key(item)
        ):
            # A positional input that does not beat the worst tuple of a
            # full heap is dropped on its sort fields alone, before the
            # TupleValue it would discard is built.
            return
        tup = coerce_tuple(self.tuple_type, item)
        entry = (self._heap_key(tup.values), tup.values, tup)
        # Inserting more copies than the capacity can never change the
        # outcome, so cap the work — this keeps weighted inputs O(capacity).
        for _ in range(min(multiplicity, capacity)):
            if len(heap) < capacity:
                heapq.heappush(heap, entry)
            elif heap[0][0] < entry[0]:
                # Replace the worst retained tuple: the newcomer beats it.
                heapq.heapreplace(heap, entry)
            else:
                break  # nor will any further copy

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
