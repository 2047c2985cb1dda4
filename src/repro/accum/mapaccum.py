"""MapAccum: a map whose values are themselves accumulators.

``MapAccum<K, V>`` stores a map from keys to values; when ``V`` is an
accumulator type, inputs ``(k, i)`` or ``(k -> i)`` fold ``i`` into the
nested accumulator at key ``k`` — this is how GSQL expresses per-key
aggregation without a GROUP BY.  Order invariance and multiplicity
sensitivity are inherited recursively from the nested accumulator type
(Section 4.3).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..errors import AccumulatorError
from .base import Accumulator
from .numeric import SumAccum


class Arrow(tuple):
    """The value of the GSQL arrow form ``(k1, k2 -> a1, a2)``: the pair
    ``(keys, values)`` of two tuples, typed so a consumer can tell it from
    a plain ``(key, value)`` tuple whose parts happen to be tuples."""

    __slots__ = ()


class MapAccum(Accumulator):
    """A map accumulator with nested-accumulator values.

    Parameters
    ----------
    value_factory:
        Zero-argument callable producing the nested accumulator for a new
        key.  Defaults to ``SumAccum(0.0)``, giving the common
        "sum per key" shape.
    """

    type_name = "MapAccum"

    def __init__(self, value_factory: Optional[Callable[[], Accumulator]] = None):
        if value_factory is None:
            value_factory = lambda: SumAccum(0.0)  # noqa: E731 - tiny default
        self._factory = value_factory
        self._entries: Dict[Any, Accumulator] = {}
        probe = value_factory()
        if not isinstance(probe, Accumulator):
            raise AccumulatorError(
                "MapAccum value_factory must produce Accumulator instances"
            )
        self.order_invariant = probe.order_invariant
        self.multiplicity_sensitive = probe.multiplicity_sensitive

    @property
    def value(self) -> Dict[Any, Any]:
        """The map with nested accumulators collapsed to their values."""
        return {key: acc.value for key, acc in self._entries.items()}

    def assign(self, value: Dict[Any, Any]) -> None:
        """Replace the whole map; each value is assigned into a fresh
        nested accumulator."""
        if not isinstance(value, dict):
            raise AccumulatorError("MapAccum assignment expects a dict")
        self._entries = {}
        for key, item in value.items():
            cell = self._factory()
            cell.assign(item)
            self._entries[key] = cell

    def _check_input(self, item: Any) -> Tuple[Any, Any]:
        if type(item) is Arrow:
            keys, values = item
            if len(keys) != 1 or len(values) != 1:
                raise AccumulatorError(
                    f"MapAccum input must be a one-key, one-value arrow "
                    f"(key -> value), got {len(keys)} key(s) and "
                    f"{len(values)} value(s)"
                )
            return keys[0], values[0]
        if not (isinstance(item, tuple) and len(item) == 2):
            raise AccumulatorError("MapAccum input must be a (key, value) pair")
        return item

    def _cell(self, key: Any) -> Accumulator:
        cell = self._entries.get(key)
        if cell is None:
            cell = self._factory()
            self._entries[key] = cell
        return cell

    def combine(self, item: Any) -> None:
        key, payload = self._check_input(item)
        self._cell(key).combine(payload)

    def combine_weighted(self, item: Any, multiplicity: int) -> None:
        if multiplicity < 0:
            raise AccumulatorError(f"negative multiplicity {multiplicity}")
        if multiplicity == 0:
            return  # no inputs: must not materialize an empty entry
        key, payload = self._check_input(item)
        self._cell(key).combine_weighted(payload, multiplicity)

    def merge(self, other: Accumulator) -> None:
        if not isinstance(other, MapAccum):
            raise AccumulatorError("cannot merge MapAccum with " + other.type_name)
        for key, cell in other._entries.items():
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = cell.copy()
            else:
                mine.merge(cell)

    def get(self, key: Any, default: Any = None) -> Any:
        cell = self._entries.get(key)
        return cell.value if cell is not None else default

    def accumulator_for(self, key: Any) -> Accumulator:
        """Direct access to the nested accumulator (creates it if absent)."""
        return self._cell(key)

    def keys(self) -> Iterator[Any]:
        return iter(self._entries)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return ((k, acc.value) for k, acc in self._entries.items())

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


__all__ = ["Arrow", "MapAccum"]
