"""Named tuple values for HeapAccum and GroupByAccum.

GSQL declares tuple types with ``TYPEDEF TUPLE <INT a, STRING b> T`` and
uses them as heap elements and grouping keys.  :class:`TupleType`
represents such a declaration; :class:`TupleValue` is an immutable,
field-addressable instance.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Tuple

from ..errors import AccumulatorError


class TupleType:
    """A named tuple type: an ordered list of field names.

    Field *types* are kept as informational strings (the engine is
    dynamically typed like the rest of the library); field *names* drive
    positional/keyword construction and sort-key lookup.
    """

    def __init__(self, name: str, fields: Sequence[Tuple[str, str]]):
        if not fields:
            raise AccumulatorError(f"tuple type {name!r} needs at least one field")
        names = [f[0] for f in fields]
        if len(set(names)) != len(names):
            raise AccumulatorError(f"tuple type {name!r} has duplicate fields")
        self.name = name
        self.fields = tuple((fname, ftype.upper()) for fname, ftype in fields)
        self.field_names = tuple(names)
        self._index = {fname: i for i, fname in enumerate(names)}

    def make(self, *args: Any, **kwargs: Any) -> "TupleValue":
        """Construct a value positionally and/or by keyword."""
        if not kwargs and len(args) == len(self.field_names):
            return TupleValue(self, args)
        values = list(args)
        if len(values) > len(self.field_names):
            raise AccumulatorError(
                f"tuple type {self.name!r} takes {len(self.field_names)} "
                f"fields, got {len(values)}"
            )
        values.extend([None] * (len(self.field_names) - len(values)))
        for key, val in kwargs.items():
            idx = self._index.get(key)
            if idx is None:
                raise AccumulatorError(
                    f"tuple type {self.name!r} has no field {key!r}"
                )
            values[idx] = val
        return TupleValue(self, tuple(values))

    def index_of(self, field: str) -> int:
        idx = self._index.get(field)
        if idx is None:
            raise AccumulatorError(f"tuple type {self.name!r} has no field {field!r}")
        return idx

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{t} {n}" for n, t in self.fields)
        return f"TupleType {self.name}<{body}>"


class TupleValue:
    """An immutable instance of a :class:`TupleType`."""

    __slots__ = ("type", "values")

    def __init__(self, ttype: TupleType, values: Tuple[Any, ...]):
        self.type = ttype
        self.values = values

    def __getattr__(self, field: str) -> Any:
        try:
            return self.values[self.type.index_of(field)]
        except AccumulatorError:
            raise AttributeError(field) from None

    def get(self, field: str) -> Any:
        return self.values[self.type.index_of(field)]

    def as_dict(self) -> Dict[str, Any]:
        return dict(zip(self.type.field_names, self.values))

    def __eq__(self, other: object) -> bool:
        # Structural equality: same type name, same fields, same values.
        # (Two independently parsed queries declaring the same TYPEDEF
        # produce distinct TupleType objects whose values must compare.)
        return (
            isinstance(other, TupleValue)
            and self.type.name == other.type.name
            and self.type.field_names == other.type.field_names
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.type.name, self.values))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"{n}={v!r}" for n, v in self.as_dict().items())
        return f"{self.type.name}({body})"


def coerce_tuple(ttype: TupleType, item: Any) -> TupleValue:
    """Accept a TupleValue, mapping, or plain sequence as a tuple input."""
    if isinstance(item, TupleValue):
        if item.type is not ttype and item.type.field_names != ttype.field_names:
            raise AccumulatorError(
                f"expected tuple of type {ttype.name!r}, got {item.type.name!r}"
            )
        return item
    if isinstance(item, dict):
        return ttype.make(**item)
    if isinstance(item, (tuple, list)):
        return ttype.make(*item)
    if len(ttype.field_names) == 1:
        # A single-field tuple accepts a bare scalar input.
        return ttype.make(item)
    raise AccumulatorError(
        f"cannot coerce {item!r} into tuple type {ttype.name!r}"
    )


__all__ = ["TupleType", "TupleValue", "coerce_tuple"]
