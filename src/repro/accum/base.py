"""Accumulator protocol (Section 3 of the paper).

An accumulator is a data container with an internal value ``V`` that
aggregates inputs ``I`` through a binary combiner ``⊕ : V × I → V``.  Two
assignment operators are exposed: ``a = i`` (:meth:`Accumulator.assign`)
replaces the internal value, ``a += i`` (:meth:`Accumulator.combine`)
folds an input in.

Two properties drive the engine's semantics:

``order_invariant``
    Whether the final value is independent of input order (true when ``⊕``
    is commutative/associative).  Order-invariant accumulators make the
    snapshot Map/Reduce execution deterministic; List/Array/SumAccum<string>
    are the documented exceptions (Section 4.3).

``multiplicity_sensitive``
    Whether inputting a value ``μ`` times differs from inputting it once.
    Min/Max/Set/Or/And are insensitive; Sum/Avg/Bag/List are sensitive.
    The tractable evaluation of Theorem 7.1 exploits this through
    :meth:`Accumulator.combine_weighted`, which applies a ``μ``-fold input
    in O(1) (e.g. SumAccum adds ``μ·i``) instead of materializing the
    ``μ`` duplicate pattern matches.
"""

from __future__ import annotations

import copy as _copy
from abc import ABC, abstractmethod
from typing import Any

from .. import _exec
from ..errors import AccumulatorError


class Accumulator(ABC):
    """Base class for all accumulator types."""

    #: GSQL-facing type name (e.g. "SumAccum"), set by subclasses.
    type_name: str = "Accum"
    #: See module docstring.
    order_invariant: bool = True
    #: See module docstring.
    multiplicity_sensitive: bool = True

    @property
    @abstractmethod
    def value(self) -> Any:
        """The current internal value, as read by queries."""

    @abstractmethod
    def assign(self, value: Any) -> None:
        """The ``=`` operator: replace the internal value."""

    @abstractmethod
    def combine(self, item: Any) -> None:
        """The ``+=`` operator: fold one input into the internal value."""

    def combine_weighted(self, item: Any, multiplicity: int) -> None:
        """Fold ``multiplicity`` identical inputs in.

        The default implementation handles the two generic cases: a single
        combine for multiplicity-insensitive accumulators, and repeated
        combines otherwise.  Subclasses with a closed form (Sum, Avg, Bag)
        override this with an O(1) version — that override is what makes
        the Theorem 7.1 evaluation polynomial.
        """
        if multiplicity < 0:
            raise AccumulatorError(f"negative multiplicity {multiplicity}")
        if multiplicity == 0:
            return
        if not self.multiplicity_sensitive:
            self.combine(item)
            return
        col = _exec.current().col
        if col is not None:
            # O(μ) fallback work: types with a closed form (Sum, Avg,
            # Bag) override this method and never hit the counter —
            # exactly the O(1)-vs-O(μ) split docs/accumulators.md tables.
            col.count("accum.weighted_fallback_combines", multiplicity)
        for _ in range(multiplicity):
            self.combine(item)

    def merge(self, other: "Accumulator") -> None:
        """Fold another accumulator of the same type into this one.

        Used by parallel/partitioned reduction: each worker reduces its
        partition locally and the partials are merged.  The default raises;
        order-invariant types override it.
        """
        raise AccumulatorError(
            f"{self.type_name} does not support parallel merging"
        )

    def copy(self) -> "Accumulator":
        """An independent snapshot (used for primed reads like ``v.@score'``)."""
        return _copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.type_name}({self.value!r})"


def check_numeric(type_name: str, value: Any) -> None:
    """Reject non-numeric inputs to numeric accumulators early, with the
    accumulator's name in the message."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise AccumulatorError(
            f"{type_name} expects a numeric input, got {type(value).__name__} "
            f"({value!r})"
        )


__all__ = ["Accumulator", "check_numeric"]
