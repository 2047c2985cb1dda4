"""The declarative op-algebra table: one row per accumulator update law.

The effect analysis (:mod:`repro.analysis.effects`), the runtime
sanitizer (:mod:`repro.accsan`) and the property-test suite
(``tests/test_accum_algebra.py``) all read the *same* table, so the
static certificates cannot drift from runtime behaviour: every algebraic
flag claimed here is checked empirically against the live accumulator
classes, and every certificate stamped from here is cross-examined by
AccSan's permuted-schedule replay.

Each row describes the ``+=`` update algebra of one accumulator type:

``commutative`` / ``associative``
    Whether ``⊕`` commutes / associates over inputs.  Together they are
    the licence for the snapshot Map/Reduce semantics of Section 4.3 to
    process binding rows in any order (and in parallel partitions).
``idempotent``
    ``a ⊕ i ⊕ i = a ⊕ i`` — folding a duplicate input is a no-op
    (Min/Max/Or/And/Bitwise/Set).
``monotone``
    The value moves monotonically in a semilattice order under inserts
    (join for Sum/Max/Or/Set, meet for Min/And).  Monotone updates with
    no accumulator reads are *delta-maintainable*: a new input can be
    folded into the old result without recomputation (ROADMAP item 4a).
``mergeable``
    Whether per-partition partials can be :meth:`~repro.accum.base.
    Accumulator.merge`-d — the reduce side of parallel ACCUM.

``make``/``sample`` give the property tests (and AccSan's self-checks) a
fresh instance and a random valid input for the type, so the checks are
generated from the table instead of hand-written per type.

``merge_cost`` / ``unit_bytes``
    The cost model's columns (:mod:`repro.analysis.cost`): whether one
    partial :meth:`merge` is constant-time (``"O(1)"``, scalars) or
    linear in the partial's size μ (``"O(u)"``, containers), and the
    estimated bytes one folded input adds to the accumulator state
    (scalars: the whole state; containers: one element).
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Dict, NamedTuple, Optional

from .collections_ import ArrayAccum, BagAccum, ListAccum, SetAccum
from .groupby import GroupByAccum
from .heap import HeapAccum
from .logical import AndAccum, BitwiseAndAccum, BitwiseOrAccum, OrAccum
from .mapaccum import MapAccum
from .numeric import AvgAccum, MaxAccum, MinAccum, SumAccum
from .tuples import TupleType


class OpAlgebra(NamedTuple):
    """Algebraic facts about one accumulator type's ``+=`` update."""

    kind: str
    commutative: bool
    associative: bool
    idempotent: bool
    monotone: bool
    mergeable: bool
    make: Callable[[], Any]
    sample: Callable[[random.Random], Any]
    caveat: str = ""
    #: merge cost of one partial: "O(1)" for scalars, "O(u)" when a
    #: merge walks the partial's μ elements (containers).
    merge_cost: str = "O(1)"
    #: estimated bytes one folded input adds to the accumulator state
    #: (scalars: the whole state, amortized to 0 growth after the first).
    unit_bytes: int = 0


_HEAP_TUPLE = TupleType("AlgebraProbe", [("score", "FLOAT"), ("name", "STRING")])


def _half_int(rng: random.Random) -> float:
    """A random multiple of 0.5 — exactly representable, so additive
    algebra checks compare equal regardless of association."""
    return rng.randint(-1000, 1000) * 0.5


#: Container kinds grow per folded input and merge in O(μ); everything
#: else keeps the scalar defaults (O(1) merge, no per-input growth).
_CONTAINER_COSTS: Dict[str, int] = {
    "SumAccum<STRING>": 4,
    "SetAccum": 56,
    "BagAccum": 56,
    "ListAccum": 40,
    "ArrayAccum": 32,
    "MapAccum": 88,
    "HeapAccum": 64,
    "GroupByAccum": 112,
}


def _with_costs(alg: "OpAlgebra") -> "OpAlgebra":
    per_input = _CONTAINER_COSTS.get(alg.kind)
    if per_input is None:
        return alg
    return alg._replace(merge_cost="O(u)", unit_bytes=per_input)


#: kind -> OpAlgebra.  ``SumAccum<STRING>`` is the documented Section 4.3
#: exception: concatenation associates but does not commute.
TABLE: Dict[str, OpAlgebra] = {
    alg.kind: _with_costs(alg)
    for alg in [
        OpAlgebra("SumAccum", True, True, False, True, True,
                  lambda: SumAccum(0.0), _half_int),
        OpAlgebra("SumAccum<STRING>", False, True, False, False, False,
                  lambda: SumAccum("", element_type=str),
                  lambda rng: f"s{rng.randrange(100)}",
                  caveat="string concatenation is order-dependent"),
        OpAlgebra("MinAccum", True, True, True, True, True,
                  MinAccum, lambda rng: rng.randint(-1000, 1000)),
        OpAlgebra("MaxAccum", True, True, True, True, True,
                  MaxAccum, lambda rng: rng.randint(-1000, 1000)),
        OpAlgebra("AvgAccum", True, True, False, False, True,
                  AvgAccum, _half_int),
        OpAlgebra("OrAccum", True, True, True, True, True,
                  OrAccum, lambda rng: rng.random() < 0.5),
        OpAlgebra("AndAccum", True, True, True, True, True,
                  AndAccum, lambda rng: rng.random() < 0.5),
        OpAlgebra("BitwiseOrAccum", True, True, True, True, True,
                  BitwiseOrAccum, lambda rng: rng.randrange(256)),
        OpAlgebra("BitwiseAndAccum", True, True, True, True, True,
                  BitwiseAndAccum, lambda rng: rng.randrange(256)),
        OpAlgebra("SetAccum", True, True, True, True, True,
                  SetAccum, lambda rng: rng.randrange(20)),
        OpAlgebra("BagAccum", True, True, False, False, True,
                  BagAccum, lambda rng: rng.randrange(10)),
        OpAlgebra("ListAccum", False, True, False, False, False,
                  ListAccum, lambda rng: rng.randrange(100),
                  caveat="append order is observable"),
        OpAlgebra("ArrayAccum", True, True, False, False, False,
                  lambda: ArrayAccum(3),
                  lambda rng: (rng.randrange(3), _half_int(rng)),
                  caveat="holds for order-invariant cells only"),
        OpAlgebra("MapAccum", True, True, False, False, True,
                  MapAccum,
                  lambda rng: (rng.randrange(5), _half_int(rng)),
                  caveat="holds for order-invariant nested values only"),
        OpAlgebra("HeapAccum", True, True, False, False, True,
                  lambda: HeapAccum(_HEAP_TUPLE, 3, [("score", "DESC")]),
                  lambda rng: _HEAP_TUPLE.make(float(rng.randint(0, 4)),
                                               f"n{rng.randrange(10)}")),
        OpAlgebra("GroupByAccum", True, True, False, False, True,
                  lambda: GroupByAccum(("k",), (lambda: SumAccum(0.0),)),
                  lambda rng: ((rng.randrange(4),), (_half_int(rng),)),
                  caveat="holds for order-invariant aggregate columns only"),
    ]
}
#: :data:`TABLE` under the name :mod:`repro.accum` exports it as.
OP_ALGEBRA_TABLE = TABLE


def algebra_for(kind: str, element: Optional[str] = None) -> Optional[OpAlgebra]:
    """The algebra row for an accumulator type name, or None if the type
    is unknown to the table (user-registered types carry no certificate).

    ``element`` selects the documented per-element variant: SumAccum over
    STRING concatenates, losing commutativity.
    """
    if kind == "SumAccum" and element is not None and element.upper() == "STRING":
        return TABLE["SumAccum<STRING>"]
    return TABLE.get(kind)


def classify(info: Any) -> Optional[OpAlgebra]:
    """The algebra row for a declared :class:`~repro.core.acctypes.
    AccumTypeInfo`, with flags degraded when the *declared* parameters
    make the instance order-dependent (ListAccum cells in an ArrayAccum,
    order-dependent MapAccum values, SumAccum<STRING>...).
    """
    kind = getattr(info, "kind", None)
    if kind is None:
        return None
    element = getattr(info, "element", None)
    alg = algebra_for(kind, element=element)
    if alg is None:
        return None
    if getattr(info, "order_dependent", False) and alg.commutative:
        alg = alg._replace(
            commutative=False, monotone=False, mergeable=False,
            caveat=f"declared as order-dependent: {info.describe()}",
        )
    return alg


# -- canonical value digests ------------------------------------------------

def _canon(value: Any) -> Any:
    """A hashable canonical form: floats quantized to 9 significant
    digits (so benign FP reassociation across permuted schedules digests
    identically), unordered containers sorted, graph vertices reduced to
    their ids."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return ("f", format(value, ".9g"))
    vid = getattr(value, "vid", None)
    if vid is not None and not isinstance(value, (list, tuple, set, frozenset, dict)):
        return ("v", vid)
    values = getattr(value, "values", None)
    if values is not None and type(value).__name__ == "TupleValue":
        return ("t", tuple(_canon(v) for v in values))
    if isinstance(value, (set, frozenset)):
        return ("s", tuple(sorted((repr(_canon(v)) for v in value))))
    if isinstance(value, dict):
        return ("d", tuple(sorted(
            (repr(_canon(k)), repr(_canon(v))) for k, v in value.items()
        )))
    if isinstance(value, (list, tuple)):
        return ("l", tuple(_canon(v) for v in value))
    return ("r", repr(value))


def digest_value(value: Any) -> str:
    """A short stable digest of a value under its canonical form.

    Used by AccSan to compare accumulator results across permuted input
    schedules, and by the property tests to compare accumulator values
    without caring about container identity.
    """
    return hashlib.blake2b(
        repr(_canon(value)).encode("utf-8"), digest_size=8
    ).hexdigest()


__all__ = ["OpAlgebra", "TABLE", "algebra_for", "classify", "digest_value"]
