"""The accumulator library (Section 3 of the paper).

All built-in accumulator types, the tuple machinery used by Heap/GroupBy
accumulators, and the extensibility registry.
"""

from .._lazy import exports as _exports

__all__ = [
    "Accumulator",
    "SumAccum",
    "MinAccum",
    "MaxAccum",
    "AvgAccum",
    "OrAccum",
    "AndAccum",
    "BitwiseOrAccum",
    "BitwiseAndAccum",
    "SetAccum",
    "BagAccum",
    "ListAccum",
    "ArrayAccum",
    "MapAccum",
    "HeapAccum",
    "GroupByAccum",
    "ASC",
    "DESC",
    "TupleType",
    "TupleValue",
    "coerce_tuple",
    "lookup_accumulator",
    "register_accumulator",
    "unregister_accumulator",
    "accumulator_from_combiner",
    "OpAlgebra",
    "OP_ALGEBRA_TABLE",
    "algebra_for",
    "classify",
    "digest_value",
]

__getattr__, __dir__ = _exports(__name__, {
    ".algebra": (
        "OP_ALGEBRA_TABLE", "OpAlgebra", "algebra_for", "classify",
        "digest_value",
    ),
    ".base": ("Accumulator",),
    ".collections_": ("ArrayAccum", "BagAccum", "ListAccum", "SetAccum"),
    ".groupby": ("GroupByAccum",),
    ".heap": ("ASC", "DESC", "HeapAccum"),
    ".logical": ("AndAccum", "BitwiseAndAccum", "BitwiseOrAccum", "OrAccum"),
    ".mapaccum": ("MapAccum",),
    ".numeric": ("AvgAccum", "MaxAccum", "MinAccum", "SumAccum"),
    ".registry": (
        "accumulator_from_combiner", "lookup_accumulator",
        "register_accumulator", "unregister_accumulator",
    ),
    ".tuples": ("TupleType", "TupleValue", "coerce_tuple"),
})
