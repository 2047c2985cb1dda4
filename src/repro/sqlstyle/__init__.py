"""Conventional SQL-style aggregation baseline (Section 8)."""

from .._lazy import exports as _exports

__all__ = [
    "materialize_match_table",
    "Aggregate",
    "MatchTable",
    "Row",
    "cube",
    "group_by",
    "grouping_sets",
    "rollup",
    "split_grouping_result",
]

__getattr__, __dir__ = _exports(__name__, {
    ".engine": ("materialize_match_table",),
    ".relational": (
        "Aggregate", "MatchTable", "Row", "cube", "group_by", "grouping_sets",
        "rollup", "split_grouping_result",
    ),
})
