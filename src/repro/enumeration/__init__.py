"""Enumeration-based matching baselines (the exponential reference
engines corresponding to the paper's Neo4j/Cypher measurements)."""

from .._lazy import exports as _exports

__all__ = ["PathMatch", "enumerate_matches", "match_counts"]

__getattr__, __dir__ = _exports(__name__, {
    ".engine": ("PathMatch", "enumerate_matches", "match_counts"),
})
