"""LDBC-SNB-like workload substrate: schema, deterministic generator,
IC query analogues (Section 7.1) and the Appendix B grouping queries."""

from .._lazy import exports as _exports

__all__ = [
    "SnbSizes",
    "generate_snb_graph",
    "snb_schema",
    "HOPS",
    "IC_QUERIES",
    "default_parameters",
    "ic3_query",
    "ic5_query",
    "ic6_query",
    "ic9_query",
    "ic11_query",
    "build_q_acc",
    "build_q_gs",
    "run_q_acc",
    "run_q_gs",
]

__getattr__, __dir__ = _exports(__name__, {
    ".generator": ("SnbSizes", "generate_snb_graph"),
    ".grouping": ("build_q_acc", "build_q_gs", "run_q_acc", "run_q_gs"),
    ".interactive": (
        "HOPS", "IC_QUERIES", "default_parameters", "ic3_query", "ic5_query",
        "ic6_query", "ic9_query", "ic11_query",
    ),
    ".schema": ("snb_schema",),
})
