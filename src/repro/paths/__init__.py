"""Path semantics and polynomial-time shortest-path match counting."""

from .._lazy import exports as _exports

__all__ = [
    "SdmcResult",
    "ShortestPathDag",
    "all_paths_sdmc",
    "enumerate_shortest_paths",
    "shortest_path_dag",
    "single_pair_sdmc",
    "single_source_sdmc",
    "PathSemantics",
]

__getattr__, __dir__ = _exports(__name__, {
    ".sdmc": (
        "SdmcResult", "ShortestPathDag", "all_paths_sdmc",
        "enumerate_shortest_paths", "shortest_path_dag", "single_pair_sdmc",
        "single_source_sdmc",
    ),
    ".semantics": ("PathSemantics",),
})
