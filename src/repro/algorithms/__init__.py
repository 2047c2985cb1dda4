"""Graph algorithms written against the query engine (Section 5: the
iterative-analytics class GSQL's accumulators + control flow cover)."""

from .._lazy import exports as _exports

__all__ = [
    "closeness_centrality",
    "degree_centrality",
    "harmonic_centrality",
    "community_sizes",
    "label_propagation",
    "core_numbers",
    "k_core",
    "shortest_path_lengths",
    "sssp_query",
    "cosine_similarity",
    "jaccard_similarity",
    "log_cosine_similarity",
    "component_sizes",
    "common_neighbor_counts",
    "degree_histogram",
    "k_hop_reach",
    "wcc_labels_gsql",
    "wcc_query",
    "weakly_connected_components",
    "pagerank",
    "pagerank_query",
    "recommend",
    "topk_query",
    "bfs_levels",
    "hop_distances_reference",
    "path_count",
    "path_count_query",
    "triangle_count",
    "triangle_query",
]

__getattr__, __dir__ = _exports(__name__, {
    ".centrality": (
        "closeness_centrality", "degree_centrality", "harmonic_centrality",
    ),
    ".communities": ("community_sizes", "label_propagation"),
    ".components": (
        "component_sizes", "wcc_query", "weakly_connected_components",
    ),
    ".gsql_library": (
        "common_neighbor_counts", "degree_histogram", "k_hop_reach",
        "wcc_labels_gsql",
    ),
    ".kcore": ("core_numbers", "k_core"),
    ".shortest_weighted": ("shortest_path_lengths", "sssp_query"),
    ".similarity": (
        "cosine_similarity", "jaccard_similarity", "log_cosine_similarity",
    ),
    ".pagerank": ("pagerank", "pagerank_query"),
    ".recommender": ("recommend", "topk_query"),
    ".traversal": (
        "bfs_levels", "hop_distances_reference", "path_count",
        "path_count_query",
    ),
    ".triangles": ("triangle_count", "triangle_query"),
})
