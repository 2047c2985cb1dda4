"""Property-graph substrate: schemas, graphs, example-graph builders,
and the durable mutation layer (WAL, epoch snapshots, fsck)."""

from .._lazy import exports as _exports

__all__ = [
    "FORWARD",
    "REVERSE",
    "UNDIRECTED",
    "Edge",
    "Step",
    "Vertex",
    "adorn",
    "Graph",
    "induced_subgraph",
    "AttributeDecl",
    "EdgeType",
    "GraphSchema",
    "VertexType",
    "GraphStore",
    "MutationBatch",
    "RecoveryReport",
    "recover_graph",
    "FsckReport",
    "fsck_graph",
    "WriteAheadLog",
    "scan_wal",
    "builders",
    "fsck",
    "io",
    "mutation",
    "stats",
    "wal",
]

__getattr__, __dir__ = _exports(__name__, {
    ".elements": (
        "FORWARD", "REVERSE", "UNDIRECTED", "Edge", "Step", "Vertex", "adorn",
    ),
    ".graph": ("Graph", "induced_subgraph"),
    ".schema": ("AttributeDecl", "EdgeType", "GraphSchema", "VertexType"),
    ".mutation": (
        "GraphStore", "MutationBatch", "RecoveryReport", "recover_graph",
    ),
    ".fsck": ("FsckReport", "fsck_graph"),
    ".wal": ("WriteAheadLog", "scan_wal"),
})
