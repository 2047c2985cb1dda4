"""Loading and saving graphs: CSV vertex/edge files and a JSON format.

The CSV layout follows the common property-graph interchange shape (and
LDBC's CSV dumps): one vertex file and one edge file per type, or single
files with a ``type`` column.  The JSON format round-trips a whole graph
including its schema-free/schema'd status.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import GraphError, ReproError
from .graph import Graph
from .schema import GraphSchema
from .wal import fsync_directory

PathLike = Union[str, Path]


class _atomic_write:
    """Context manager writing ``path`` atomically: the body writes to a
    temp file in the *same directory* (so the final rename never crosses
    filesystems), which is fsynced and ``os.replace``d into place only on
    clean exit, and then the directory is fsynced so the rename itself
    survives a power failure.  An exception mid-write leaves any
    existing file at ``path`` untouched — a crash during save can no
    longer produce a truncated, unloadable graph."""

    def __init__(self, path: PathLike, newline: Optional[str] = None):
        self.path = os.fspath(path)
        self.directory = os.path.dirname(self.path) or "."
        self.newline = newline
        self._tmp_path: Optional[str] = None
        self._fh = None

    def __enter__(self):
        fd, self._tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp",
            dir=self.directory,
        )
        self._fh = os.fdopen(fd, "w", newline=self.newline)
        return self._fh

    def __exit__(self, exc_type, exc, tb) -> None:
        fh, tmp_path = self._fh, self._tmp_path
        if exc_type is None:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
            os.replace(tmp_path, self.path)
            fsync_directory(self.directory)
        else:
            fh.close()
            try:
                os.unlink(tmp_path)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


def _coerce(value: str) -> Any:
    """Best-effort typing of CSV cells: int, float, bool, else string."""
    if value == "":
        return None
    lowered = value.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


def load_vertices_csv(
    graph: Graph,
    path: PathLike,
    vertex_type: Optional[str] = None,
    id_column: str = "id",
) -> int:
    """Load vertices from a CSV file into an existing graph.

    The file needs an ``id`` column (configurable); a ``type`` column
    supplies per-row vertex types unless ``vertex_type`` fixes one.
    Every other column becomes an attribute (cells typed best-effort).
    Returns the number of vertices added.
    """
    count = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or id_column not in reader.fieldnames:
            raise GraphError(f"{path}: missing {id_column!r} column")
        for row in reader:
            vid = _coerce(row.pop(id_column))
            vtype = vertex_type or row.pop("type", None)
            if vtype is None:
                raise GraphError(
                    f"{path}: no vertex type for row with id {vid!r} "
                    f"(add a 'type' column or pass vertex_type=)"
                )
            attrs = {k: _coerce(v) for k, v in row.items() if k != "type"}
            graph.add_vertex(vid, vtype, **attrs)
            count += 1
    return count


def load_edges_csv(
    graph: Graph,
    path: PathLike,
    edge_type: Optional[str] = None,
    source_column: str = "source",
    target_column: str = "target",
    directed: Optional[bool] = None,
) -> int:
    """Load edges from a CSV file; endpoints must already exist.

    Columns: ``source``, ``target`` (configurable), optional ``type``,
    everything else becomes edge attributes.  Returns edges added.
    """
    count = 0
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for needed in (source_column, target_column):
            if needed not in fields:
                raise GraphError(f"{path}: missing {needed!r} column")
        for row in reader:
            src = _coerce(row.pop(source_column))
            dst = _coerce(row.pop(target_column))
            etype = edge_type or row.pop("type", None)
            if etype is None:
                raise GraphError(
                    f"{path}: no edge type for {src!r}->{dst!r} "
                    f"(add a 'type' column or pass edge_type=)"
                )
            row_directed = directed
            if "directed" in row:
                cell = _coerce(row.pop("directed"))
                if row_directed is None and cell is not None:
                    row_directed = bool(cell)
            attrs = {k: _coerce(v) for k, v in row.items() if k != "type"}
            graph.add_edge(src, dst, etype, directed=row_directed, **attrs)
            count += 1
    return count


def load_graph_csv(
    vertices_path: PathLike,
    edges_path: PathLike,
    schema: Optional[GraphSchema] = None,
    name: Optional[str] = None,
    directed: Optional[bool] = None,
) -> Graph:
    """Build a graph from a vertex CSV and an edge CSV.

    Malformed CSV content raises :class:`GraphError` with a one-line
    reason (missing files raise ``OSError``), matching
    :func:`load_graph_json`.
    """
    graph = Graph(schema=schema, name=name)
    try:
        load_vertices_csv(graph, vertices_path)
        load_edges_csv(graph, edges_path, directed=directed)
    except csv.Error as exc:
        raise GraphError(f"not valid CSV ({exc})") from exc
    return graph


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------

def graph_to_dict(graph: Graph) -> Dict[str, Any]:
    """A JSON-serializable representation of the graph."""
    return {
        "name": graph.name,
        "epoch": graph.epoch,
        "vertices": [
            {"id": v.vid, "type": v.type, "attrs": v.attrs}
            for v in graph.vertices()
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "type": e.type,
                "directed": e.directed,
                "attrs": e.attrs,
            }
            for e in graph.edges()
        ],
    }


def graph_from_dict(data: Dict[str, Any], schema: Optional[GraphSchema] = None) -> Graph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    Raises :class:`GraphError` on a structurally invalid document (not
    an object, vertices/edges rows missing required fields) so loaders
    surface one diagnostic type for every malformed-input shape.
    """
    if not isinstance(data, dict):
        raise GraphError(
            f"graph document must be a JSON object, got {type(data).__name__}"
        )
    graph = Graph(schema=schema, name=data.get("name"))
    epoch = data.get("epoch", 0)
    if not isinstance(epoch, int) or epoch < 0:
        raise GraphError(f"graph epoch must be a non-negative integer, got {epoch!r}")
    insert_vertex, insert_edge = graph._insert_vertex, graph._insert_edge
    try:
        for v in data.get("vertices", ()):
            insert_vertex(v["id"], v["type"], _row_attrs(v))
        for e in data.get("edges", ()):
            insert_edge(
                e["source"], e["target"], e["type"], e.get("directed", True),
                _row_attrs(e),
            )
    except ReproError:
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise GraphError(f"invalid graph document: {exc!r}") from exc
    graph.epoch = epoch
    return graph


def _row_attrs(row: Dict[str, Any]) -> Dict[str, Any]:
    """A vertex or edge row's attribute object as it is (``{}`` when the
    row has none); anything but an object is a malformed document."""
    attrs = row["attrs"] if "attrs" in row else {}
    if not isinstance(attrs, dict):
        raise GraphError(
            f"invalid graph document: attrs must be an object, "
            f"got {type(attrs).__name__}"
        )
    return attrs


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic collector around a step that only allocates —
    building a graph or its document — which it would otherwise re-walk,
    with the rest of the heap, at every threshold and find nothing to
    free.  Resumed afterwards (if it was running), however the step
    ends."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def save_graph_json(graph: Graph, path: PathLike) -> None:
    """Write the JSON representation atomically (temp file +
    ``os.replace``): an interrupted save leaves the old file intact.

    The document is encoded whole by ``json.dumps`` — CPython's C
    encoder; ``json.dump`` streams through the pure-Python one, several
    times slower, for the same bytes — before the temp file is created,
    so an unencodable attribute leaves no file behind."""
    with _collector_paused():
        text = json.dumps(graph_to_dict(graph))
    with _atomic_write(path) as fh:
        fh.write(text)


def load_graph_json(path: PathLike, schema: Optional[GraphSchema] = None) -> Graph:
    """Load a graph from JSON; malformed content raises
    :class:`GraphError` with a one-line reason (missing/unreadable files
    raise the usual ``OSError``), so CLIs can print a clean diagnostic
    instead of a traceback.  Decoding and building run with the cyclic
    collector paused."""
    with open(path) as fh:
        text = fh.read()
    with _collector_paused():
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"not valid JSON ({exc})") from exc
        return graph_from_dict(data, schema=schema)


def save_graph_csv(graph: Graph, vertices_path: PathLike, edges_path: PathLike) -> None:
    """Write vertex and edge CSVs (attribute columns are unioned across
    rows; absent attributes serialize as empty cells).  Each file is
    written atomically — see :func:`save_graph_json`."""
    vertex_attrs: List[str] = []
    for v in graph.vertices():
        for key in v.attrs:
            if key not in vertex_attrs:
                vertex_attrs.append(key)
    with _atomic_write(vertices_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "type"] + vertex_attrs)
        for v in graph.vertices():
            writer.writerow(
                [v.vid, v.type] + [_cell(v.attrs.get(a)) for a in vertex_attrs]
            )
    edge_attrs: List[str] = []
    for e in graph.edges():
        for key in e.attrs:
            if key not in edge_attrs:
                edge_attrs.append(key)
    with _atomic_write(edges_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "type", "directed"] + edge_attrs)
        for e in graph.edges():
            writer.writerow(
                [e.source, e.target, e.type, e.directed]
                + [_cell(e.attrs.get(a)) for a in edge_attrs]
            )


def _cell(value: Any) -> Any:
    return "" if value is None else value


__all__ = [
    "load_vertices_csv",
    "load_edges_csv",
    "load_graph_csv",
    "save_graph_csv",
    "graph_to_dict",
    "graph_from_dict",
    "save_graph_json",
    "load_graph_json",
]
