"""Tests for CSV/JSON graph loading and saving."""

import gc
import json

import pytest

from repro.errors import GraphError
from repro.graph import Graph, GraphSchema, builders
from repro.graph.elements import FORWARD, REVERSE, UNDIRECTED
from repro.ldbc import generate_snb_graph
from repro.graph.io import (
    graph_from_dict,
    graph_to_dict,
    load_edges_csv,
    load_graph_csv,
    load_graph_json,
    load_vertices_csv,
    save_graph_csv,
    save_graph_json,
)


@pytest.fixture
def csv_files(tmp_path):
    vertices = tmp_path / "vertices.csv"
    vertices.write_text(
        "id,type,name,age\n"
        "1,Person,ann,30\n"
        "2,Person,ben,25\n"
        "3,City,berlin,\n"
    )
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "source,target,type,since\n"
        "1,2,Knows,2019\n"
        "1,3,LivesIn,2020\n"
    )
    return vertices, edges


class TestCsvLoading:
    def test_load_graph(self, csv_files):
        vertices, edges = csv_files
        g = load_graph_csv(vertices, edges, name="csv")
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.vertex(1)["name"] == "ann"
        assert g.vertex(1)["age"] == 30  # coerced to int

    def test_empty_cell_is_none(self, csv_files):
        vertices, edges = csv_files
        g = load_graph_csv(vertices, edges)
        assert g.vertex(3).get("age") is None

    def test_edge_attrs_coerced(self, csv_files):
        vertices, edges = csv_files
        g = load_graph_csv(vertices, edges)
        knows = next(g.edges("Knows"))
        assert knows["since"] == 2019

    def test_fixed_type_override(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,name\nx,ann\n")
        g = Graph()
        assert load_vertices_csv(g, path, vertex_type="Person") == 1
        assert g.vertex("x").type == "Person"

    def test_missing_id_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("name\nann\n")
        with pytest.raises(GraphError, match="id"):
            load_vertices_csv(Graph(), path)

    def test_missing_type_errors(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,name\n1,ann\n")
        with pytest.raises(GraphError, match="type"):
            load_vertices_csv(Graph(), path)

    def test_missing_edge_columns(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("from,to\n1,2\n")
        with pytest.raises(GraphError, match="source"):
            load_edges_csv(Graph(), path)

    def test_bool_coercion(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,type,active\n1,V,true\n2,V,false\n")
        g = Graph()
        load_vertices_csv(g, path)
        assert g.vertex(1)["active"] is True
        assert g.vertex(2)["active"] is False


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        original = builders.sales_graph()
        vpath, epath = tmp_path / "v.csv", tmp_path / "e.csv"
        save_graph_csv(original, vpath, epath)
        loaded = load_graph_csv(vpath, epath)
        assert loaded.num_vertices == original.num_vertices
        assert loaded.num_edges == original.num_edges
        assert loaded.vertex("p0")["price"] == 50.0

    def test_round_trip_mixed_directedness(self, tmp_path):
        original = builders.mixed_kind_graph()
        vpath, epath = tmp_path / "v.csv", tmp_path / "e.csv"
        save_graph_csv(original, vpath, epath)
        loaded = load_graph_csv(vpath, epath)
        directed = {e.type: e.directed for e in loaded.edges()}
        assert directed["H"] is False
        assert directed["E"] is True


class TestJson:
    def test_dict_round_trip(self):
        original = builders.likes_graph()
        data = graph_to_dict(original)
        rebuilt = graph_from_dict(data)
        assert rebuilt.num_vertices == original.num_vertices
        assert rebuilt.num_edges == original.num_edges
        assert rebuilt.vertex("t0")["category"] == "Toys"

    def test_file_round_trip(self, tmp_path):
        original = builders.example9_graph()
        path = tmp_path / "g.json"
        save_graph_json(original, path)
        loaded = load_graph_json(path)
        assert loaded.num_edges == 14

    def test_schema_applied_on_load(self, tmp_path):
        schema = GraphSchema("S").vertex("V", name="STRING")
        g = Graph(schema)
        g.add_vertex(1, "V", name="x")
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        loaded = load_graph_json(path, schema=schema)
        assert loaded.schema is schema

    def test_epoch_round_trips(self, tmp_path):
        g = builders.likes_graph()
        g.epoch = 7
        path = tmp_path / "g.json"
        save_graph_json(g, path)
        assert load_graph_json(path).epoch == 7


class TestAtomicSave:
    """Interrupted saves must never destroy the previous good file."""

    def _unserializable_graph(self):
        g = Graph(name="boom")
        g.add_vertex("a", "V", payload=object())  # json.dump will choke
        return g

    def test_interrupted_json_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph_json(builders.likes_graph(), path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_graph_json(self._unserializable_graph(), path)
        assert path.read_bytes() == before
        # No stray temp files left behind either.
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    def test_interrupted_json_save_leaves_no_file(self, tmp_path):
        path = tmp_path / "fresh.json"
        with pytest.raises(TypeError):
            save_graph_json(self._unserializable_graph(), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_csv_save_keeps_old_files(self, tmp_path):
        vpath, epath = tmp_path / "v.csv", tmp_path / "e.csv"
        save_graph_csv(builders.sales_graph(), vpath, epath)
        v_before, e_before = vpath.read_bytes(), epath.read_bytes()

        import repro.graph.io as io_mod

        class ExplodingWriter:
            def __init__(self, *a, **k):
                pass

            def writerow(self, row):
                raise OSError("disk full")

        real_writer = io_mod.csv.writer
        io_mod.csv = type("csv_stub", (), {"writer": ExplodingWriter})
        try:
            with pytest.raises(OSError):
                save_graph_csv(builders.mixed_kind_graph(), vpath, epath)
        finally:
            io_mod.csv = __import__("csv")
            assert io_mod.csv.writer is real_writer
        assert vpath.read_bytes() == v_before
        assert epath.read_bytes() == e_before


class TestLoadDiagnostics:
    def test_json_not_an_object(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(GraphError, match="object"):
            load_graph_json(path)

    def test_json_malformed(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{not json")
        with pytest.raises(GraphError, match="not valid JSON"):
            load_graph_json(path)

    def test_json_negative_epoch(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"name": "g", "epoch": -3, "vertices": [], "edges": []}')
        with pytest.raises(GraphError, match="epoch"):
            load_graph_json(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_graph_json(tmp_path / "absent.json")


def _snb_sf01():
    return generate_snb_graph(0.1, seed=42)


def _unicode_float_none_graph():
    g = Graph(name="mixed ✓")
    g.add_vertex("ü", "Person", name="Zoë 🙂", score=0.1 + 0.2, tiny=1e-300,
                 big=1e300, missing=None, flag=True, n=-7, nested={"k": [1.5, None]})
    g.add_vertex(2, "Person", name="\u2028\"quoted\"\\", score=-0.0)
    g.add_edge("ü", 2, "Knows", directed=False, weight=float("inf"), note=None)
    g.add_edge(2, 2, "Self", ratio=float("nan"))
    return g


class TestJsonCodec:
    """``save_graph_json`` encodes through ``json.dumps`` (the C encoder)
    and ``load_graph_json`` builds through the graph's one insertion
    routine with the collector paused: same bytes, same graph."""

    @pytest.mark.parametrize("build", [
        _snb_sf01,
        lambda: builders.diamond_chain(30),
        _unicode_float_none_graph,
    ], ids=["snb-sf0.1", "diamond-30", "unicode-float-none"])
    def test_saves_the_bytes_json_dump_wrote(self, tmp_path, build):
        graph = build()
        path = tmp_path / "g.json"
        save_graph_json(graph, path)
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(graph_to_dict(graph), fh)
        assert path.read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_unencodable_edge_attribute_leaves_no_trace(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph_json(builders.likes_graph(), path)
        before = path.read_bytes()
        g = builders.diamond_chain(2)
        next(g.edges()).attrs["bad"] = {1, 2}
        with pytest.raises(TypeError):
            save_graph_json(g, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.json"]

    @pytest.mark.parametrize("build", [
        _snb_sf01,
        builders.mixed_kind_graph,
        _unicode_float_none_graph,
    ], ids=["snb-sf0.1", "mixed-kind", "unicode-float-none"])
    def test_load_equals_an_insertion_replay(self, tmp_path, build):
        path = tmp_path / "g.json"
        save_graph_json(build(), path)
        loaded = load_graph_json(path)
        doc = json.loads(path.read_text())
        replay = Graph(name=doc["name"])
        for v in doc["vertices"]:
            replay.add_vertex(v["id"], v["type"], **v["attrs"])
        for e in doc["edges"]:
            replay.add_edge(e["source"], e["target"], e["type"],
                            directed=e["directed"], **e["attrs"])
        replay.epoch = doc["epoch"]

        def shape(g):
            return (
                g.name, g.epoch, g._next_eid, list(g._edge_type_directed.items()),
                [(t, list(ids)) for t, ids in g._by_type.items()],
                [(v.vid, v.type, v.attrs) for v in g.vertices()],
                [(e.eid, e.type, e.source, e.target, e.directed, e.attrs)
                 for e in g.edges()],
                [(d, t, [(vid, list(b[0]), list(b[1])) for vid, b in column.items()])
                 for d in (FORWARD, REVERSE, UNDIRECTED)
                 for t, column in g.columns(d).items()],
            )

        assert repr(shape(loaded)) == repr(shape(replay))

    @pytest.mark.parametrize("doc, reason", [
        ({"vertices": [{"id": 1, "type": "V", "attrs": []}]}, "attrs"),
        ({"vertices": [{"id": 1, "type": "V", "attrs": "x"}]}, "attrs"),
        ({"vertices": [{"id": 1, "type": "V", "attrs": None}]}, "attrs"),
        ({"vertices": [{"id": 1, "type": "V"}, {"id": 2, "type": "V"}],
          "edges": [{"source": 1, "target": 2, "type": "E", "attrs": None}]},
         "attrs"),
        ({"vertices": [{"id": 1, "type": "V"}, {"id": 1, "type": "W"}]},
         "already exists"),
        ({"vertices": [{"id": 1, "type": "V"}],
          "edges": [{"source": 1, "target": 9, "type": "E"}]}, "unknown vertex"),
        ({"vertices": [{"id": 1, "type": "V"}, {"id": 2, "type": "V"}],
          "edges": [{"source": 1, "target": 2, "type": "E", "directed": True},
                    {"source": 2, "target": 1, "type": "E", "directed": False}]},
         "directedness"),
        ({"vertices": [{"id": [1], "type": "V"}]}, "invalid graph document"),
        ({"vertices": [{"type": "V"}]}, "invalid graph document"),
        ({"vertices": ["v1"]}, "invalid graph document"),
        ({"vertices": [None]}, "invalid graph document"),
        ({"epoch": -1}, "epoch"),
        ({"epoch": "3"}, "epoch"),
        ({"epoch": 1.5}, "epoch"),
    ])
    def test_malformed_documents_are_graph_errors(self, tmp_path, doc, reason):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match=reason):
            load_graph_json(path)

    @pytest.mark.parametrize("text", [
        json.dumps({"vertices": [{"id": 1, "type": "V", "attrs": {"a": 1}}]}),
        json.dumps({"vertices": [{"id": 1, "type": "V", "attrs": None}]}),
        "{not json",
    ], ids=["loaded-saved", "malformed-unencodable", "undecodable-unencodable"])
    @pytest.mark.parametrize("collecting", [True, False])
    def test_the_collector_is_restored(self, tmp_path, text, collecting):
        path = tmp_path / "g.json"
        path.write_text(text)
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            try:
                graph = load_graph_json(path)
            except GraphError:
                graph = Graph()
                graph.add_vertex("a", "V", payload=object())  # unencodable
            assert gc.isenabled() is collecting
            try:
                save_graph_json(graph, tmp_path / "saved.json")
            except TypeError:
                pass
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()


class TestSaveDurability:
    """The rename that publishes a save is durable only once the
    directory holding it is synced."""

    def test_json_save_syncs_the_directory_after_the_file(self, tmp_path, fsyncs):
        save_graph_json(builders.likes_graph(), tmp_path / "g.json")
        assert fsyncs == ["file", "dir"]

    def test_csv_save_syncs_the_directory_per_file(self, tmp_path, fsyncs):
        save_graph_csv(builders.sales_graph(), tmp_path / "v.csv", tmp_path / "e.csv")
        assert fsyncs == ["file", "dir", "file", "dir"]
