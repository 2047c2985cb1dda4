"""Tests for graph statistics, cross-checked against networkx — and
for the maintained :class:`GraphStatsSnapshot`, cross-checked against
:func:`rescan_snapshot`, the one-pass scan that used to be the
implementation and is kept here as the reference oracle."""

import hashlib

import networkx as nx
import pytest

from repro.graph import Graph, builders
from repro.graph.fsck import fsck_graph
from repro.graph.mutation import GraphStore, MutationBatch
from repro.graph.stats import (
    GraphStatsSnapshot,
    _Tally,
    average_clustering,
    average_degree,
    clustering_coefficient,
    density,
    describe,
    diameter,
    distance_histogram,
    eccentricity,
    stats_snapshot,
)
from repro.gsql import parse_query
from repro.ldbc import generate_snb_graph


def rescan_snapshot(graph) -> GraphStatsSnapshot:
    """Reference oracle: profile ``graph`` by scanning all of it, with
    no state kept between calls.  Deliberately shares no code with
    ``repro.graph.stats.GraphStats``."""
    vertex_counts = {}
    attr_freq = {}
    for v in graph.vertices():
        vertex_counts[v.type] = vertex_counts.get(v.type, 0) + 1
        for attr, value in (v.attrs or {}).items():
            try:
                hash(value)
            except TypeError:
                continue
            bucket = attr_freq.setdefault((v.type, attr), {})
            bucket[value] = bucket.get(value, 0) + 1

    edge_counts = {}
    outdeg = {}
    indeg = {}
    for e in graph.edges():
        edge_counts[e.type] = edge_counts.get(e.type, 0) + 1
        per_src = outdeg.setdefault(e.type, {})
        per_src[e.source] = per_src.get(e.source, 0) + 1
        per_tgt = indeg.setdefault(e.type, {})
        per_tgt[e.target] = per_tgt.get(e.target, 0) + 1

    out_degree = {
        etype: (max(per.values(), default=0), sum(per.values()))
        for etype, per in outdeg.items()
    }
    in_degree = {
        etype: (max(per.values(), default=0), sum(per.values()))
        for etype, per in indeg.items()
    }
    hist = {}
    total_out = {}
    for per in outdeg.values():
        for src, d in per.items():
            total_out[src] = total_out.get(src, 0) + d
    for v in graph.vertices():
        d = total_out.get(v.vid, 0)
        hist[d] = hist.get(d, 0) + 1

    attr_max = {
        key: max(bucket.values(), default=0) for key, bucket in attr_freq.items()
    }

    digest = hashlib.blake2b(digest_size=12)
    for part in (
        sorted(vertex_counts.items()),
        sorted(edge_counts.items()),
        sorted(out_degree.items()),
        sorted(in_degree.items()),
        sorted(hist.items()),
        sorted(attr_max.items()),
    ):
        digest.update(repr(part).encode())
    return GraphStatsSnapshot(
        vertex_counts=tuple(sorted(vertex_counts.items())),
        edge_counts=tuple(sorted(edge_counts.items())),
        total_vertices=graph.num_vertices,
        total_edges=graph.num_edges,
        out_degree=tuple(sorted(out_degree.items())),
        in_degree=tuple(sorted(in_degree.items())),
        degree_histogram=tuple(sorted(hist.items())),
        attr_max_freq=tuple(sorted(attr_max.items())),
        fingerprint=digest.hexdigest(),
    )


@pytest.fixture(scope="module")
def knows_pair():
    snb = generate_snb_graph(0.08, seed=17)
    G = nx.Graph()
    G.add_nodes_from(v.vid for v in snb.vertices())
    G.add_edges_from((e.source, e.target) for e in snb.edges("Knows"))
    return snb, G


class TestBasicStats:
    def test_density(self):
        g = builders.complete_graph(4)
        assert density(g) == pytest.approx(1.0)
        assert density(builders.path_graph(1)) == 0.0

    def test_average_degree(self):
        g = builders.cycle_graph(5)
        assert average_degree(g) == pytest.approx(2.0)

    def test_average_degree_empty(self):
        assert average_degree(Graph()) == 0.0


class TestClustering:
    def test_triangle_is_fully_clustered(self):
        g = builders.from_edge_list([(1, 2), (2, 3), (1, 3)], directed=False)
        for v in (1, 2, 3):
            assert clustering_coefficient(g, v) == pytest.approx(1.0)

    def test_path_has_zero_clustering(self):
        g = builders.path_graph(4)
        assert average_clustering(g) == 0.0

    def test_matches_networkx_on_knows(self, knows_pair):
        snb, G = knows_pair
        ours_vertices = [v.vid for v in snb.vertices("Person")]
        expected = nx.average_clustering(G, nodes=ours_vertices)
        ours = sum(
            clustering_coefficient(snb, v, "Knows") for v in ours_vertices
        ) / len(ours_vertices)
        assert ours == pytest.approx(expected)


class TestDistances:
    def test_eccentricity_path(self):
        g = builders.path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_diameter_matches_networkx(self, knows_pair):
        snb, G = knows_pair
        giant = G.subgraph(max(nx.connected_components(G), key=len))
        assert diameter(snb, "Knows") >= nx.diameter(giant)

    def test_diameter_of_cycle(self):
        g = builders.cycle_graph(6)
        assert diameter(g) == 3

    def test_distance_histogram(self):
        g = builders.path_graph(4)
        assert distance_histogram(g, 0) == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_isolated_vertex(self):
        g = Graph()
        g.add_vertex(1, "V")
        assert eccentricity(g, 1) == 0
        assert diameter(g) == 0


class TestDescribe:
    def test_keys_present(self):
        summary = describe(builders.diamond_chain(3))
        assert set(summary) == {
            "vertices",
            "edges",
            "density",
            "avg_degree",
            "avg_clustering",
            "diameter",
        }
        assert summary["vertices"] == 10


class TestDescribeBuildsAdjacencyOnce:
    def test_adjacency_computed_once(self, monkeypatch):
        # describe() threads one adjacency map through every metric;
        # a second build would silently double the dominant cost.
        from repro.graph import stats as stats_mod

        calls = []
        real = stats_mod._undirected_neighbors

        def counting(graph, etype):
            calls.append(etype)
            return real(graph, etype)

        monkeypatch.setattr(stats_mod, "_undirected_neighbors", counting)
        doc = stats_mod.describe(builders.cycle_graph(8))
        assert doc["vertices"] == 8
        assert doc["diameter"] == 4
        assert len(calls) == 1


def _people():
    g = Graph(name="people")
    for vid, city in (("ada", "london"), ("bob", "london"), ("cy", "paris")):
        g.add_vertex(vid, "Person", city=city, tags=["unhashable"])
    g.add_vertex("london", "City")
    g.add_edge("ada", "bob", "Knows", directed=False)
    g.add_edge("ada", "cy", "Knows", directed=False)
    g.add_edge("ada", "london", "LivesIn")
    g.add_edge("bob", "london", "LivesIn")
    return g


class TestTally:
    def test_max_survives_decrements(self):
        tally = _Tally()
        for key in "aaabbc":
            tally.bump(key, +1)
        assert (tally.max, tally.sizes) == (3, {3: 1, 2: 1, 1: 1})
        tally.bump("a", -1)
        assert (tally.max, tally.sizes) == (2, {2: 2, 1: 1})
        tally.bump("a", -1)
        tally.bump("b", -1)
        assert (tally.max, tally.sizes) == (1, {1: 3})
        for key in "abc":
            tally.bump(key, -1)
        assert (tally.max, tally.sizes, tally.counts) == (0, {}, {})

    def test_built_from_counts_equals_built_by_bumps(self):
        counts = {"x": 4, "y": 1, "z": 4}
        grown = _Tally()
        for key, n in counts.items():
            for _ in range(n):
                grown.bump(key, +1)
        bulk = _Tally(dict(counts))
        assert (bulk.counts, bulk.sizes, bulk.max) == (
            grown.counts, grown.sizes, grown.max)

    def test_taking_an_uncounted_key_raises(self):
        with pytest.raises(KeyError):
            _Tally().bump("ghost", -1)


class TestStatsSnapshot:
    @pytest.mark.parametrize("graph", [
        Graph(), _people(), builders.diamond_chain(5),
        builders.complete_graph(6), generate_snb_graph(0.05, seed=3),
    ], ids=["empty", "people", "diamond", "complete", "snb"])
    def test_from_scratch_equals_the_rescan(self, graph):
        assert stats_snapshot(graph) == rescan_snapshot(graph)

    def test_a_profiled_graph_carries_its_snapshot(self):
        g = _people()
        first = stats_snapshot(g)
        assert stats_snapshot(g) is first
        assert fsck_graph(g).ok

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_vertex("dee", "Person", city="paris"),
        lambda g: g.add_edge("bob", "cy", "Knows", directed=False),
        lambda g: g.upsert_vertex("cy", city="london"),
        lambda g: g.upsert_edge("ada", "bob", "Knows", since=1833),
        lambda g: g.delete_edge(0),
        lambda g: g.delete_vertex("ada"),
        lambda g: g.set_vertex_attr(g.vertex("cy"), "city", "london"),
    ], ids=["add_vertex", "add_edge", "upsert_vertex", "upsert_edge",
            "delete_edge", "delete_vertex", "set_vertex_attr"])
    def test_every_in_place_mutator_drops_the_carried_snapshot(self, mutate):
        g = _people()
        stats_snapshot(g)
        mutate(g)
        assert g._stats is None
        assert stats_snapshot(g) == rescan_snapshot(g)

    def test_commits_carry_the_snapshot_forward(self):
        store = GraphStore(_people())
        base = stats_snapshot(store.live)
        with store.pin() as pin:
            store.apply(
                MutationBatch()
                .upsert_vertex("dee", "Person", city="london")
                .upsert_edge("dee", "ada", "Knows", directed=False)
                .delete_vertex("bob")
                .upsert_vertex("cy", city="london")
            )
            carried = store.live._stats
            assert carried is not None and carried.counts is not None
            assert stats_snapshot(store.live) is carried.snapshot
            assert carried.snapshot == rescan_snapshot(store.live)
            assert carried.snapshot.max_value_frequency("Person", "city") == 3
            # The superseded version keeps its snapshot, not the counts.
            assert stats_snapshot(pin.graph) is base
            assert pin.graph._stats.counts is None
            assert fsck_graph(pin.graph).ok
        assert fsck_graph(store.live).ok

    def test_maxima_survive_deletes(self):
        store = GraphStore(_people())
        assert stats_snapshot(store.live).max_out_degree("Knows") == 2
        store.apply(MutationBatch().delete_edge("ada", "cy", "Knows"))
        snap = stats_snapshot(store.live)
        assert snap.max_out_degree("Knows") == 1
        assert snap == rescan_snapshot(store.live)
        store.apply(MutationBatch().delete_edge("ada", "bob", "Knows"))
        snap = stats_snapshot(store.live)
        assert snap.max_out_degree("Knows") == 0
        assert dict(snap.edge_counts) == {"LivesIn": 2}
        assert snap == rescan_snapshot(store.live)

    def test_inconsistent_counts_are_dropped_not_raised(self):
        from repro.obs import collect

        store = GraphStore(_people())
        stats_snapshot(store.live)
        # Corrupt the counts behind the commit path's back.
        store.live._stats.counts.attrs[("Person", "city")].counts.clear()
        with collect() as col:
            result = store.apply(MutationBatch().delete_vertex("cy"))
        assert result.epoch == 1
        assert col.counters["mutation.stats_dropped"] == 1
        assert store.live._stats is None
        assert stats_snapshot(store.live) == rescan_snapshot(store.live)

    def test_fsck_flags_a_stale_carried_snapshot(self):
        g = _people()
        stats_snapshot(g)
        g.vertex("cy").attrs["city"] = "london"  # behind the graph's back
        report = fsck_graph(g)
        assert [v.check for v in report.violations] == [
            "stats-reconciliation", "stats-reconciliation"]
        assert "attr_max_freq" in report.violations[0].detail

    def test_post_accum_attribute_write_back_drops_the_snapshot(self):
        g = _people()
        before = stats_snapshot(g)
        query = parse_query("""
            CREATE QUERY relocate() {
              S = SELECT p FROM Person:p
                  POST_ACCUM p.city = "rome";
            }
        """)
        query.run(g)
        after = stats_snapshot(g)
        assert after == rescan_snapshot(g)
        assert before.max_value_frequency("Person", "city") == 2
        assert after.max_value_frequency("Person", "city") == 3
        assert fsck_graph(g).ok
