"""The fsck invariant checker: each check catches its own corruption.

A clean graph passes every check; each test then breaks exactly one
invariant through the internal structures (the public mutation API
cannot produce these states — that is the point of fsck) and asserts
the violation is reported under the right check name.
"""

import time

from repro.graph import Graph
from repro.graph.elements import FORWARD, REVERSE, UNDIRECTED, Edge
from repro.graph.fsck import CHECKS, check_catalog, fsck_graph
from repro.graph.mutation import GraphStore, MutationBatch
from repro.graph.stats import stats_snapshot
from repro.graph.wal import WriteAheadLog
from repro.ldbc import generate_snb_graph


def small_graph():
    g = Graph(name="fsck")
    g.add_vertex("a", "Person")
    g.add_vertex("b", "Person")
    g.add_vertex("c", "City")
    g.add_edge("a", "b", "Knows")
    g.add_edge("a", "c", "LivesIn")
    g.add_edge("b", "c", "Visited", directed=False)
    return g


def _bucket(g, direction, etype, vid):
    """The live ``(neighbour ids, edge ids)`` of one vertex in one column."""
    return g._adjacency[direction][etype][vid]


def _checks_hit(report):
    return {v.check for v in report.violations}


class TestCleanGraph:
    def test_clean_graph_is_ok(self):
        report = fsck_graph(small_graph())
        assert report.ok
        assert report.violations == []
        assert report.vertices == 3 and report.edges == 3
        assert "wal-epoch" not in report.checks

    def test_empty_graph_is_ok(self):
        assert fsck_graph(Graph(name="empty")).ok

    def test_report_serializes(self):
        doc = fsck_graph(small_graph()).to_dict()
        assert doc["ok"] is True
        assert doc["checks"] == [c for c in CHECKS if c != "wal-epoch"]

    def test_catalog_is_sorted_and_described(self):
        catalog = check_catalog()
        assert [name for name, _ in catalog] == sorted(CHECKS)
        assert all(desc for _, desc in catalog)


class TestViolationDetection:
    def test_dangling_edge(self):
        g = small_graph()
        # Rip the vertex out of the primary map only.
        del g._vertices["b"]
        report = fsck_graph(g)
        assert not report.ok
        assert "dangling-edge" in _checks_hit(report)

    def test_adjacency_missing_step(self):
        g = small_graph()
        del g._adjacency[FORWARD]["Knows"]
        report = fsck_graph(g)
        assert "adjacency-symmetry" in _checks_hit(report)
        assert any("missing steps" in v.detail for v in report.violations)

    def test_adjacency_stale_step_for_deleted_edge(self):
        g = small_graph()
        # Remove the edge record but leave its steps behind.
        del g._edges[0]
        report = fsck_graph(g)
        assert "adjacency-symmetry" in _checks_hit(report)
        assert any("deleted edge 0" in v.detail for v in report.violations)

    def test_adjacency_entry_for_deleted_vertex(self):
        g = small_graph()
        g.delete_vertex("c")
        g._adjacency[UNDIRECTED]["Visited"] = {"c": (["b"], [2])}
        report = fsck_graph(g)
        assert any(
            "adjacency entry for deleted vertex" in v.detail
            for v in report.violations
        )

    def test_vertex_without_adjacency_entry(self):
        # Adjacency is keyed by symbol, not by vertex: a vertex needs no
        # entry of its own, so "a vertex the index forgot" is not a state
        # the layout can be in — an isolated vertex is simply absent from
        # every column, and fsck has nothing to look for.
        g = small_graph()
        g.add_vertex("d", "City")
        assert all(
            "d" not in column
            for by_type in g._adjacency.values()
            for column in by_type.values()
        )
        assert list(g.steps("d")) == [] and g.outdegree("d") == 0
        assert fsck_graph(g).ok

    def test_degree_reconciliation(self):
        g = small_graph()
        # Duplicate one step: adjacency degree now over-counts.
        neighbors, eids = _bucket(g, FORWARD, "Knows", "a")
        neighbors.append(neighbors[0])
        eids.append(eids[0])
        report = fsck_graph(g)
        assert "degree-reconciliation" in _checks_hit(report)

    def test_degree_reconciliation_messages_name_each_vertex(self):
        g = small_graph()
        neighbors, eids = _bucket(g, FORWARD, "Knows", "a")
        neighbors.append(neighbors[0])
        eids.append(eids[0])
        del g._adjacency[REVERSE]["LivesIn"]
        details = [
            v.detail for v in fsck_graph(g).violations
            if v.check == "degree-reconciliation"
        ]
        assert details == [
            "vertex 'a': outdegree 3 (derived 2), indegree 0 (derived 0)",
            "vertex 'c': outdegree 1 (derived 1), indegree 1 (derived 2)",
        ]

    def test_degree_reconciliation_is_linear(self):
        # The check used to re-walk the whole expected table once per
        # vertex: 2.3 s at SNB SF 1.  Grouped by vertex it is ~0.1 s;
        # the bound leaves an order of magnitude for a slow machine and
        # still fails a quadratic walk.
        graph = generate_snb_graph(1.0, seed=1)
        started = time.perf_counter()
        report = fsck_graph(graph)
        assert report.ok
        assert time.perf_counter() - started < 1.0

    def test_step_pointing_at_a_stale_copy_of_its_edge(self):
        # A bucket records edge *ids*; the Edge is looked up at the moment
        # a step is handed out.  Swapping in a fresh copy of an edge — what
        # a copy-on-write attribute update does — therefore cannot leave
        # adjacency pointing at the old object: the state is unrepresentable.
        g = small_graph()
        old = g.edge(0)
        g._edges[0] = Edge(old.eid, old.type, old.source, old.target,
                           old.directed, {"since": 1833})
        assert fsck_graph(g).ok
        for vid in ("a", "b"):
            for step in g.steps(vid, etype="Knows"):
                assert step.edge is g.edge(0) and step.edge["since"] == 1833

    def test_parallel_sequences_of_unequal_length(self):
        g = small_graph()
        _bucket(g, FORWARD, "Knows", "a")[0].append("b")  # no edge id
        report = fsck_graph(g)
        assert _checks_hit(report) == {"adjacency-symmetry"}
        assert [v.detail for v in report.violations] == [
            "vertex 'a' >/Knows: 2 neighbours recorded against 1 edge ids",
        ]

    def test_recorded_neighbour_is_not_the_other_endpoint(self):
        g = small_graph()
        _bucket(g, FORWARD, "LivesIn", "a")[0][0] = "b"  # edge 1 is a -> c
        report = fsck_graph(g)
        assert _checks_hit(report) == {"adjacency-symmetry"}
        assert [v.detail for v in report.violations] == [
            "vertex 'a' >/LivesIn: edge 1 recorded with neighbour 'b', "
            "its other endpoint is 'c'",
        ]

    def test_empty_bucket_or_column_left_behind(self):
        g = small_graph()
        g.add_vertex("d", "City")
        g._adjacency[FORWARD]["Knows"]["d"] = ([], [])
        g._adjacency[REVERSE]["Ghost"] = {}
        report = fsck_graph(g)
        assert _checks_hit(report) == {"adjacency-symmetry"}
        assert [v.detail for v in report.violations] == [
            "vertex 'd' >/Knows: empty bucket left behind",
            "empty column left behind for </Ghost",
        ]

    def test_carried_statistics_that_disagree_with_a_rebuild(self):
        g = small_graph()
        stats_snapshot(g)
        assert fsck_graph(g).ok
        # An edge slipped in behind the mutators' backs (they would have
        # dropped the carried statistics).
        g._edges[99] = Edge(99, "Knows", "b", "a")
        report = fsck_graph(g)
        assert "stats-reconciliation" in _checks_hit(report)
        assert any("edge_counts" in v.detail for v in report.violations)

    def test_type_index_stale_id(self):
        g = small_graph()
        g._by_type["Person"].append("ghost")
        report = fsck_graph(g)
        assert any(
            "lists deleted vertex 'ghost'" in v.detail
            for v in report.violations
        )

    def test_type_index_wrong_type(self):
        g = small_graph()
        g._by_type["Person"].append("c")  # c is a City
        report = fsck_graph(g)
        assert "type-index" in _checks_hit(report)
        assert any("indexed under" in v.detail for v in report.violations)

    def test_type_index_missing_vertex(self):
        g = small_graph()
        g._by_type["City"].remove("c")
        del g._by_type["City"]
        report = fsck_graph(g)
        assert any(
            "missing from the type index" in v.detail
            for v in report.violations
        )

    def test_type_index_empty_list(self):
        g = small_graph()
        g.delete_vertex("c")
        g._by_type["City"] = []
        report = fsck_graph(g)
        assert any("empty id list" in v.detail for v in report.violations)


class TestWalEpochCheck:
    def test_epoch_in_sync(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with GraphStore.open(wal_dir, base=small_graph(), fsync=False) as store:
            store.apply(MutationBatch().upsert_vertex("d", "Person"))
            report = fsck_graph(store.live, wal_dir=wal_dir)
        assert report.ok
        assert "wal-epoch" in report.checks

    def test_graph_behind_log(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir, fsync=False) as wal:
            wal.commit({"epoch": 3, "ops": []})
        report = fsck_graph(small_graph(), wal_dir=wal_dir)
        assert not report.ok
        assert any(
            v.check == "wal-epoch" and "graph behind log" in v.detail
            for v in report.violations
        )

    def test_graph_ahead_of_log(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir, fsync=False) as wal:
            wal.commit({"epoch": 1, "ops": []})
        g = small_graph()
        g.epoch = 5
        report = fsck_graph(g, wal_dir=wal_dir)
        assert any(
            v.check == "wal-epoch" and "graph ahead of log" in v.detail
            for v in report.violations
        )


class TestMutationsStayClean:
    def test_random_mutation_sequence_stays_fsck_clean(self):
        # The real mutation API must never produce a violation; a long
        # mixed sequence through the store is the cheapest regression
        # net for the adjacency/type-index bookkeeping.
        import random

        rng = random.Random(7)
        store = GraphStore(small_graph())
        for i in range(60):
            roll = rng.random()
            try:
                if roll < 0.4:
                    store.apply(MutationBatch().upsert_vertex(
                        f"v{rng.randrange(12)}", "Person"))
                elif roll < 0.7:
                    ids = list(store.live.vertex_ids())
                    store.apply(MutationBatch().upsert_edge(
                        rng.choice(ids), rng.choice(ids), "Knows"))
                elif roll < 0.85:
                    ids = list(store.live.vertex_ids())
                    store.apply(MutationBatch().delete_vertex(rng.choice(ids)))
                else:
                    edges = list(store.live.edges())
                    if edges:
                        e = rng.choice(edges)
                        store.apply(MutationBatch().delete_edge(
                            e.source, e.target, e.type))
            except Exception:
                pass  # conflicts are fine; consistency is what matters
            assert fsck_graph(store.live).ok, f"violation after step {i}"
