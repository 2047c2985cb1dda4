"""Tests for SDMC counting (Theorem 6.1): closed forms, cross-checks
against enumeration, and the shortest-path DAG."""

import math
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.darpe import CompiledDarpe
from repro.darpe.automaton import LazyDFA
from repro.enumeration import enumerate_matches
from repro.governor import ExecutionGovernor, govern
from repro.graph import Graph, builders
from repro.ldbc import generate_snb_graph
from repro.obs import collect
from repro.paths import (
    PathSemantics,
    all_paths_sdmc,
    enumerate_shortest_paths,
    shortest_path_dag,
    single_pair_sdmc,
    single_source_sdmc,
)
from repro.paths.sdmc import SdmcResult

E_STAR = CompiledDarpe.parse("E>*")


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 16])
    def test_diamond_chain_powers_of_two(self, n):
        g = builders.diamond_chain(n)
        result = single_pair_sdmc(g, "v0", f"v{n}", E_STAR)
        assert result.count == 2 ** n
        assert result.distance == 2 * n

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 4), (4, 4)])
    def test_grid_binomials(self, rows, cols):
        g = builders.grid_graph(rows, cols)
        result = single_pair_sdmc(g, (0, 0), (rows - 1, cols - 1), E_STAR)
        assert result.count == math.comb(rows + cols - 2, rows - 1)

    def test_path_graph_single_path(self):
        g = builders.path_graph(6)
        result = single_pair_sdmc(g, 0, 5, E_STAR)
        assert result == (5, 1)

    def test_cycle_shortest_wraps(self):
        g = builders.cycle_graph(5)
        result = single_pair_sdmc(g, 0, 3, E_STAR)
        assert result == (3, 1)


class TestSemanticsDetails:
    def test_empty_path_matches_kleene(self):
        g = builders.path_graph(3)
        result = single_pair_sdmc(g, 0, 0, E_STAR)
        assert result == (0, 1)

    def test_empty_path_excluded_without_kleene(self):
        g = builders.path_graph(3)
        d = CompiledDarpe.parse("E>")
        assert single_pair_sdmc(g, 0, 0, d) is None

    def test_unreachable_returns_none(self):
        g = builders.path_graph(3)
        assert single_pair_sdmc(g, 2, 0, E_STAR) is None

    def test_parallel_edges_multiply(self):
        g = Graph()
        g.add_vertex(1, "V")
        g.add_vertex(2, "V")
        g.add_edge(1, 2, "E")
        g.add_edge(1, 2, "E")
        result = single_pair_sdmc(g, 1, 2, E_STAR)
        assert result == (1, 2)

    def test_nondeterministic_pattern_counts_paths_not_runs(self):
        """(E>|E>.E>)* gives the length-2 path two accepting runs;
        counting must still report one path of length 1 (the shortest)."""
        g = builders.path_graph(3)
        d = CompiledDarpe.parse("(E>|E>.E>)*")
        assert single_pair_sdmc(g, 0, 2, d).count == 1

    def test_max_length_cap(self):
        g = builders.path_graph(10)
        found = single_source_sdmc(g, 0, E_STAR, max_length=3)
        assert set(found) == {0, 1, 2, 3}

    def test_mixed_direction_darpe(self):
        g = builders.mixed_kind_graph()
        d = CompiledDarpe.parse("E>.(F>|<G)*.H.<J")
        result = single_pair_sdmc(g, "a", "f", d)
        assert result == (5, 1)

    def test_fixed_length_cycle_wrap(self):
        """Section 6.1: the length-4 match around the 3-cycle exists under
        all-shortest-paths even though it repeats vertex v and edge A."""
        g = builders.fixed_length_cycle_graph()
        d = CompiledDarpe.parse("A>.(B>|D>)._>.A>")
        assert single_pair_sdmc(g, "v", "u", d) == (4, 1)


class TestSingleSourceAndAllPaths:
    def test_single_source_diamond(self):
        g = builders.diamond_chain(4)
        found = single_source_sdmc(g, "v0", E_STAR)
        for k in range(5):
            assert found[f"v{k}"].count == 2 ** k

    def test_targets_filter(self):
        g = builders.diamond_chain(4)
        found = single_source_sdmc(g, "v0", E_STAR, targets={"v2", "v4"})
        assert set(found) == {"v2", "v4"}

    def test_all_paths_union(self):
        g = builders.path_graph(4)
        table = all_paths_sdmc(g, CompiledDarpe.parse("E>"))
        assert set(table) == {(0, 1), (1, 2), (2, 3)}
        assert all(r == (1, 1) for r in table.values())

    def test_all_paths_selected_sources(self):
        g = builders.path_graph(4)
        table = all_paths_sdmc(g, CompiledDarpe.parse("E>"), sources=[0])
        assert set(table) == {(0, 1)}


class TestDagAndEnumeration:
    def test_dag_paths_match_count(self):
        g = builders.diamond_chain(5)
        paths = list(enumerate_shortest_paths(g, "v0", "v5", E_STAR))
        assert len(paths) == 32
        assert all(len(p) == 10 for p in paths)
        # All paths distinct as edge sequences
        assert len({tuple(e.eid for e in p) for p in paths}) == 32

    def test_dag_path_edges_are_connected(self):
        g = builders.grid_graph(3, 3)
        for path in shortest_path_dag(g, (0, 0), E_STAR).paths_to((2, 2)):
            at = (0, 0)
            for edge in path:
                assert edge.source == at
                at = edge.target
            assert at == (2, 2)

    def test_dag_empty_for_unreachable(self):
        g = builders.path_graph(3)
        dag = shortest_path_dag(g, 2, E_STAR)
        assert list(dag.paths_to(0)) == []


def _random_dag(edge_picks):
    """A small DAG on 7 vertices built from hypothesis-chosen edges
    (i -> j with i < j keeps it acyclic, so enumeration is cheap)."""
    g = Graph()
    for i in range(7):
        g.add_vertex(i, "V")
    for i, j in edge_picks:
        g.add_edge(min(i, j), max(i, j) if i != j else min(i, j) + 1, "E")
    return g


class TestPropertyCountsMatchEnumeration:
    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 6)),
            min_size=1,
            max_size=14,
        )
    )
    def test_sdmc_equals_enumerated_shortest(self, edges):
        """On arbitrary DAGs, the polynomial count equals the number of
        enumerated shortest paths (the invariant of Theorem 6.1)."""
        g = _random_dag(edges)
        counted = single_source_sdmc(g, 0, E_STAR)
        enumerated = {}
        for match in enumerate_matches(
            g, 0, E_STAR, PathSemantics.ALL_SHORTEST
        ):
            enumerated[match.target] = enumerated.get(match.target, 0) + 1
        assert {t: r.count for t, r in counted.items()} == enumerated


# ----------------------------------------------------------------------
# Differential: the per-bucket kernel against the edge-at-a-time BFS
# ----------------------------------------------------------------------

def _edge_at_a_time_sdmc(graph, source, darpe, targets=None, max_length=None):
    """The BFS ``single_source_sdmc`` ran before it expanded per bucket:
    every incidence of every frontier vertex, one DFA step per edge.
    Kept here as the reference the shipped kernel is compared against.
    Returns (results, product states, levels, frontier peak, product
    states charged to the governor)."""
    dfa = darpe.new_dfa()
    results = {}
    remaining = set(targets) if targets is not None else None
    start = (source, dfa.start)
    level = 0
    visited = {start}
    frontier = {start: 1}
    charged = 1
    peak = 1

    def record_level(states):
        per_vertex = defaultdict(int)
        for (vid, q), count in states.items():
            if dfa.is_accepting(q):
                per_vertex[vid] += count
        for vid, count in per_vertex.items():
            if vid not in results:
                results[vid] = SdmcResult(level, count)
                if remaining is not None:
                    remaining.discard(vid)

    record_level(frontier)
    while frontier:
        if remaining is not None and not remaining:
            break
        if max_length is not None and level >= max_length:
            break
        next_frontier = defaultdict(int)
        for (vid, q), count in frontier.items():
            for step in graph.steps(vid):
                q2 = dfa.step(q, (step.edge.type, step.direction))
                if q2 == LazyDFA.DEAD:
                    continue
                ps = (step.neighbor, q2)
                if ps in visited:
                    continue
                next_frontier[ps] += count
        level += 1
        visited.update(next_frontier)
        record_level(next_frontier)
        frontier = next_frontier
        peak = max(peak, len(frontier))
        charged += len(frontier)
    if targets is not None:
        results = {vid: res for vid, res in results.items() if vid in targets}
    return results, len(visited), level, peak, charged


#: Directed types A, B; undirected types U, W.
_TYPED_EDGES = st.lists(
    st.tuples(
        st.integers(0, 4), st.integers(0, 4), st.sampled_from(["A", "B", "U", "W"])
    ),
    max_size=14,
)

_DARPES = [
    # one direction per state
    "A>*", "<A*", "U*", "_>*", "<_*", "_*", "(A>|_>)*", "(U|_)*",
    "A>.<B", "A>*1..3", "U*1..2", "(A>|B>)*.U", "(A>.U)*", "W*..2.A>",
    # several directions live in one state: expansion order decides key order
    "(A>|<A|U)*", "(_>|<_|_)*", "(<A|U|A>)*1..3", "(B>|<A|W|U)*", "(_>|<_)*",
    "(A>|<_|U)*", "_>.(U|W)*.<_", "(<B|_)*1..2",
]


def _typed_graph(edges):
    """Five vertices; A/B directed, U/W undirected, self-loops allowed."""
    g = Graph()
    for i in range(5):
        g.add_vertex(i, "V")
    for source, target, etype in edges:
        g.add_edge(source, target, etype, directed=etype in ("A", "B"))
    return g


class TestBucketKernelMatchesEdgeAtATime:
    @settings(max_examples=150, deadline=None)
    @given(
        edges=_TYPED_EDGES,
        darpe_text=st.sampled_from(_DARPES),
        source=st.integers(0, 4),
        targets=st.none() | st.sets(st.integers(0, 4), max_size=3),
        max_length=st.none() | st.integers(0, 4),
    )
    @example(
        edges=[(0, 1, "A"), (2, 0, "A"), (0, 3, "U"), (0, 0, "U"), (4, 0, "B")],
        darpe_text="(A>|<A|U)*", source=0, targets=None, max_length=None,
    )
    def test_same_results_counters_and_charges(
        self, edges, darpe_text, source, targets, max_length
    ):
        g = _typed_graph(edges)
        darpe = CompiledDarpe.parse(darpe_text)
        want, states, levels, peak, charged = _edge_at_a_time_sdmc(
            g, source, darpe, targets, max_length
        )
        with govern(ExecutionGovernor()) as governor, collect() as col:
            got = single_source_sdmc(
                g, source, darpe, targets=targets, max_length=max_length
            )
        assert got == want
        assert list(got) == list(want)  # same key order, not just same items
        assert col.counter("sdmc.product_states") == states
        assert col.counter("sdmc.bfs_levels") == levels
        assert col.counters["sdmc.frontier_peak"] == peak
        assert governor.product_states == charged

    @settings(max_examples=60, deadline=None)
    @given(
        edges=_TYPED_EDGES,
        darpe_text=st.sampled_from(_DARPES),
        source=st.integers(0, 4),
    )
    def test_dag_and_enumeration_walk_the_same_expansion(
        self, edges, darpe_text, source
    ):
        """``shortest_path_dag`` and the all-shortest enumeration share the
        expander: their path multisets must match the kernel's counts."""
        g = _typed_graph(edges)
        darpe = CompiledDarpe.parse(darpe_text)
        counted = single_source_sdmc(g, source, darpe, max_length=4)
        dag = shortest_path_dag(g, source, darpe, max_length=4)
        for target, res in counted.items():
            assert len(list(dag.paths_to(target))) == res.count
        enumerated = {}
        for match in enumerate_matches(
            g, source, darpe, PathSemantics.ALL_SHORTEST, max_length=4
        ):
            enumerated[match.target] = enumerated.get(match.target, 0) + 1
        assert enumerated == {t: r.count for t, r in counted.items()}


class TestEdgesScanned:
    def test_knows_hops_scan_only_the_knows_buckets(self):
        """The work pin for the per-bucket kernel, as a count: on SNB
        ``Knows*1..2`` from a fixed Person iterates exactly the Knows
        incidences of the product states it expands — the source and its
        distinct friends — and none of their comments, posts, likes or
        memberships."""
        g = generate_snb_graph(scale_factor=0.1, seed=42)
        source = "person:3"
        friends = []
        for step in g.steps(source, etype="Knows"):
            if step.neighbor not in friends:
                friends.append(step.neighbor)
        expanded = [source] + friends  # the states that still have a transition
        knows = sum(len(list(g.steps(v, etype="Knows"))) for v in expanded)
        every = sum(len(list(g.steps(v))) for v in expanded)

        with collect() as col:
            single_source_sdmc(g, source, CompiledDarpe.parse("Knows*1..2"))
        assert friends and col.counter("sdmc.edges_scanned") == knows < every
