"""Property-based engine-equivalence tests.

The counting engine (compressed table + SDMC) and the enumeration engine
under ALL_SHORTEST semantics implement the *same* declarative semantics
by construction — one counts, one materializes.  On every graph, cyclic
or not, their results must agree exactly.  Hypothesis drives random
graphs through both engines end to end (pattern evaluation and full GSQL
queries) to pin the equivalence down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AttrRef,
    Binary,
    EngineMode,
    Literal,
    NameRef,
    QueryContext,
    chain,
    evaluate_pattern,
    hop,
)
from repro.core.pattern import Pattern
from repro.graph import Graph
from repro.gsql import parse_query
from repro.paths import PathSemantics

#: Small random directed graphs, cycles allowed.
edges_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    min_size=1,
    max_size=12,
)


def build_graph(edges):
    g = Graph()
    for i in range(6):
        g.add_vertex(i, "V", name=str(i))
    for s, t in edges:
        if s != t:  # self loops would make zero-length cycles of length 1
            g.add_edge(s, t, "E")
    return g


def pair_counts(graph, mode, darpe="E>*"):
    ctx = QueryContext(graph)
    pattern = Pattern([chain("V", "s", hop(darpe, "V", "t"))])
    table = evaluate_pattern(ctx, pattern, mode)
    s, t = table.slot("s"), table.slot("t")
    out = {}
    for values, multiplicity in table.rows:
        key = (values[s].vid, values[t].vid)
        out[key] = out.get(key, 0) + multiplicity
    return out


class TestPatternLevelEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(edges=edges_strategy)
    def test_counting_equals_enumerated_asp(self, edges):
        graph = build_graph(edges)
        counted = pair_counts(graph, EngineMode.counting())
        enumerated = pair_counts(
            graph, EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
        )
        assert counted == enumerated

    @settings(max_examples=30, deadline=None)
    @given(edges=edges_strategy)
    def test_bounded_darpe_equivalence(self, edges):
        graph = build_graph(edges)
        counted = pair_counts(graph, EngineMode.counting(), darpe="E>*1..3")
        enumerated = pair_counts(
            graph,
            EngineMode.enumeration(PathSemantics.ALL_SHORTEST),
            darpe="E>*1..3",
        )
        assert counted == enumerated

    @settings(max_examples=40, deadline=None)
    @given(edges=edges_strategy, kept=st.sets(st.integers(0, 5)))
    def test_two_hop_chain_with_filtered_second_hop(self, edges, kept):
        """s -(E>*)- m -(E>*1..2)- t with ``t.name IN kept`` pushed down
        onto the second hop: the counting matcher decides the filter once
        per distinct target, the enumeration matcher may plan the hop from
        the target side — the multiplicities must still agree."""
        graph = build_graph(edges)
        pattern = Pattern(
            [chain("V", "s", hop("E>*", "V", "m"), hop("E>*1..2", "V", "t"))]
        )
        names = Literal([str(i) for i in sorted(kept)])
        keep = Binary("IN", AttrRef(NameRef("t"), "name"), names)

        def triple_counts(mode):
            table = evaluate_pattern(
                QueryContext(graph), pattern, mode, var_filters={"t": [keep]}
            )
            slots = [table.slot(v) for v in ("s", "m", "t")]
            out = {}
            for values, multiplicity in table.rows:
                key = tuple(values[slot].vid for slot in slots)
                out[key] = out.get(key, 0) + multiplicity
            return out

        counted = triple_counts(EngineMode.counting())
        assert counted == triple_counts(
            EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
        )
        assert all(t in kept for (_, _, t) in counted)

    @settings(max_examples=30, deadline=None)
    @given(edges=edges_strategy)
    def test_existence_is_indicator_of_counting(self, edges):
        graph = build_graph(edges)
        counted = pair_counts(graph, EngineMode.counting())
        existence = pair_counts(
            graph, EngineMode.counting(semantics=PathSemantics.EXISTENCE)
        )
        assert existence == {pair: 1 for pair in counted}


QUERY = """
CREATE QUERY Counts() {
  SumAccum<int> @incoming;
  MaxAccum<int> @@maxIncoming;
  S = SELECT t FROM V:s -(E>*1..4)- V:t
      ACCUM t.@incoming += 1
      POST_ACCUM @@maxIncoming += t.@incoming;
}
"""


class TestQueryLevelEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(edges=edges_strategy)
    def test_full_query_accumulators_agree(self, edges):
        graph = build_graph(edges)
        query = parse_query(QUERY)
        counting = query.run(graph)
        enumerated = query.run(
            graph, mode=EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
        )
        assert counting.vertex_accum("incoming") == enumerated.vertex_accum(
            "incoming"
        )
        assert counting.global_accum("maxIncoming") == enumerated.global_accum(
            "maxIncoming"
        )

    @settings(max_examples=25, deadline=None)
    @given(edges=edges_strategy)
    def test_reachability_identical_across_all_semantics(self, edges):
        """OrAccum reachability (multiplicity-insensitive) must agree
        across every finite semantics, per the coincidence the paper's
        SNB experiment relies on."""
        graph = build_graph(edges)
        query = parse_query("""
CREATE QUERY Reach() {
  OrAccum @seen;
  S = SELECT t FROM V:s -(E>*1..4)- V:t ACCUM t.@seen += TRUE;
}""")
        results = []
        for mode in (
            EngineMode.counting(),
            EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE),
            EngineMode.enumeration(PathSemantics.NO_REPEATED_VERTEX),
            EngineMode.enumeration(PathSemantics.ALL_SHORTEST),
        ):
            results.append(query.run(graph, mode=mode).vertex_accum("seen"))
        assert all(r == results[0] for r in results[1:])
