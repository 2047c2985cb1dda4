"""Tests for pattern evaluation: compressed binding tables, joins,
multiplicities, the two engine modes."""

import pytest

from repro.core import EngineMode, QueryContext, chain, evaluate_pattern, hop
from repro.core.exprs import _FUNCTIONS, Call, NameRef
from repro.core.pattern import Chain, Pattern, VertexSpec
from repro.core.values import VertexSet
from repro.errors import QueryCompileError, QueryRuntimeError
from repro.graph import Graph, Vertex, builders
from repro.obs import collect
from repro.paths import PathSemantics


def table_for(graph, pattern, mode=None, params=None, vertex_sets=None):
    ctx = QueryContext(graph, params)
    for name, vset in (vertex_sets or {}).items():
        ctx.set_vertex_set(name, VertexSet(graph, vset))
    return ctx, evaluate_pattern(ctx, pattern, mode or EngineMode.counting())


def vids(table, *names):
    """Per row, the vertex ids bound to ``names`` (read through the
    table's slot positions) followed by the row's multiplicity."""
    slots = [table.slot(name) for name in names]
    return [
        tuple(values[slot].vid for slot in slots) + (multiplicity,)
        for values, multiplicity in table.rows
    ]


class TestSingleEdgeHops:
    def test_binds_edge_variable(self):
        g = builders.sales_graph()
        pattern = Pattern(
            [chain("Customer", "c", hop("Bought>", "Product", "p", edge_var="b"))]
        )
        ctx, table = table_for(g, pattern)
        assert len(table) == 9  # one row per purchase
        values, multiplicity = table.rows[0]
        assert table.variables == ["c", "b", "p"]
        assert values[table.slot("b")].type == "Bought"
        assert multiplicity == 1

    def test_reverse_direction(self):
        g = builders.sales_graph()
        pattern = Pattern([chain("Product", "p", hop("<Bought", "Customer", "c"))])
        _, table = table_for(g, pattern)
        assert len(table) == 9

    def test_undirected_single_edge(self):
        g = Graph()
        for v in "ab":
            g.add_vertex(v, "V")
        g.add_edge("a", "b", "K", directed=False)
        pattern = Pattern([chain("V", "x", hop("K", "V", "y"))])
        _, table = table_for(g, pattern)
        # both orientations of the undirected edge
        assert sorted(vids(table, "x", "y")) == [("a", "b", 1), ("b", "a", 1)]

    def test_edge_var_on_kleene_rejected(self):
        with pytest.raises(QueryCompileError, match="single-edge"):
            hop("E>*", "V", "t", edge_var="e")

    def test_target_type_filters(self):
        g = builders.sales_graph()
        pattern = Pattern([chain("Customer", "c", hop("Bought>", "Customer", "x"))])
        _, table = table_for(g, pattern)
        assert len(table) == 0


class TestMultiplicities:
    def test_kleene_hop_counts_shortest_paths(self):
        g = builders.diamond_chain(6)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        _, table = table_for(g, pattern)
        by_pair = {(s, t): mult for s, t, mult in vids(table, "s", "t")}
        assert by_pair[("v0", "v6")] == 64
        assert by_pair[("v0", "v3")] == 8

    def test_total_multiplicity(self):
        g = builders.diamond_chain(4)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        _, table = table_for(g, pattern)
        assert table.total_multiplicity() > len(table)

    def test_multiplicities_chain_multiply(self):
        """Two consecutive Kleene hops multiply their path counts."""
        g = builders.diamond_chain(4)
        pattern = Pattern(
            [chain("V", "s", hop("E>*", "V", "m"), hop("E>*", "V", "t"))]
        )
        _, table = table_for(g, pattern)
        matches = [
            mult
            for *smt, mult in vids(table, "s", "m", "t")
            if smt == ["v0", "v2", "v4"]
        ]
        assert matches == [16]  # 4 * 4


class TestJoins:
    def test_shared_variable_join(self):
        """Triangle pattern: two chains share variables a and c."""
        g = Graph()
        for v in "abc":
            g.add_vertex(v, "V")
        g.add_edge("a", "b", "E")
        g.add_edge("b", "c", "E")
        g.add_edge("a", "c", "E")
        pattern = Pattern(
            [
                chain("V", "a", hop("E>", "V", "b"), hop("E>", "V", "c")),
                chain("V", "a", hop("E>", "V", "c")),
            ]
        )
        _, table = table_for(g, pattern)
        assert table.variables == ["a", "b", "c"]
        assert vids(table, "a", "b", "c") == [("a", "b", "c", 1)]

    def test_repeated_variable_within_chain(self):
        """x -E-> y -E-> x: the returning hop must rebind x identically."""
        g = Graph()
        g.add_vertex(1, "V")
        g.add_vertex(2, "V")
        g.add_vertex(3, "V")
        g.add_edge(1, 2, "E")
        g.add_edge(2, 1, "E")
        g.add_edge(2, 3, "E")
        pattern = Pattern(
            [Chain(VertexSpec("V", "x"), [hop("E>", "V", "y"), hop("E>", "V", "x")])]
        )
        _, table = table_for(g, pattern)
        assert table.variables == ["x", "y"]  # the repeated x keeps its one slot
        assert sorted(vids(table, "x", "y")) == [(1, 2, 1), (2, 1, 1)]

    def test_join_multiplicities_multiply(self):
        g = builders.diamond_chain(3)
        pattern = Pattern(
            [
                chain("V", "s", hop("E>*", "V", "t")),
                chain("V", "s", hop("E>*", "V", "t")),
            ]
        )
        _, table = table_for(g, pattern)
        by_pair = {(s, t): mult for s, t, mult in vids(table, "s", "t")}
        assert by_pair[("v0", "v3")] == 64  # 8 * 8


class TestVertexSpecs:
    def test_set_variable_source(self):
        g = builders.sales_graph()
        seed = [g.vertex("c0"), g.vertex("c1")]
        pattern = Pattern([chain("S", "c", hop("Bought>", "Product", "p"))])
        _, table = table_for(g, pattern, vertex_sets={"S": seed})
        assert {c for c, _ in vids(table, "c")} == {"c0", "c1"}

    def test_param_pins_source(self):
        g = builders.sales_graph()
        pattern = Pattern([chain("Customer", "c", hop("Bought>", "Product", "p"))])
        _, table = table_for(g, pattern, params={"c": g.vertex("c2")})
        assert {c for c, _ in vids(table, "c")} == {"c2"}

    def test_wildcard_source(self):
        g = builders.sales_graph()
        pattern = Pattern([Chain(VertexSpec("_", "x"), [])])
        _, table = table_for(g, pattern)
        assert len(table) == g.num_vertices

    def test_unknown_source_name(self):
        g = builders.sales_graph()
        pattern = Pattern([Chain(VertexSpec("Nonsense", "x"), [])])
        with pytest.raises(QueryRuntimeError):
            table_for(g, pattern)

    def test_hidden_vars_excluded_from_visible(self):
        pattern = Pattern([chain("V", "s", hop("E>", "V", None))])
        assert pattern.visible_variables() == ["s"]
        assert len(pattern.variables()) == 2


class TestEngineModes:
    def test_enumeration_mode_trail_semantics(self):
        """On G1, trail semantics yields multiplicity 4 for (1, 5) where
        counting mode yields 2."""
        g = builders.example9_graph()
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        ctx, counting = table_for(g, pattern, params={"s": g.vertex(1)})
        c_mult = dict(vids(counting, "t"))
        _, enumerated = table_for(
            g,
            pattern,
            mode=EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE),
            params={"s": g.vertex(1)},
        )
        e_mult = dict(vids(enumerated, "t"))
        assert c_mult[5] == 2
        assert e_mult[5] == 4

    def test_max_length_bounds_counting(self):
        g = builders.path_graph(10)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        ctx = QueryContext(g, {"s": g.vertex(0)})
        table = evaluate_pattern(ctx, pattern, EngineMode.counting(max_length=2))
        assert {t for t, _ in vids(table, "t")} == {0, 1, 2}

    def test_pattern_has_kleene(self):
        assert Pattern([chain("V", "s", hop("E>*", "V", "t"))]).has_kleene()
        assert not Pattern([chain("V", "s", hop("E>", "V", "t"))]).has_kleene()


class TestHopKernel:
    """The bind-once hop kernel: the target position's pin, set-or-type
    test and pushed-down filters are resolved once per hop execution and
    decided once per distinct target vertex; edges stay per row."""

    @staticmethod
    def counting_filter(monkeypatch, var, verdict=lambda v: True):
        """A pushed-down ``seen(var)`` filter plus the log of its calls."""
        calls = []

        def seen(value):
            calls.append(value.vid if isinstance(value, Vertex) else value.eid)
            return verdict(value)

        monkeypatch.setitem(_FUNCTIONS, "seen", seen)
        return Call("seen", [NameRef(var)]), calls

    triples = staticmethod(vids)

    def test_target_filter_runs_once_per_distinct_vertex(self, monkeypatch):
        g = builders.sales_graph()
        pattern = Pattern([chain("Customer", "c", hop("Bought>", "Product", "p"))])
        keep, calls = self.counting_filter(
            monkeypatch, "p", lambda v: v["category"] == "toy"
        )
        ctx = QueryContext(g)
        filtered = evaluate_pattern(
            ctx, pattern, EngineMode.counting(), var_filters={"p": [keep]}
        )
        plain = evaluate_pattern(ctx, pattern, EngineMode.counting())
        assert len(plain) == 9
        # nine crossings, five products: one verdict each, first-seen order
        assert calls == ["p0", "p1", "p3", "p2", "p4"]
        assert self.triples(filtered, "c", "p") == [
            t for t in self.triples(plain, "c", "p") if t[1] != "p3"
        ]

    def test_kleene_target_filter_runs_once_per_distinct_vertex(self, monkeypatch):
        g = builders.diamond_chain(3)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        keep, calls = self.counting_filter(monkeypatch, "t")
        ctx = QueryContext(g)
        filtered = evaluate_pattern(
            ctx, pattern, EngineMode.counting(), var_filters={"t": [keep]}
        )
        plain = evaluate_pattern(ctx, pattern, EngineMode.counting())
        assert self.triples(filtered, "s", "t") == self.triples(plain, "s", "t")
        assert len(plain) > g.num_vertices
        assert sorted(calls) == sorted(g.vertex_ids())

    def test_param_pins_target(self):
        g = builders.sales_graph()
        pattern = Pattern([chain("Customer", "c", hop("Bought>", "Product", "p"))])
        _, table = table_for(g, pattern, params={"p": g.vertex("p0")})
        assert self.triples(table, "c", "p") == [("c0", "p0", 1), ("c2", "p0", 1)]

    def test_set_variable_target(self):
        g = builders.sales_graph()
        pattern = Pattern([chain("Customer", "c", hop("Bought>", "S", "p"))])
        _, table = table_for(
            g, pattern, vertex_sets={"S": [g.vertex("p1"), g.vertex("p4")]}
        )
        assert self.triples(table, "c", "p") == [
            ("c0", "p1", 1), ("c1", "p1", 1), ("c2", "p4", 1),
        ]

    @pytest.mark.parametrize("wildcard", ["ANY", "_"])
    def test_wildcard_target(self, wildcard):
        g = builders.sales_graph()
        typed = Pattern([chain("Customer", "c", hop("Bought>", "Product", "p"))])
        anyp = Pattern([chain("Customer", "c", hop("Bought>", wildcard, "p"))])
        _, want = table_for(g, typed)
        _, got = table_for(g, anyp)
        assert self.triples(got, "c", "p") == self.triples(want, "c", "p")

    def test_repeated_variable_joins_a_kleene_hop(self):
        """x -(E>*)- y -(E>*)- x on a directed 3-cycle: every (x, y) pair
        closes, and the second hop never rebinds x to another vertex."""
        g = builders.cycle_graph(3)
        pattern = Pattern(
            [Chain(VertexSpec("V", "x"), [hop("E>*", "V", "y"), hop("E>*", "V", "x")])]
        )
        _, table = table_for(g, pattern)
        assert sorted(self.triples(table, "x", "y")) == [
            (x, y, 1) for x in range(3) for y in range(3)
        ]

    def test_edge_filter_runs_per_crossing(self, monkeypatch):
        """Edges are per-row bindings: the same Bought edge crossed from
        three rows is filtered three times."""
        g = builders.sales_graph()
        pattern = Pattern([chain(
            "Product", "p",
            hop("<Bought", "Customer", "c"),
            hop("Bought>", "Product", "q", edge_var="b"),
        )])
        keep, calls = self.counting_filter(
            monkeypatch, "b", lambda e: e["quantity"] > 1
        )
        ctx = QueryContext(g)
        table = evaluate_pattern(
            ctx, pattern, EngineMode.counting(), var_filters={"b": [keep]}
        )
        bought = {c: g.outdegree(c, "Bought") for c in ("c0", "c1", "c2", "c3")}
        assert len(calls) == sum(d * d for d in bought.values()) == 21
        assert len(set(calls)) == 9
        b = table.slot("b")
        assert table.rows and all(values[b]["quantity"] > 1 for values, _ in table.rows)

    def test_raising_filter_surfaces_on_first_encounter(self, monkeypatch):
        g = builders.sales_graph()
        pattern = Pattern([chain("Customer", "c", hop("Bought>", "Product", "p"))])

        def verdict(v):
            if v.vid == "p3":
                raise ValueError("no verdict for p3")
            return True

        keep, calls = self.counting_filter(monkeypatch, "p", verdict)
        ctx = QueryContext(g)
        for _ in range(2):  # a failure is never remembered as a verdict
            del calls[:]
            with pytest.raises(QueryRuntimeError, match="no verdict for p3"):
                evaluate_pattern(
                    ctx, pattern, EngineMode.counting(), var_filters={"p": [keep]}
                )
            assert calls == ["p0", "p1", "p3"]

    def test_reversed_plan_extends_rows_the_same_way(self, monkeypatch):
        """Enumeration with a pinned target expands from the target side;
        rows, order and multiplicities match the forward counting plan."""
        g = builders.diamond_chain(4)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        keep, _ = self.counting_filter(
            monkeypatch, "t", lambda v: v.vid in ("v2", "v4")
        )
        ctx = QueryContext(g)
        forward = evaluate_pattern(
            ctx, pattern, EngineMode.counting(), var_filters={"t": [keep]}
        )
        with collect() as col:
            reversed_ = evaluate_pattern(
                ctx,
                pattern,
                EngineMode.enumeration(PathSemantics.ALL_SHORTEST),
                var_filters={"t": [keep]},
            )
        assert col.counter("planner.hops_reversed") == 1
        assert self.triples(reversed_, "s", "t") == self.triples(forward, "s", "t")
        assert ("v0", "v4", 16) in self.triples(forward, "s", "t")
