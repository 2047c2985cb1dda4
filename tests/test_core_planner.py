"""Tests for the query planner: filter pushdown and hop reversal."""

import pytest

from repro.core import (
    AttrRef,
    Binary,
    EngineMode,
    Literal,
    NameRef,
    QueryContext,
    VertexAccumRef,
    chain,
    evaluate_pattern,
    hop,
)
from repro.core.pattern import Pattern
from repro.core.planner import (
    push_down_filters,
    reverse_darpe,
    split_conjuncts,
)
from repro.darpe import CompiledDarpe, parse_darpe
from repro.graph import builders
from repro.paths import PathSemantics


def name_eq(var, attr, value):
    return Binary("==", AttrRef(NameRef(var), attr), Literal(value))


class TestSplitAndPushdown:
    def test_split_and_chain(self):
        expr = Binary("AND", Binary("AND", Literal(1), Literal(2)), Literal(3))
        assert len(split_conjuncts(expr)) == 3

    def test_split_none(self):
        assert split_conjuncts(None) == []

    def test_or_not_split(self):
        expr = Binary("OR", Literal(1), Literal(2))
        assert len(split_conjuncts(expr)) == 1

    def test_single_var_conjunct_moves(self):
        where = Binary(
            "AND", name_eq("s", "name", "v0"), Binary("<>", NameRef("s"), NameRef("t"))
        )
        per_var, residual = push_down_filters(where, {"s", "t"})
        assert set(per_var) == {"s"}
        assert len(residual) == 1

    def test_param_reference_is_constant(self):
        # srcName is not a pattern var: the conjunct still pins s only.
        where = Binary("==", AttrRef(NameRef("s"), "name"), NameRef("srcName"))
        per_var, residual = push_down_filters(where, {"s", "t"})
        assert set(per_var) == {"s"}
        assert residual == []

    def test_primed_reads_stay_residual(self):
        where = Binary(">", VertexAccumRef(NameRef("s"), "x", primed=True), Literal(0))
        per_var, residual = push_down_filters(where, {"s"})
        assert per_var == {}
        assert len(residual) == 1


class TestReverseDarpe:
    @pytest.mark.parametrize(
        "forward,expected",
        [
            ("E>", "<E"),
            ("<E", "E>"),
            ("E", "E"),
            ("E>.F>", "<F.<E"),
            ("E>|<F", "<E|F>"),
            ("(E>.F>)*", "(<F.<E)*"),
            ("E>*2..4", "<E*2..4"),
            ("E>.(F>|<G)*.H.<J", "J>.H.(<F|G>)*.<E"),
        ],
    )
    def test_reversal(self, forward, expected):
        assert repr(reverse_darpe(parse_darpe(forward))) == repr(
            parse_darpe(expected)
        )

    def test_double_reverse_is_identity(self):
        for text in ("E>", "E>.(F>|<G)*.H.<J", "A>.B>|C>.D>"):
            ast = parse_darpe(text)
            assert reverse_darpe(reverse_darpe(ast)) == ast

    def test_reversed_matches_reversed_paths(self):
        """If p matches d from s to t, reverse(p) matches reverse(d)."""
        g = builders.mixed_kind_graph()
        d = CompiledDarpe.parse("E>.(F>|<G)*.H.<J")
        rev = CompiledDarpe(reverse_darpe(d.ast))
        from repro.paths import single_pair_sdmc

        assert single_pair_sdmc(g, "a", "f", d) == single_pair_sdmc(
            g, "f", "a", rev
        )


class TestPushdownInEvaluation:
    def test_seed_restriction(self):
        g = builders.diamond_chain(5)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        ctx = QueryContext(g)
        filtered = evaluate_pattern(
            ctx,
            pattern,
            EngineMode.counting(),
            var_filters={"s": [name_eq("s", "name", "v0")]},
        )
        s = filtered.slot("s")
        assert {values[s].vid for values, _ in filtered.rows} == {"v0"}

    def test_edge_filter_applied(self):
        g = builders.sales_graph()
        pattern = Pattern(
            [chain("Customer", "c", hop("Bought>", "Product", "p", edge_var="b"))]
        )
        ctx = QueryContext(g)
        table = evaluate_pattern(
            ctx,
            pattern,
            EngineMode.counting(),
            var_filters={
                "b": [Binary(">", AttrRef(NameRef("b"), "quantity"), Literal(1))]
            },
        )
        b = table.slot("b")
        assert all(values[b]["quantity"] > 1 for values, _ in table.rows)

    def test_reversal_keeps_enumeration_tractable_in_n(self):
        """On the full 30-diamond graph, counting paths to v10 under trail
        semantics must cost ~2^10 — NOT ~2^30 — thanks to target-side
        expansion.  A budget far below 2^30 proves the plan was used."""
        g = builders.diamond_chain(30)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        ctx = QueryContext(g)
        mode = EngineMode.enumeration(
            PathSemantics.NO_REPEATED_EDGE, budget=200_000
        )
        table = evaluate_pattern(
            ctx,
            pattern,
            mode,
            var_filters={
                "s": [name_eq("s", "name", "v0")],
                "t": [name_eq("t", "name", "v10")],
            },
        )
        t = table.slot("t")
        found = [mult for values, mult in table.rows if values[t].vid == "v10"]
        assert found[0] == 1024

    def test_forward_used_when_target_unpinned(self):
        g = builders.diamond_chain(6)
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        ctx = QueryContext(g)
        mode = EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE)
        table = evaluate_pattern(
            ctx, pattern, mode,
            var_filters={"s": [name_eq("s", "name", "v0")]},
        )
        t = table.slot("t")
        by_target = {values[t].vid: mult for values, mult in table.rows}
        assert by_target["v6"] == 64

    def test_pushdown_equivalent_to_post_filter(self):
        """Pushdown must never change results, only cost: pin s to vertex
        1 both ways and compare the full binding tables."""
        from repro.core.exprs import EvalEnv, Method, Scope

        g = builders.example9_graph()
        pattern = Pattern([chain("V", "s", hop("E>*", "V", "t"))])
        ctx = QueryContext(g)
        mode = EngineMode.counting()
        pin = Binary("==", Method(NameRef("s"), "id", []), Literal(1))

        pushed = evaluate_pattern(ctx, pattern, mode, var_filters={"s": [pin]})
        full = evaluate_pattern(ctx, pattern, mode)
        pinned = pin.closure(Scope(full.variables))[0]
        post = [row for row in full.rows if pinned(EvalEnv(ctx, row[0]))]
        s, t = full.slot("s"), full.slot("t")

        def pairs(rows):
            return sorted(
                (values[s].vid, values[t].vid, mult) for values, mult in rows
            )

        assert pairs(pushed.rows) == pairs(post)
