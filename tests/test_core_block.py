"""Tests for SELECT-block execution: snapshot ACCUM semantics,
POST_ACCUM, multi-output fragments, GROUP BY / ORDER BY / LIMIT."""

import pytest

from repro.accum import ListAccum, SumAccum
from repro.core import (
    AccumTarget,
    AccumUpdate,
    AggCall,
    AttrRef,
    Binary,
    EngineMode,
    GlobalAccumRef,
    Literal,
    LocalAssign,
    NameRef,
    OutputColumn,
    OutputFragment,
    QueryContext,
    SelectBlock,
    VertexAccumRef,
    chain,
    hop,
)
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.pattern import Pattern
from repro.errors import TractabilityError
from repro.graph import builders


def sales_ctx():
    g = builders.sales_graph()
    ctx = QueryContext(g)
    ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
    ctx.declare(AccumDecl("spent", VERTEX, lambda: SumAccum(0.0)))
    return ctx


def purchase_pattern():
    return Pattern(
        [chain("Customer", "c", hop("Bought>", "Product", "p", edge_var="b"))]
    )


def spend_expr():
    return Binary(
        "*", AttrRef(NameRef("b"), "quantity"), AttrRef(NameRef("p"), "price")
    )


class TestAccumPhase:
    def test_global_and_vertex_accumulation(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[
                AccumUpdate(AccumTarget("total"), "+=", spend_expr()),
                AccumUpdate(AccumTarget("spent", NameRef("c")), "+=", spend_expr()),
            ],
        )
        result = block.execute(ctx, EngineMode.counting())
        # c0: 50+40+80=170, c1: 20+30=50, c2: 100+15=115, c3: 160+10=170
        assert ctx.global_accum("total").value == pytest.approx(505.0)
        assert ctx.vertex_accum("spent", "c0").value == pytest.approx(170.0)
        assert len(result) == 4  # all customers bought something

    def test_local_variables_per_row(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[
                LocalAssign("amount", spend_expr()),
                AccumUpdate(AccumTarget("total"), "+=", NameRef("amount")),
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("total").value == pytest.approx(505.0)

    def test_where_filters_before_accum(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            where=Binary("==", AttrRef(NameRef("p"), "category"), Literal("toy")),
            accum=[AccumUpdate(AccumTarget("total"), "+=", Literal(1.0))],
        )
        result = block.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("total").value == 7.0  # 7 toy purchases
        assert len(result) == 4

    def test_snapshot_reads_during_accum(self):
        """ACCUM reads see block-entry values, not the in-flight inputs."""
        ctx = sales_ctx()
        ctx.global_accum("total").assign(100.0)
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[
                AccumUpdate(AccumTarget("total"), "+=", GlobalAccumRef("total"))
            ],
        )
        block.execute(ctx, EngineMode.counting())
        # 9 rows, each contributing the snapshot value 100.
        assert ctx.global_accum("total").value == 100.0 + 9 * 100.0

    def test_assignment_in_accum_applies_at_reduce(self):
        ctx = sales_ctx()
        ctx.global_accum("total").assign(5.0)
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[
                AccumUpdate(AccumTarget("total"), "=", Literal(0.0)),
                AccumUpdate(AccumTarget("total"), "+=", Literal(1.0)),
            ],
        )
        block.execute(ctx, EngineMode.counting())
        # assignments land first, then the 9 combines
        assert ctx.global_accum("total").value == 9.0

    def test_multiplicity_weighted_accumulation(self):
        """The Qn mechanism: t.@pathCount += 1 over 2^n-multiplicity rows."""
        g = builders.diamond_chain(10)
        ctx = QueryContext(g)
        ctx.declare(AccumDecl("pathCount", VERTEX, lambda: SumAccum(0, int)))
        block = SelectBlock(
            pattern=Pattern([chain("V", "s", hop("E>*", "V", "t"))]),
            select_var="t",
            where=Binary(
                "AND",
                Binary("==", AttrRef(NameRef("s"), "name"), Literal("v0")),
                Binary("==", AttrRef(NameRef("t"), "name"), Literal("v10")),
            ),
            accum=[AccumUpdate(AccumTarget("pathCount", NameRef("t")), "+=", Literal(1))],
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.vertex_accum("pathCount", "v10").value == 1024


class TestPostAccum:
    def test_runs_once_per_distinct_vertex(self):
        """9 purchase rows over 4 customers: a POST_ACCUM incrementing a
        per-customer accumulator must fire once per customer."""
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[AccumUpdate(AccumTarget("spent", NameRef("c")), "+=", spend_expr())],
            post_accum=[
                AccumUpdate(AccumTarget("total"), "+=", Literal(1.0))
            ],
        )
        block.execute(ctx, EngineMode.counting())
        # statement references no vertex var: exactly one execution
        assert ctx.global_accum("total").value == 1.0

    def test_per_vertex_statement(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            post_accum=[
                # references c (via its accumulator), so runs per customer
                AccumUpdate(
                    AccumTarget("total"),
                    "+=",
                    Binary(
                        "+",
                        Literal(1.0),
                        Binary(
                            "*",
                            Literal(0.0),
                            VertexAccumRef(NameRef("c"), "spent"),
                        ),
                    ),
                )
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("total").value == 4.0  # once per customer

    def test_assignment_immediate_then_read(self):
        """PageRank's pattern: an = in POST_ACCUM is visible to the next
        statement for the same vertex."""
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            post_accum=[
                AccumUpdate(AccumTarget("spent", NameRef("c")), "=", Literal(2.0)),
                AccumUpdate(
                    AccumTarget("total"),
                    "+=",
                    VertexAccumRef(NameRef("c"), "spent"),
                ),
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("total").value == 8.0  # 4 customers * 2.0

    def test_primed_reads_see_block_entry(self):
        ctx = sales_ctx()
        for cid in ("c0", "c1", "c2", "c3"):
            ctx.vertex_accum("spent", cid).assign(1.0)
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[AccumUpdate(AccumTarget("spent", NameRef("c")), "+=", spend_expr())],
            post_accum=[
                AccumUpdate(
                    AccumTarget("total"),
                    "+=",
                    VertexAccumRef(NameRef("c"), "spent", primed=True),
                )
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("total").value == 4.0  # pre-ACCUM values


class TestOutputs:
    def test_vertex_set_result_distinct(self):
        ctx = sales_ctx()
        block = SelectBlock(pattern=purchase_pattern(), select_var="p")
        result = block.execute(ctx, EngineMode.counting())
        assert len(result) == 5  # distinct products bought

    def test_order_by_and_limit_on_vertex_set(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="p",
            order_by=[(AttrRef(NameRef("p"), "price"), True)],
            limit=Literal(2),
        )
        result = block.execute(ctx, EngineMode.counting())
        prices = [v["price"] for v in result]
        assert prices == [80.0, 50.0]

    def test_fragment_distinct_projection(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            fragments=[
                OutputFragment(
                    [OutputColumn(AttrRef(NameRef("c"), "name"), "name")], "Names"
                )
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert sorted(ctx.table("Names").column("name")) == [
            "alice",
            "bob",
            "carol",
            "dave",
        ]

    def test_multi_output_fragments(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            fragments=[
                OutputFragment([OutputColumn(AttrRef(NameRef("c"), "name"))], "A"),
                OutputFragment([OutputColumn(AttrRef(NameRef("p"), "name"))], "B"),
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert len(ctx.table("A")) == 4
        assert len(ctx.table("B")) == 5

    def test_group_by_aggregation(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            fragments=[
                OutputFragment(
                    [
                        OutputColumn(AttrRef(NameRef("p"), "category"), "cat"),
                        OutputColumn(AggCall("count", None), "n"),
                        OutputColumn(
                            AggCall("sum", AttrRef(NameRef("b"), "quantity")), "qty"
                        ),
                    ],
                    "PerCat",
                )
            ],
            group_by=[AttrRef(NameRef("p"), "category")],
        )
        block.execute(ctx, EngineMode.counting())
        rows = {r[0]: (r[1], r[2]) for r in ctx.table("PerCat")}
        assert rows["toy"] == (7, 11)
        assert rows["kitchen"] == (2, 3)

    def test_having_filters_groups(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            fragments=[
                OutputFragment(
                    [
                        OutputColumn(AttrRef(NameRef("p"), "category"), "cat"),
                        OutputColumn(AggCall("count", None), "n"),
                    ],
                    "Big",
                )
            ],
            group_by=[AttrRef(NameRef("p"), "category")],
            having=Binary(">", AggCall("count", None), Literal(2)),
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.table("Big").column("cat") == ["toy"]

    def test_aggregate_without_group_by_single_group(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            fragments=[
                OutputFragment([OutputColumn(AggCall("count", None), "n")], "T")
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.table("T").rows == [(9,)]

    def test_order_by_on_fragment(self):
        ctx = sales_ctx()
        block = SelectBlock(
            pattern=purchase_pattern(),
            fragments=[
                OutputFragment(
                    [OutputColumn(AttrRef(NameRef("p"), "name"), "name")], "Products"
                )
            ],
            order_by=[(AttrRef(NameRef("p"), "price"), False)],
            limit=Literal(3),
        )
        block.execute(ctx, EngineMode.counting())
        assert ctx.table("Products").column("name") == ["puzzle", "kite", "doll"]

    #: name -> w, in insertion order; NaN orders with nothing.
    NAN_WEIGHTS = {
        "a": 3.0, "n1": float("nan"), "b": 1.0, "c": 2.0, "d": 0.5, "n2": float("nan"),
    }

    @pytest.mark.parametrize("desc,expected", [
        (False, ["d", "b", "c", "a", "n1", "n2"]),
        (True, ["a", "c", "b", "d", "n1", "n2"]),
    ])
    def test_order_by_puts_nan_last(self, desc, expected):
        """NaN keys sort last under ASC and DESC, like None, and tie with
        each other in their input order — on both result kinds."""
        from repro.graph import Graph

        g = Graph()
        for name, w in self.NAN_WEIGHTS.items():
            g.add_vertex(name, "S", name=name, w=w)
        block = SelectBlock(
            pattern=Pattern([chain("S", "s")]),
            select_var="s",
            fragments=[
                OutputFragment([OutputColumn(AttrRef(NameRef("s"), "name"), "name")], "T")
            ],
            order_by=[(AttrRef(NameRef("s"), "w"), desc)],
        )
        ctx = QueryContext(g)
        result = block.execute(ctx, EngineMode.counting())
        assert [v.vid for v in result] == expected
        assert ctx.table("T").column("name") == expected

    def test_nan_ties_fall_through_to_the_next_key(self):
        from repro.graph import Graph

        g = Graph()
        for name, w in self.NAN_WEIGHTS.items():
            g.add_vertex(name, "S", name=name, w=w)
        block = SelectBlock(
            pattern=Pattern([chain("S", "s")]),
            select_var="s",
            order_by=[
                (AttrRef(NameRef("s"), "w"), False),
                (AttrRef(NameRef("s"), "name"), True),
            ],
        )
        result = block.execute(QueryContext(g), EngineMode.counting())
        assert [v.vid for v in result] == ["d", "b", "c", "a", "n2", "n1"]


class TestTractabilityGuard:
    def test_order_dependent_accum_from_kleene_rejected(self):
        g = builders.diamond_chain(3)
        ctx = QueryContext(g)
        ctx.declare(AccumDecl("trace", VERTEX, ListAccum))
        block = SelectBlock(
            pattern=Pattern([chain("V", "s", hop("E>*", "V", "t"))]),
            select_var="t",
            accum=[
                AccumUpdate(AccumTarget("trace", NameRef("t")), "+=", Literal(1))
            ],
        )
        with pytest.raises(TractabilityError, match="tractable class"):
            block.execute(ctx, EngineMode.counting())

    def test_allowed_under_enumeration(self):
        from repro.paths import PathSemantics

        g = builders.diamond_chain(3)
        ctx = QueryContext(g)
        ctx.declare(AccumDecl("trace", VERTEX, ListAccum))
        block = SelectBlock(
            pattern=Pattern([chain("V", "s", hop("E>*", "V", "t"))]),
            select_var="t",
            where=Binary("==", AttrRef(NameRef("s"), "name"), Literal("v0")),
            accum=[
                AccumUpdate(AccumTarget("trace", NameRef("t")), "+=", Literal(1))
            ],
        )
        block.execute(
            ctx, EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE)
        )
        assert len(ctx.vertex_accum("trace", "v3").value) == 8

    def test_order_dependent_fine_without_kleene(self):
        ctx = sales_ctx()
        ctx.declare(AccumDecl("names", GLOBAL, ListAccum))
        block = SelectBlock(
            pattern=purchase_pattern(),
            select_var="c",
            accum=[
                AccumUpdate(
                    AccumTarget("names"), "+=", AttrRef(NameRef("c"), "name")
                )
            ],
        )
        block.execute(ctx, EngineMode.counting())
        assert len(ctx.global_accum("names").value) == 9
