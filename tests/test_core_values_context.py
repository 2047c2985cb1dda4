"""Tests for runtime value containers (Table, VertexSet) and the query
context (declarations, snapshots, lazy vertex-accumulator families)."""

import pytest

from repro.accum import MinAccum, SumAccum
from repro.core.context import GLOBAL, VERTEX, AccumDecl, QueryContext
from repro.core.query import Foreach
from repro.core.values import Table, VertexSet
from repro.errors import QueryCompileError, QueryRuntimeError
from repro.graph import builders


@pytest.fixture
def graph():
    return builders.sales_graph()


@pytest.fixture
def ctx(graph):
    context = QueryContext(graph)
    context.declare(AccumDecl("g", GLOBAL, lambda: SumAccum(0.0)))
    context.declare(AccumDecl("v", VERTEX, MinAccum))
    return context


class TestTable:
    def test_append_and_read(self):
        t = Table("T", ["a", "b"])
        t.append((1, "x"))
        t.append((2, "y"))
        assert len(t) == 2
        assert t.rows == [(1, "x"), (2, "y")]
        assert list(t.dicts()) == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        assert t.column("b") == ["x", "y"]

    def test_wrong_arity_rejected(self):
        t = Table("T", ["a"])
        with pytest.raises(QueryRuntimeError, match="columns"):
            t.append((1, 2))

    def test_unknown_column(self):
        t = Table("T", ["a"])
        with pytest.raises(QueryRuntimeError):
            t.column("z")

    def test_sort_and_truncate(self):
        t = Table("T", ["a"])
        for x in (3, 1, 2):
            t.append((x,))
        t.sort(key=lambda r: r[0])
        t.truncate(2)
        assert t.rows == [(1,), (2,)]


class TestVertexSet:
    def test_deduplicates_preserving_order(self, graph):
        c0 = graph.vertex("c0")
        c1 = graph.vertex("c1")
        vset = VertexSet(graph, [c0, c1, c0])
        assert len(vset) == 2
        assert vset.ids() == ["c0", "c1"]

    def test_contains_vertex_or_id(self, graph):
        vset = VertexSet(graph, [graph.vertex("c0")])
        assert "c0" in vset
        assert graph.vertex("c0") in vset
        assert "c1" not in vset

    def test_all_of_type(self, graph):
        assert len(VertexSet.all_of_type(graph, "Product")) == 5
        assert len(VertexSet.all_of_type(graph, None)) == graph.num_vertices


class TestQueryContext:
    def test_vertex_accums_lazy(self, ctx):
        assert list(ctx.vertex_accum_values("v")) == []
        ctx.vertex_accum("v", "c0").combine(3)
        assert dict(ctx.vertex_accum_values("v")) == {"c0": 3}

    def test_scope_confusion_messages(self, ctx):
        with pytest.raises(QueryRuntimeError, match="vertex accumulator"):
            ctx.global_accum("v")
        with pytest.raises(QueryRuntimeError, match="global accumulator"):
            ctx.vertex_accum("g", "c0")

    def test_unknown_accumulators(self, ctx):
        with pytest.raises(QueryRuntimeError):
            ctx.global_accum("nope")
        with pytest.raises(QueryRuntimeError):
            ctx.vertex_accum("nope", "c0")
        with pytest.raises(QueryRuntimeError):
            ctx.snapshot_vertex_accum("nope")

    def test_snapshot_is_value_copy(self, ctx):
        ctx.vertex_accum("v", "c0").combine(1)
        snap = ctx.snapshot_vertex_accum("v")
        ctx.vertex_accum("v", "c0").combine(0)
        assert snap == {"c0": 1}
        assert ctx.vertex_accum("v", "c0").value == 0

    def test_declaration_validation(self, ctx):
        with pytest.raises(QueryCompileError, match="prefix"):
            AccumDecl("@x", GLOBAL, MinAccum)
        with pytest.raises(QueryCompileError, match="scope"):
            AccumDecl("x", "cosmic", MinAccum)
        with pytest.raises(QueryCompileError, match="Accumulator"):
            AccumDecl("x", GLOBAL, lambda: 42)

    def test_names_listing(self, ctx):
        assert ctx.global_accum_names() == ("g",)
        assert ctx.vertex_accum_names() == ("v",)
        assert ctx.has_accum("g") and ctx.has_accum("v")
        assert not ctx.has_accum("other")

    def test_unknown_vertex_set_and_table(self, ctx):
        with pytest.raises(QueryRuntimeError):
            ctx.vertex_set("S")
        with pytest.raises(QueryRuntimeError):
            ctx.table("T")

    def test_unknown_param(self, ctx):
        with pytest.raises(QueryRuntimeError):
            ctx.param("k")


def lowered(stmt):
    """``stmt`` as the plan of a one-statement query runs it: lowered."""
    from repro.compile import compile_query
    from repro.core.query import Query

    return compile_query(Query("q", [stmt])).statements[0]


class TestForeachStatement:
    def test_iterates_vertex_set(self, ctx):
        from repro.core.exprs import NameRef
        from repro.core.query import GlobalAccumUpdate
        from repro.core.pattern import EngineMode

        ctx.set_vertex_set("S", VertexSet(ctx.graph, ctx.graph.vertices("Customer")))
        stmt = lowered(Foreach(
            "x",
            NameRef("S"),
            [GlobalAccumUpdate("g", "+=", __import__("repro").core.Literal(1.0))],
        ))
        stmt.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("g").value == 4.0

    def test_loop_var_restored(self, ctx):
        from repro.core.exprs import Literal, NameRef
        from repro.core.pattern import EngineMode

        ctx.params["x"] = "original"
        stmt = lowered(Foreach("x", Literal((1, 2, 3)), []))
        stmt.execute(ctx, EngineMode.counting())
        assert ctx.params["x"] == "original"

    def test_non_iterable_rejected(self, ctx):
        from repro.core.exprs import Literal
        from repro.core.pattern import EngineMode

        stmt = lowered(Foreach("x", Literal(42), []))
        with pytest.raises(QueryRuntimeError, match="iterable"):
            stmt.execute(ctx, EngineMode.counting())
