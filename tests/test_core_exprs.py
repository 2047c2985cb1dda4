"""Tests for the expression AST and its closures."""

import pytest

from repro.accum import SumAccum
from repro.compile import CompileStats
from repro.compile.exprc import compile_closure
from repro.core import (
    AggCall,
    ArrowExpr,
    AttrRef,
    Binary,
    Call,
    CaseExpr,
    EvalEnv,
    GlobalAccumRef,
    Literal,
    Method,
    NameRef,
    QueryContext,
    TupleExpr,
    Unary,
    VertexAccumRef,
    register_function,
)
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.exprs import (
    Scope,
    contains_aggregate,
    primed_accum_names,
    referenced_names,
)
from repro.errors import QueryRuntimeError
from repro.graph import Graph


class Named:
    """An environment whose row slots are named by ``row``'s keys:
    :meth:`ev` lowers an expression under the scope naming them (and
    ``locals_``) and runs the closure once on that environment."""

    def __init__(self, ctx, row=None, locals_=None, primed=None):
        row = row or {}
        self.scope = Scope(row, locals_ or ())
        self.env = EvalEnv(ctx, tuple(row.values()), locals_, primed)

    def ev(self, expr):
        return compile_closure(expr, None, self.scope)[0](self.env)


@pytest.fixture
def ctx():
    g = Graph()
    g.add_vertex(1, "V", name="one", weight=2.5)
    g.add_vertex(2, "V", name="two", weight=1.0)
    g.add_edge(1, 2, "E", w=3)
    context = QueryContext(g, params={"k": 10})
    context.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
    context.declare(AccumDecl("score", VERTEX, lambda: SumAccum(0.0)))
    return context


@pytest.fixture
def env(ctx):
    return Named(ctx, row={"v": ctx.graph.vertex(1)}, locals_={"x": 5})


class TestNameResolution:
    def test_local_wins(self, ctx):
        env = Named(ctx, row={"x": ctx.graph.vertex(1)}, locals_={"x": 99})
        assert env.ev(NameRef("x")) == 99

    def test_row_var(self, env, ctx):
        assert env.ev(NameRef("v")) is ctx.graph.vertex(1)

    def test_param(self, env):
        assert env.ev(NameRef("k")) == 10

    def test_unknown(self, env):
        with pytest.raises(QueryRuntimeError, match="unknown name"):
            env.ev(NameRef("nope"))


class TestAttrAndAccumRefs:
    def test_vertex_attr(self, env):
        assert env.ev(AttrRef(NameRef("v"), "name")) == "one"

    def test_missing_attr(self, env):
        with pytest.raises(QueryRuntimeError):
            env.ev(AttrRef(NameRef("v"), "nope"))

    def test_attr_on_scalar_rejected(self, env):
        with pytest.raises(QueryRuntimeError):
            env.ev(AttrRef(Literal(5), "x"))

    def test_global_accum(self, ctx):
        ctx.global_accum("total").combine(4.0)
        assert Named(ctx).ev(GlobalAccumRef("total")) == 4.0

    def test_vertex_accum_default(self, env):
        assert env.ev(VertexAccumRef(NameRef("v"), "score")) == 0.0

    def test_vertex_accum_value(self, ctx, env):
        ctx.vertex_accum("score", 1).combine(7.0)
        assert env.ev(VertexAccumRef(NameRef("v"), "score")) == 7.0

    def test_vertex_accum_through_non_vertex(self, env):
        with pytest.raises(QueryRuntimeError):
            env.ev(VertexAccumRef(Literal(3), "score"))

    def test_primed_read_uses_snapshot(self, ctx):
        ctx.vertex_accum("score", 1).combine(5.0)
        snap = {"score": ctx.snapshot_vertex_accum("score")}
        ctx.vertex_accum("score", 1).combine(100.0)
        env = Named(ctx, row={"v": ctx.graph.vertex(1)}, primed=snap)
        assert env.ev(VertexAccumRef(NameRef("v"), "score", primed=True)) == 5.0
        assert env.ev(VertexAccumRef(NameRef("v"), "score")) == 105.0

    def test_primed_read_default_for_untouched_vertex(self, ctx):
        snap = {"score": ctx.snapshot_vertex_accum("score")}
        env = Named(ctx, row={"v": ctx.graph.vertex(2)}, primed=snap)
        assert env.ev(VertexAccumRef(NameRef("v"), "score", primed=True)) == 0.0

    def test_primed_without_snapshot_raises(self, env):
        with pytest.raises(QueryRuntimeError, match="snapshot"):
            env.ev(VertexAccumRef(NameRef("v"), "score", primed=True))


class TestOperators:
    def test_arithmetic(self, env):
        expr = Binary("+", Binary("*", Literal(2), Literal(3)), Literal(1))
        assert env.ev(expr) == 7

    def test_comparison_aliases(self, env):
        assert env.ev(Binary("<>", Literal(1), Literal(2))) is True
        assert env.ev(Binary("!=", Literal(1), Literal(1))) is False

    def test_and_short_circuits(self, env):
        boom = Call("log", [Literal(-1)])  # would raise if evaluated
        assert env.ev(Binary("AND", Literal(False), boom)) is False

    def test_or_short_circuits(self, env):
        boom = Call("log", [Literal(-1)])
        assert env.ev(Binary("OR", Literal(True), boom)) is True

    def test_null_arithmetic_raises(self, env):
        with pytest.raises(QueryRuntimeError, match="NULL"):
            env.ev(Binary("+", Literal(None), Literal(1)))

    def test_division_by_zero(self, env):
        with pytest.raises(QueryRuntimeError, match="division by zero"):
            env.ev(Binary("/", Literal(1), Literal(0)))

    def test_in_operator(self, env):
        assert env.ev(Binary("IN", Literal(2), Literal((1, 2, 3)))) is True
        assert env.ev(Binary("NOT IN", Literal(5), Literal((1, 2)))) is True

    def test_in_vertex_set(self, ctx):
        from repro.core.values import VertexSet

        vset = VertexSet(ctx.graph, [ctx.graph.vertex(1)])
        ctx.set_vertex_set("S", vset)
        env = Named(ctx, row={"v": ctx.graph.vertex(1)})
        assert env.ev(Binary("IN", NameRef("v"), NameRef("S"))) is True

    def test_unary(self, env):
        assert env.ev(Unary("-", Literal(3))) == -3
        assert env.ev(Unary("NOT", Literal(False))) is True

    def test_vertex_equality(self, ctx):
        v1, v2 = ctx.graph.vertex(1), ctx.graph.vertex(2)
        env = Named(ctx, row={"a": v1, "b": v2, "c": v1})
        assert env.ev(Binary("==", NameRef("a"), NameRef("c"))) is True
        assert env.ev(Binary("!=", NameRef("a"), NameRef("b"))) is True


class TestCallsAndMethods:
    def test_log(self, env):
        assert env.ev(Call("log", [Literal(1)])) == 0.0

    def test_unknown_function(self, env):
        with pytest.raises(QueryRuntimeError, match="unknown function"):
            env.ev(Call("frobnicate", []))

    def test_bad_arguments_wrapped(self, env):
        with pytest.raises(QueryRuntimeError, match="error in"):
            env.ev(Call("log", [Literal("x")]))

    def test_date_helpers(self, env):
        assert env.ev(Call("year", [Literal(20110305)])) == 2011
        assert env.ev(Call("month", [Literal(20110305)])) == 3
        assert env.ev(Call("day", [Literal(20110305)])) == 5

    def test_outdegree_method(self, env):
        assert env.ev(Method(NameRef("v"), "outdegree", [])) == 1

    def test_outdegree_with_type(self, env):
        assert env.ev(Method(NameRef("v"), "outdegree", [Literal("E")])) == 1
        assert env.ev(Method(NameRef("v"), "outdegree", [Literal("F")])) == 0

    def test_id_and_type(self, env):
        assert env.ev(Method(NameRef("v"), "id", [])) == 1
        assert env.ev(Method(NameRef("v"), "type", [])) == "V"

    def test_unknown_vertex_method(self, env):
        with pytest.raises(QueryRuntimeError):
            env.ev(Method(NameRef("v"), "fly", []))

    def test_size_on_collection(self, env):
        assert env.ev(Method(Literal((1, 2, 3)), "size", [])) == 3

    def test_contains(self, env):
        assert env.ev(Method(Literal({1, 2}), "contains", [Literal(1)])) is True

    def test_register_function(self, env):
        register_function("triple", lambda x: 3 * x)
        assert env.ev(Call("triple", [Literal(4)])) == 12


class TestCompositeExprs:
    def test_tuple(self, env):
        assert env.ev(TupleExpr([Literal(1), Literal("a")])) == (1, "a")

    def test_arrow(self, env):
        expr = ArrowExpr([Literal("k")], [Literal(1), Literal(2)])
        assert env.ev(expr) == (("k",), (1, 2))

    def test_case(self, env):
        expr = CaseExpr(
            [(Literal(False), Literal("no")), (Literal(True), Literal("yes"))],
            Literal("default"),
        )
        assert env.ev(expr) == "yes"

    def test_case_default(self, env):
        expr = CaseExpr([(Literal(False), Literal(1))], Literal(9))
        assert env.ev(expr) == 9

    def test_case_no_default_is_none(self, env):
        assert env.ev(CaseExpr([(Literal(False), Literal(1))], None)) is None


class TestTupleExpr:
    """A tuple literal's closure builds a triple in one display and any
    other arity in a loop; either way its items run once each, left to
    right, and the first item that raises is the error."""

    @staticmethod
    def _lowered(ctx, expr, stats=None):
        fn, const = compile_closure(expr, stats, Scope(["v"]))
        env = EvalEnv(ctx)
        env.row = (ctx.graph.vertex(1),)
        return fn, const, env

    @staticmethod
    def _probe(seen):
        register_function("_tuple_probe", lambda i: seen.append(i) or i)
        return lambda i: Call("_tuple_probe", [Literal(i)])

    @pytest.mark.parametrize("arity", range(6))
    def test_items_run_once_each_left_to_right(self, ctx, arity):
        seen = []
        probe = self._probe(seen)
        fn, const, env = self._lowered(ctx, TupleExpr([probe(i) for i in range(arity)]))
        assert fn(env) == tuple(range(arity))
        assert seen == list(range(arity))
        assert const is (arity == 0)

    @pytest.mark.parametrize("arity", range(1, 6))
    def test_the_first_raising_item_is_the_error(self, ctx, arity):
        for bad in range(arity):
            seen = []
            probe = self._probe(seen)
            items = [probe(i) for i in range(arity)]
            items[bad] = AttrRef(NameRef("v"), f"missing{bad}")
            if bad + 1 < arity:
                items[bad + 1] = AttrRef(NameRef("v"), "later")
            fn, _, env = self._lowered(ctx, TupleExpr(items))
            with pytest.raises(QueryRuntimeError, match=f"'missing{bad}'"):
                fn(env)
            assert seen == list(range(bad))

    def test_nested_tuples(self, ctx):
        expr = TupleExpr([
            AttrRef(NameRef("v"), "name"),
            TupleExpr([Literal(1), TupleExpr([NameRef("v")])]),
            Literal(2.5),
        ])
        fn, const, env = self._lowered(ctx, expr)
        assert fn(env) == ("one", (1, (ctx.graph.vertex(1),)), 2.5)
        assert not const

    @pytest.mark.parametrize("arity", [1, 3, 5])
    def test_constant_tuples_fold_once(self, ctx, arity):
        stats = CompileStats()
        items = [TupleExpr([Literal(i), Literal("x")]) for i in range(arity)]
        fn, const, env = self._lowered(ctx, TupleExpr(items), stats)
        assert const and stats.constants_folded == 1
        assert fn(env) == tuple((i, "x") for i in range(arity))

    def test_a_constant_tuple_that_raises_is_not_folded(self, ctx):
        stats = CompileStats()
        expr = TupleExpr([Literal(1), Binary("/", Literal(1), Literal(0)), Literal(2)])
        fn, const, env = self._lowered(ctx, expr, stats)
        assert not const and stats.constants_folded == 0
        with pytest.raises(QueryRuntimeError, match="division by zero"):
            fn(env)

    #: ``var.attr`` items over three slots: a vertex, an edge and a
    #: relational-table row, with an attribute each of them lacks.
    READS = [("v", "name"), ("e", "w"), ("v", "weight"), ("v", "missing"),
             ("e", "missing"), ("r", "name"), ("r", "k"), ("r", "missing")]

    @pytest.mark.parametrize("arity", range(1, 6))
    def test_attribute_reads_of_slots_match_their_item_closures(self, ctx, arity):
        """A display whose items all read an attribute of a pattern
        variable reads the row directly; it returns what its item closures
        return, and raises what the first of them that raises raises — a
        missing attribute on a vertex or an edge, a table-row slot and a
        NULL included."""
        graph = ctx.graph
        row = {"v": graph.vertex(1), "e": next(graph.edges("E")), "r": {"name": "t", "k": None}}
        named = Named(ctx, row=row)
        for start in range(len(self.READS)):
            items = [AttrRef(NameRef(var), attr)
                     for var, attr in (self.READS * 2)[start:start + arity]]
            try:
                expected = tuple(named.ev(item) for item in items)
            except QueryRuntimeError as exc:
                with pytest.raises(QueryRuntimeError) as raised:
                    named.ev(TupleExpr(items))
                assert str(raised.value) == str(exc)
            else:
                assert named.ev(TupleExpr(items)) == expected


class TestAggCall:
    def test_direct_eval_rejected(self, env):
        with pytest.raises(QueryRuntimeError, match="outside"):
            env.ev(AggCall("count", None))

    def test_apply_count_weighted(self):
        assert AggCall("count", None).apply([(1, 3), (1, 4)]) == 7

    def test_apply_sum_weighted(self):
        assert AggCall("sum", Literal(0)).apply([(2, 3), (5, 1)]) == 11

    def test_apply_avg_weighted(self):
        assert AggCall("avg", Literal(0)).apply([(10, 1), (0, 3)]) == 2.5

    def test_apply_min_max(self):
        assert AggCall("min", Literal(0)).apply([(5, 1), (2, 9)]) == 2
        assert AggCall("max", Literal(0)).apply([(5, 1), (2, 9)]) == 5

    def test_nulls_skipped(self):
        assert AggCall("sum", Literal(0)).apply([(None, 5)]) is None
        assert AggCall("min", Literal(0)).apply([(None, 1), (3, 1)]) == 3

    def test_distinct(self):
        assert AggCall("count", Literal(0), distinct=True).apply(
            [(1, 5), (1, 2), (2, 9)]
        ) == 2

    def test_unknown_func(self):
        with pytest.raises(QueryRuntimeError):
            AggCall("median", None)


class TestAnalysis:
    def test_referenced_names(self):
        expr = Binary("+", NameRef("a"), AttrRef(NameRef("b"), "x"))
        assert set(referenced_names(expr)) == {"a", "b"}

    def test_primed_names(self):
        expr = Binary(
            "-",
            VertexAccumRef(NameRef("v"), "score", primed=True),
            GlobalAccumRef("g", primed=True),
        )
        assert set(primed_accum_names(expr)) == {"score", "@@g"}

    def test_contains_aggregate(self):
        assert contains_aggregate(Binary("+", AggCall("count", None), Literal(1)))
        assert not contains_aggregate(Binary("+", Literal(1), Literal(2)))


class TestStringFunctions:
    @pytest.mark.parametrize(
        "name,args,expected",
        [
            ("trim", ["  x  "], "x"),
            ("ltrim", ["  x"], "x"),
            ("rtrim", ["x  "], "x"),
            ("substr", ["hello", 1, 3], "ell"),
            ("substr", ["hello", 2], "llo"),
            ("find", ["hello", "ll"], 2),
            ("find", ["hello", "zz"], -1),
            ("replace", ["aba", "a", "c"], "cbc"),
            ("contains", ["hello", "ell"], True),
            ("starts_with", ["hello", "he"], True),
            ("ends_with", ["hello", "lo"], True),
            ("split", ["a,b,c", ","], ("a", "b", "c")),
            ("concat", ["a", 1, "b"], "a1b"),
            ("upper", ["abc"], "ABC"),
        ],
    )
    def test_string_builtin(self, ctx, name, args, expected):
        expr = Call(name, [Literal(a) for a in args])
        assert Named(ctx).ev(expr) == expected
