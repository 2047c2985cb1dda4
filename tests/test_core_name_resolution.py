"""Name resolution is decided at lowering and must read exactly as the
per-row lookup chain it replaced: an ACCUM-local shadows a pattern
variable, which shadows a query parameter, which shadows a vertex set,
which shadows a table; what no scope knows is looked up when (and only
when) a row evaluates it.
"""

import pytest

from repro.compile import compile_query
from repro.compile.exprc import compile_closure
from repro.core import QueryContext
from repro.core.exprs import EvalEnv, NameRef, Scope
from repro.core.values import Table, VertexSet
from repro.errors import QueryRuntimeError
from repro.graph import Graph
from repro.gsql import parse_query

#: The namespaces a bare name can live in, strongest first.
LEVELS = ("local", "pattern variable", "parameter", "vertex set", "table")


@pytest.fixture()
def graph():
    g = Graph(name="G")
    for vid, w in (("a", 1), ("b", 2), ("c", 3)):
        g.add_vertex(vid, "V", name=vid, w=w)
    g.add_edge("a", "b", "E")
    g.add_edge("a", "c", "E")
    g.add_edge("b", "c", "E")
    return g


def _world(graph, present):
    """A context, scope and environment in which ``x`` is bound at every
    level of ``present`` — to a value naming its level."""
    ctx = QueryContext(graph, {"x": "parameter"} if "parameter" in present else None)
    if "vertex set" in present:
        ctx.set_vertex_set("x", VertexSet(graph, [graph.vertex("a")]))
    if "table" in present:
        ctx.tables["x"] = Table("x", ["k"])
    scope = Scope(
        ("other", "x") if "pattern variable" in present else ("other",),
        ("x",),  # some statement of the clause may assign x ...
        ("x",) if "parameter" in present else (),
    )
    row = (None, "pattern variable") if "pattern variable" in present else (None,)
    env = EvalEnv(ctx, row)
    if "local" in present:
        env.locals["x"] = "local"  # ... and on this row one did
    return ctx, scope, env


class TestPrecedence:
    @pytest.mark.parametrize("strongest", range(len(LEVELS)))
    def test_the_strongest_binding_wins(self, graph, strongest):
        """Bind ``x`` at ``LEVELS[strongest:]``: the first of them wins."""
        ctx, scope, env = _world(graph, LEVELS[strongest:])
        value = NameRef("x").closure(scope)[0](env)
        want = LEVELS[strongest]
        if want == "vertex set":
            assert value is ctx.vertex_sets["x"]
        elif want == "table":
            assert value is ctx.tables["x"]
        else:
            assert value == want

    @pytest.mark.parametrize("strongest", range(len(LEVELS)))
    def test_one_shot_eval_resolves_the_same(self, graph, strongest):
        """A closure lowered once under the scope that names the given
        bindings (a row slot, a local), run on their environment."""
        present = LEVELS[strongest:]
        ctx, _, _ = _world(graph, present)
        row = {"x": "pattern variable"} if "pattern variable" in present else {}
        locals_ = {"x": "local"} if "local" in present else {}
        env = EvalEnv(ctx, tuple(row.values()), locals_)
        value = compile_closure(NameRef("x"), None, Scope(row, locals_))[0](env)
        want = LEVELS[strongest]
        if want in ("vertex set", "table"):
            assert value is (ctx.vertex_sets if want == "vertex set" else ctx.tables)["x"]
        else:
            assert value == want

    def test_unknown_everywhere(self, graph):
        _, scope, env = _world(graph, ())
        with pytest.raises(QueryRuntimeError, match=r"^unknown name 'x' in expression$"):
            NameRef("x").closure(scope)[0](env)

    def test_an_unassigned_local_does_not_shadow(self, graph):
        """A name the clause *may* assign still reads the pattern variable
        on a row where it has not been assigned."""
        _, scope, env = _world(graph, ("pattern variable",))
        assert "x" in scope.locals and not env.locals
        assert NameRef("x").closure(scope)[0](env) == "pattern variable"

    def test_a_declared_parameter_missing_at_run_time_falls_through(self, graph):
        ctx, _, env = _world(graph, ("vertex set",))
        scope = Scope(params=("x",))
        assert NameRef("x").closure(scope)[0](env) is ctx.vertex_sets["x"]


def run(text, graph, **params):
    return parse_query(text).run(graph, **params)


class TestThroughQueries:
    def test_local_shadows_the_pattern_variable_only_once_assigned(self, graph):
        """``t`` is a pattern variable and, from the second statement on,
        an ACCUM-local: the first statement reads the vertex, the third
        the number."""
        result = run("""CREATE QUERY q() FOR GRAPH G {
  SumAccum<int> @@before, @@after;
  S = {V.*};
  R = SELECT s FROM S:s -(E>)- V:t
      ACCUM @@before += t.w,
            INT t = 10,
            @@after += t;
  PRINT @@before, @@after;
}""", graph)
        assert result.printed[0] == {"before": 2 + 3 + 3, "after": 30}

    def test_pattern_variable_shadows_parameter_and_set(self, graph):
        """``V:t`` binds ``t`` per row although a parameter ``t`` exists
        (the pin only restricts which vertex it binds)."""
        result = run("""CREATE QUERY q(vertex<V> t) FOR GRAPH G {
  SumAccum<int> @@sum;
  S = {V.*};
  R = SELECT s FROM S:s -(E>)- V:t ACCUM @@sum += t.w;
  PRINT @@sum;
}""", graph, t="c")
        assert result.printed[0]["sum"] == 3 + 3  # a->c and b->c

    def test_parameter_shadows_vertex_set(self, graph):
        result = run("""CREATE QUERY q(int S) FOR GRAPH G {
  SumAccum<int> @@sum;
  S = {V.*};
  R = SELECT s FROM S:s -(E>)- V:t ACCUM @@sum += S;
  PRINT @@sum;
}""", graph, S=5)
        assert result.printed[0]["sum"] == 15

    def test_foreach_variable_is_restored(self, graph):
        """Inside the loop ``x`` is the element; after it, the local it
        shadowed is back — and where there was none, the name falls
        through to the parameter again."""
        result = run("""CREATE QUERY q(int y) FOR GRAPH G {
  SumAccum<int> @@inner, @@restored, @@fellThrough;
  S = {V.*};
  R = SELECT s FROM S:s -(E>)- V:t
      ACCUM INT x = 100,
            FOREACH x IN (1, 2) DO @@inner += x END,
            @@restored += x,
            FOREACH y IN (1, 2) DO @@inner += y END,
            @@fellThrough += y;
  PRINT @@inner, @@restored, @@fellThrough;
}""", graph, y=7)
        assert result.printed[0] == {
            "inner": 3 * (1 + 2 + 1 + 2), "restored": 300, "fellThrough": 21,
        }

    def test_post_accum_foreach_variable_shadows_the_pattern_variable(self, graph):
        """The loop variable reads the element, not the vertex.  (The
        statement still *names* ``t``, so it runs once per distinct
        ``(s, t)`` — a's set is folded for a->b and again for a->c.)"""
        result = run("""CREATE QUERY q() FOR GRAPH G {
  SetAccum<int> @seen;
  SumAccum<int> @@sum;
  S = {V.*};
  R = SELECT s FROM S:s -(E>)- V:t
      ACCUM s.@seen += t.w
      POST_ACCUM FOREACH t IN s.@seen DO @@sum += t END;
  PRINT @@sum;
}""", graph)
        assert result.printed[0]["sum"] == 2 * (2 + 3) + 3


UNKNOWN = """CREATE QUERY q(string kind) FOR GRAPH G {{
  SumAccum<int> @@n;
  S = {{V.*}};
  R = SELECT s FROM S:s -(E>)- {target}:t
      {clause};
  PRINT @@n;
}}"""


class TestUnknownNames:
    @pytest.mark.parametrize("clause", [
        "WHERE t.w > nope ACCUM @@n += 1",          # pushed down onto t
        "WHERE s.w + t.w > nope ACCUM @@n += 1",    # residual WHERE
        "ACCUM @@n += nope",                        # Map kernel
        "ACCUM @@n += 1 POST_ACCUM @@n += nope",    # POST_ACCUM
    ])
    def test_raised_at_evaluation_not_at_lowering(self, graph, clause):
        query = parse_query(UNKNOWN.format(target="V", clause=clause))
        plan = compile_query(query)  # lowering does not reject the name
        with pytest.raises(
            QueryRuntimeError, match=r"^unknown name 'nope' in expression$"
        ):
            plan.run(graph, kind="x")

    @pytest.mark.parametrize("clause", [
        "WHERE t.w > nope ACCUM @@n += 1",
        "WHERE s.w + t.w > nope ACCUM @@n += 1",
        "ACCUM @@n += nope",
        "ACCUM @@n += 1 POST_ACCUM @@n += nope",
    ])
    def test_not_raised_when_no_row_evaluates_it(self, graph, clause):
        """``Nowhere`` is no vertex type of the graph: zero rows."""
        result = run(UNKNOWN.format(target="Nowhere", clause=clause), graph, kind="x")
        assert result.printed[0]["n"] == 0


class TestLateBindings:
    TEXT = """CREATE QUERY q(int bound) FOR GRAPH G {
  SumAccum<int> @@n;
  S = {V.*};
  Big = SELECT s FROM S:s WHERE s.w >= bound;
  R = SELECT s FROM S:s -(E>)- V:t
      WHERE t IN Big
      ACCUM @@n += 1;
  PRINT @@n;
}"""

    def test_a_vertex_set_assigned_after_lowering_resolves(self, graph):
        """``Big`` does not exist when the plan is lowered, and differs
        from run to run of the one plan."""
        plan = compile_query(parse_query(self.TEXT))
        assert plan.run(graph, bound=3).printed[0]["n"] == 2   # a->c, b->c
        assert plan.run(graph, bound=2).printed[0]["n"] == 3
        assert plan.run(graph, bound=9).printed[0]["n"] == 0

    def test_a_statement_foreach_variable_reaches_a_block(self, graph):
        """The statement-level FOREACH binds its variable in the
        parameter namespace at run time — no scope declares it."""
        result = run("""CREATE QUERY q() FOR GRAPH G {
  SumAccum<int> @@n;
  S = {V.*};
  FOREACH k IN (1, 10) DO
    R = SELECT s FROM S:s -(E>)- V:t ACCUM @@n += k;
  END;
  PRINT @@n;
}""", graph)
        assert result.printed[0]["n"] == 3 * 11
