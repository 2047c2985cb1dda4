"""Robustness tests: every user mistake should fail with a clear,
specific error — never a bare Python traceback from deep inside the
engine."""

import pytest

from repro.errors import (
    GSQLSyntaxError,
    QueryRuntimeError,
    ReproError,
)
from repro.graph import Graph, GraphSchema, builders
from repro.gsql import parse_query


def run(text, graph=None, **params):
    return parse_query(text).run(graph or builders.sales_graph(), **params)


class TestRuntimeErrors:
    def test_undeclared_accumulator(self):
        with pytest.raises(QueryRuntimeError, match="unknown global accumulator"):
            run("CREATE QUERY q() { @@ghost += 1; }")

    def test_vertex_accum_without_vertex(self):
        with pytest.raises(QueryRuntimeError):
            run("""
CREATE QUERY q() {
  SumAccum<int> @x;
  S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
      ACCUM b.@x += 1;
}""")

    def test_unknown_attribute_in_where(self):
        with pytest.raises(ReproError, match="no attribute"):
            run("""
CREATE QUERY q() {
  S = SELECT c FROM Customer:c -(Bought>)- Product:p WHERE p.weight > 1;
}""")

    def test_division_by_zero_in_accum(self):
        with pytest.raises(QueryRuntimeError, match="division by zero"):
            run("""
CREATE QUERY q() {
  SumAccum<float> @@x;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      ACCUM @@x += 1.0 / (p.price - p.price);
}""")

    def test_unknown_vertex_set_in_from(self):
        schema = GraphSchema("G").vertex("V")
        g = Graph(schema)
        g.add_vertex(1, "V")
        with pytest.raises(QueryRuntimeError, match="neither"):
            run("CREATE QUERY q() { S = SELECT x FROM Mystery:x; }", graph=g)

    def test_unknown_edge_type_matches_nothing(self):
        """Unknown edge types in DARPEs are not errors — the pattern just
        has no matches (consistent with regex semantics over the adorned
        alphabet)."""
        result = run("""
CREATE QUERY q() {
  S = SELECT p FROM Customer:c -(Teleports>)- Product:p;
  PRINT S.size() AS n;
}""")
        assert result.printed == [{"n": 0}]

    def test_select_var_not_in_pattern(self):
        with pytest.raises(QueryRuntimeError, match="not bound"):
            run("CREATE QUERY q() { S = SELECT zzz FROM Customer:c; }")

    def test_while_over_uninitialized_comparison(self):
        """Comparing a never-fed MinAccum (None) is a clear error."""
        with pytest.raises(QueryRuntimeError, match="NULL"):
            run("""
CREATE QUERY q() {
  MinAccum<int> @@m;
  WHILE @@m < 5 LIMIT 3 DO @@m += 1; END;
}""")

    def test_limit_zero_is_legal(self):
        result = run(
            "CREATE QUERY q() { S = SELECT c FROM Customer:c -(Bought>)- Product:p"
            " LIMIT 0; PRINT S.size() AS n; }"
        )
        assert result.printed == [{"n": 0}]

    def test_heap_input_arity(self):
        with pytest.raises(ReproError):
            run("""
CREATE QUERY q() {
  TYPEDEF TUPLE <INT a, INT b> T;
  HeapAccum<T>(3, a ASC) @@h;
  @@h += (1, 2, 3);
}""")


#: Query texts that used to escape as bare Python errors (TypeError,
#: IndexError, ValueError) from inside the engine.
RAW_ERROR_TEXTS = {
    "post_accum_foreach_over_scalar": ("""
CREATE QUERY q() {
  SumAccum<int> @n;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      POST_ACCUM FOREACH x IN 5 DO c.@n += 1 END;
}""", "FOREACH needs an iterable"),
    "contains_without_argument": ("""
CREATE QUERY q() {
  SetAccum<int> @@s;
  @@s += 1;
  PRINT @@s.contains();
}""", "contains.. takes 1 argument"),
    "get_without_argument": ("""
CREATE QUERY q() {
  MapAccum<int, int> @@m;
  @@m += (1, 2);
  PRINT @@m.get();
}""", "get.. takes 1 to 2 argument"),
    "limit_not_a_number": ("""
CREATE QUERY q() {
  S = SELECT c FROM Customer:c -(Bought>)- Product:p LIMIT "x";
}""", "LIMIT needs an integer"),
    # One-line texts: the lexer differential numbers a file's
    # triple-quoted strings, so new ones go after the existing ones.
    "limit_negative": (
        "CREATE QUERY q() { S = SELECT c FROM Customer:c -(Bought>)- Product:p LIMIT -1; }",
        "LIMIT needs an integer >= 0, got -1",
    ),
    "limit_fractional": (
        "CREATE QUERY q() { SELECT c.name AS n INTO T"
        " FROM Customer:c -(Bought>)- Product:p LIMIT 2.5; }",
        "LIMIT needs an integer >= 0, got 2.5",
    ),
    "limit_boolean": (
        "CREATE QUERY q() { SumAccum<int> @@n; WHILE @@n < 5 LIMIT TRUE DO @@n += 1; END; }",
        "LIMIT needs an integer >= 0, got True",
    ),
    "limit_numeric_string": (
        "CREATE QUERY q() { S = SELECT c FROM Customer:c -(Bought>)- Product:p LIMIT \"3\"; }",
        "LIMIT needs an integer >= 0, got '3'",
    ),
    "outdegree_two_arguments": ("""
CREATE QUERY q() {
  SumAccum<int> @@d;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      ACCUM @@d += c.outdegree("Bought", "Bought");
}""", "outdegree.. takes 0 to 1 argument"),
}


class TestRawErrorsAreStructured:
    @pytest.fixture(scope="class")
    def service(self):
        from repro.server import QueryService, RetryPolicy

        service = QueryService(
            graphs={"default": builders.sales_graph()}, pool_size=1,
            pool_mode="thread", retry=RetryPolicy(max_attempts=1),
        )
        yield service
        service.shutdown(grace=5.0)

    @pytest.mark.parametrize("name", sorted(RAW_ERROR_TEXTS))
    def test_query_run_and_service_report_a_runtime_error(self, name, service):
        from repro.server import QueryRequest

        text, message = RAW_ERROR_TEXTS[name]
        with pytest.raises(QueryRuntimeError, match=message):
            run(text)
        doc = service.submit(QueryRequest(text, request_id=name))
        assert (doc["outcome"], doc["http_status"]) == ("runtime-error", 422)
        assert doc["error"]["kind"] == "QueryRuntimeError"


class TestSyntaxErrorQuality:
    @pytest.mark.parametrize(
        "text,needle",
        [
            ("CREATE QUERY q { }", r"expected '\('"),
            ("CREATE QUERY q() { SELECT FROM V:v; }", "expected an expression"),
            ("CREATE QUERY q() { WHILE TRUE DO }", "statement"),
            ("CREATE QUERY q() { S = SELECT v FROM V:v WHERE ; }", "expression"),
            ("CREATE QUERY q() { PRINT 1 + ; }", "expression"),
            ("CREATE QUERY q() { SumAccum<> @@x; }", "statement|type"),
        ],
    )
    def test_message_mentions_problem(self, text, needle):
        with pytest.raises(GSQLSyntaxError, match=needle):
            parse_query(text)

    def test_error_position_points_at_token(self):
        try:
            parse_query("CREATE QUERY q() {\n  S = SELECT v\n  FROM ;\n}")
        except GSQLSyntaxError as exc:
            assert exc.line == 3
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")


class TestEngineLimits:
    def test_deep_pattern_is_fine(self):
        """A 4-hop explicit chain pattern parses and runs.  (Longer
        chains are better expressed with bounded DARPEs — an explicit
        k-hop chain materializes every k-walk, which is the point of
        the compressed Kleene evaluation.)"""
        hops = " ".join("-(Knows)- Person:v%d" % i for i in range(4))
        text = f"""
CREATE QUERY q(vertex<Person> p) {{
  S = SELECT v3 FROM Person:p {hops};
  PRINT S.size() AS n;
}}"""
        from repro.ldbc import generate_snb_graph

        g = generate_snb_graph(0.05, seed=1)
        result = parse_query(text).run(g, p="person:0")
        assert result.printed[0]["n"] >= 0

    def test_empty_graph(self):
        schema = GraphSchema("G").vertex("V", name="STRING").edge("E", "V", "V")
        g = Graph(schema)
        result = run("""
CREATE QUERY q() {
  SumAccum<int> @@n;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM @@n += 1;
  PRINT @@n AS n;
}""", graph=g)
        assert result.printed == [{"n": 0}]

    def test_post_accum_on_empty_binding_table(self):
        result = run("""
CREATE QUERY q() {
  SumAccum<int> @@n;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      WHERE p.price > 1000000
      POST_ACCUM @@n += 1;
  PRINT @@n AS n;
}""")
        assert result.printed == [{"n": 0}]


class TestEmissionTypeErrors:
    """Mixed-type ORDER BY keys, and SQL aggregates over values they
    cannot add or compare, raise a QueryRuntimeError naming the clause and
    the two values — not a bare TypeError."""

    def test_mixed_order_by_keys_into_a_table(self):
        with pytest.raises(QueryRuntimeError, match=r"type error in ORDER BY: 1 < 'a'"):
            run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  SELECT p.name AS n INTO T FROM Customer:c -(Bought>)- Product:p
  ORDER BY (CASE WHEN p.price > 30 THEN "a" ELSE 1 END);
}""")

    def test_mixed_order_by_keys_of_a_vertex_set(self):
        with pytest.raises(QueryRuntimeError, match=r"type error in ORDER BY: 'a' < 1"):
            run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  S = SELECT p FROM Customer:c -(Bought>)- Product:p
      ORDER BY (CASE WHEN p.price > 30 THEN "a" ELSE 1 END) DESC;
}""")

    def test_min_over_mixed_values(self):
        with pytest.raises(
            QueryRuntimeError,
            match=r"type error in min\(CASE .* END\): 'a' and 1",
        ):
            run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  SELECT c.name AS n, min(CASE WHEN p.price > 30 THEN "a" ELSE 1 END) AS m INTO T
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY c.name;
}""")

    def test_sum_over_strings(self):
        with pytest.raises(QueryRuntimeError, match=r"type error in sum\(c\.name\): 0 and 'alice'"):
            run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  SELECT sum(c.name) AS s INTO T FROM Customer:c -(Bought>)- Product:p;
}""")

    def test_avg_over_strings(self):
        with pytest.raises(QueryRuntimeError, match=r"type error in avg\(c\.name\): 0 and 'alice'"):
            run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  SELECT c.name AS n, avg(c.name) AS a INTO T
  FROM Customer:c -(Bought>)- Product:p
  GROUP BY c.name;
}""")


class TestMapAccumArrowInput:
    """A MapAccum takes the one-key, one-value arrow ``(k -> v)`` the
    analyzer's E102 message asks for, in ACCUM and at statement level."""

    def test_statement_level_arrow(self):
        from repro.accum import ListAccum, MapAccum

        result = run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  MapAccum<string, SumAccum<float>> @@rev;
  @@rev += ("x" -> 1.5);
  @@rev += ("x" -> 2.0);
  PRINT @@rev;
}""")
        assert result.printed == [{"rev": {"x": 3.5}}]
        # A plain (key, value) tuple whose parts are 1-tuples keeps its
        # meaning: only the arrow itself unwraps.
        acc = MapAccum(ListAccum)
        acc.combine((("k",), (1,)))
        assert acc.value == {("k",): ((1,),)}

    def test_accum_arrow_matches_the_pair_form(self):
        result = run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  MapAccum<string, SumAccum<float>> @@arrow, @@pair;
  S = SELECT p FROM Customer:c -(Bought>:e)- Product:p
      ACCUM @@arrow += (p.category -> e.quantity * p.price),
            @@pair += (p.category, e.quantity * p.price);
  PRINT @@arrow, @@pair;
}""")
        [record] = result.printed
        assert record["arrow"] == record["pair"] == {"toy": 265.0, "kitchen": 240.0}

    def test_multi_key_arrow_is_a_structured_error(self):
        with pytest.raises(
            ReproError, match=r"one-key, one-value arrow .* got 2 key\(s\) and 1 value\(s\)"
        ):
            run("""
CREATE QUERY q() FOR GRAPH SalesGraph {
  MapAccum<string, SumAccum<float>> @@rev;
  @@rev += ("x", "y" -> 1.5);
}""")


class TestVertexSetResult:
    """A vertex-set result skips the per-row vertex check only where the
    SELECT variable is statically a vertex position; an edge variable
    and a relational-table conjunct still raise, and the result's ids
    are exactly its vertices' ids, LIMIT cut included."""

    def test_an_edge_variable_is_not_a_vertex_set(self):
        with pytest.raises(QueryRuntimeError, match="'e' binds to a non-vertex"):
            run("""
CREATE QUERY q() {
  S = SELECT e FROM Customer:c -(Bought>:e)- Product:p;
  PRINT S;
}""")

    def test_a_table_conjunct_is_not_a_vertex_set(self):
        from repro.core.values import Table

        table = Table("T", ["k"])
        table.append((1,))
        with pytest.raises(QueryRuntimeError, match="'r' binds to a non-vertex"):
            run("""
CREATE QUERY q() {
  S = SELECT r FROM T:r;
  PRINT S;
}""", tables={"T": table})

    @pytest.mark.parametrize("limit", [None, 2, 9])
    def test_ids_are_the_kept_vertices(self, limit):
        if limit is None:
            result = run("""
CREATE QUERY q() {
  S = SELECT p FROM Customer:c -(Bought>)- Product:p;
  PRINT S;
}""")
        else:
            result = run("""
CREATE QUERY q(int k) {
  S = SELECT p FROM Customer:c -(Bought>)- Product:p ORDER BY p.price DESC LIMIT k;
  PRINT S;
}""", k=limit)
        [record] = result.printed
        vertices = list(record["S"])
        graph = builders.sales_graph()
        products = [v for v in graph.vertices("Product") if graph.indegree(v.vid, "Bought")]
        assert len(vertices) == min(len(products), limit or len(products))
        for product in products:
            assert (product.vid in record["S"]) == (product.vid in {v.vid for v in vertices})
