"""The repro.analysis subsystem: rules, spans, type inference, shims.

Three layers of coverage:

* a corpus of deliberately broken queries, each asserting the exact rule
  code and source location the analyzer must report;
* golden "clean" checks — every paper query and example in the repo must
  produce zero error-severity diagnostics;
* runtime semantics of the ACCUM-clause control flow (``IF``/``FOREACH``)
  the analyzer's parser support introduced.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import Severity, analyze, build_model
from repro.analysis.diagnostics import caret_excerpt, collect_suppressions
from repro.analysis.types import TypeEnv, infer_type
from repro.core import AccumForeach, AccumIf
from repro.core.exprs import Literal, Binary
from repro.graph import Graph
from repro.gsql import parse_queries, parse_query

REPO = Path(__file__).resolve().parent.parent


def diags(src, schema=None):
    return analyze(parse_query(src), schema=schema)


def codes(src, schema=None):
    return [d.code for d in diags(src, schema)]


def errors(src, schema=None):
    return [d for d in diags(src, schema) if d.is_error]


# ======================================================================
# Spans and excerpt rendering
# ======================================================================
class TestSpans:
    SRC = """CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM @@missing += 1;
  PRINT R;
}"""

    def test_diagnostic_carries_line_and_column(self):
        (diag,) = diags(self.SRC)
        assert diag.code == "GSQL-E001"
        assert diag.span.line == 4
        assert diag.span.column == 13
        assert diag.span.end_column == 22  # covers "@@missing"

    def test_render_includes_caret_underline(self):
        (diag,) = diags(self.SRC)
        rendered = diag.render(self.SRC, "q.gsql")
        assert "q.gsql:4:13: error[GSQL-E001]" in rendered
        assert "ACCUM @@missing += 1;" in rendered
        assert "^^^^^^^^^" in rendered

    def test_caret_excerpt_handles_missing_span(self):
        assert caret_excerpt(self.SRC, None) == ""
        assert caret_excerpt(None, None) == ""

    def test_programmatic_queries_have_no_spans(self):
        from repro.core import DeclareAccum, Query, VERTEX
        from repro.accum import SumAccum

        q = Query("t", [DeclareAccum("x", VERTEX, lambda: SumAccum(0, int))])
        model = build_model(q)
        assert model.decls[0].span is None


# ======================================================================
# Broken-query corpus: exact codes and locations
# ======================================================================
class TestBrokenCorpus:
    def test_undeclared_global_top_level(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  @@nope += 1;
  PRINT 1;
}"""
        (d,) = errors(src)
        assert (d.code, d.span.line) == ("GSQL-E001", 2)

    def test_undeclared_accum_in_nested_if(self):
        # The regression the rewrite fixes: control flow nested inside an
        # ACCUM clause was previously never walked.
        src = """CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM IF q.age > 10 THEN @@hidden += 1 END;
  PRINT R;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E001"
        assert "hidden" in d.message
        assert d.span.line == 4

    def test_undeclared_accum_in_nested_foreach(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SetAccum<int> @@pool;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM FOREACH x IN @@pool DO p.@ghost += x END;
  PRINT R;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E001"
        assert "ghost" in d.message
        assert d.span.line == 5

    def test_duplicate_accumulator(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@x;
  SumAccum<int> @@x;
  @@x += 1;
  PRINT @@x;
}"""
        assert [d.code for d in errors(src)] == ["GSQL-E003"]
        (d,) = errors(src)
        assert d.span.line == 3

    def test_scope_confusion_vertex_as_global(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @score;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM @@score += 1;
  PRINT R;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E002"

    def test_scope_confusion_global_read_per_vertex(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@total;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM @@total += 1
      POST_ACCUM @@total += p.@total;
  PRINT R;
}"""
        assert "GSQL-E002" in [d.code for d in errors(src)]

    def test_unknown_vertex_set_in_setop(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  T = S UNION Ghost;
  PRINT T;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E004"
        assert "Ghost" in d.message

    def test_unknown_set_in_print_projection(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  PRINT Missing[Missing.name];
}"""
        error_codes = [d.code for d in errors(src)]
        assert "GSQL-E004" in error_codes

    def test_unknown_vertex_type_with_schema(self):
        from repro.graph.schema import GraphSchema

        schema = GraphSchema("G")
        schema.vertex("Person")
        schema.edge("Knows")
        src = """CREATE QUERY t() FOR GRAPH G {
  R = SELECT p FROM Martian:p -(Knows>)- Person:q;
  PRINT R;
}"""
        (d,) = errors(src, schema)
        assert d.code == "GSQL-E005"
        assert d.span.line == 2

    def test_unknown_edge_type_with_schema(self):
        from repro.graph.schema import GraphSchema

        schema = GraphSchema("G")
        schema.vertex("Person")
        schema.edge("Knows")
        src = """CREATE QUERY t() FOR GRAPH G {
  R = SELECT p FROM Person:p -(Dislikes>)- Person:q;
  PRINT R;
}"""
        (d,) = errors(src, schema)
        assert d.code == "GSQL-E006"

    def test_sum_accum_int_fed_string(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@n;
  @@n += "oops";
  PRINT @@n;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E101"
        assert d.span.line == 3

    def test_or_accum_fed_number(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  OrAccum<bool> @@any;
  @@any += 5;
  PRINT @@any;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E101"

    def test_set_accum_element_mismatch(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SetAccum<int> @@ids;
  @@ids += "p7";
  PRINT @@ids;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E101"

    def test_initializer_mismatch(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@n = "zero";
  @@n += 1;
  PRINT @@n;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E101"
        assert "initializer" in d.message

    def test_map_key_type_conflict(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  MapAccum<string, SumAccum<float>> @@rev;
  @@rev += (7 -> 1.5);
  PRINT @@rev;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E102"
        assert "key" in d.message

    def test_map_value_type_conflict(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  MapAccum<string, SumAccum<float>> @@rev;
  @@rev += ("toy" -> "expensive");
  PRINT @@rev;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E102"
        assert "value" in d.message

    def test_map_scalar_value_declared_type(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  MapAccum<string, int> @@cnt;
  @@cnt += ("a" -> "b");
  PRINT @@cnt;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E102"

    def test_heap_arity_mismatch(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  TYPEDEF TUPLE<STRING name, FLOAT score> Pair;
  HeapAccum<Pair>(3, score DESC) @@top;
  @@top += Pair("x", 1.0, 99);
  PRINT @@top;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E103"
        assert "2 fields" in d.message

    def test_heap_field_type_mismatch(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  TYPEDEF TUPLE<STRING name, FLOAT score> Pair;
  HeapAccum<Pair>(3, score DESC) @@top;
  @@top += Pair(42, 1.0);
  PRINT @@top;
}"""
        (d,) = errors(src)
        assert d.code == "GSQL-E103"
        assert "name" in d.message

    def test_kleene_feeding_list_accum(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  ListAccum<int> @hops;
  S = {Person.*};
  R = SELECT q FROM S:p -(Knows>*)- Person:q
      ACCUM q.@hops += 1;
  PRINT R;
}"""
        found = codes(src)
        assert "GSQL-E013" in found
        assert "GSQL-W012" in found


class TestWarningRules:
    def test_snapshot_read_hazard_global(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@n;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM @@n += 1, p.@deg2 += @@n;
  PRINT @@n;
}"""
        found = codes(src)
        assert "GSQL-W010" in found

    def test_snapshot_read_hazard_same_vertex_var(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @d;
  S = {Person.*};
  R = SELECT q FROM S:p -(Knows>)- Person:q
      ACCUM q.@d += q.@d + 1;
  PRINT R;
}"""
        assert "GSQL-W010" in codes(src)

    def test_message_passing_idiom_is_not_flagged(self):
        # t.@x += s.@x is the canonical superstep idiom: reading the
        # *source* snapshot while updating the target must stay silent.
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @d;
  S = {Person.*};
  R = SELECT q FROM S:p -(Knows>)- Person:q
      ACCUM q.@d += p.@d + 1;
  PRINT R;
}"""
        assert "GSQL-W010" not in codes(src)

    def test_primed_read_is_not_flagged(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @d;
  S = {Person.*};
  R = SELECT q FROM S:p -(Knows>)- Person:q
      ACCUM q.@d += q.@d' + 1;
  PRINT R;
}"""
        assert "GSQL-W010" not in codes(src)

    def test_while_without_limit_or_convergence(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@n;
  S = {Person.*};
  WHILE 1 > 0 DO
    @@n += 1;
  END;
  PRINT @@n;
}"""
        assert "GSQL-W020" in codes(src)

    def test_while_with_limit_ok(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@n;
  S = {Person.*};
  WHILE 1 > 0 LIMIT 3 DO
    @@n += 1;
  END;
  PRINT @@n;
}"""
        assert "GSQL-W020" not in codes(src)

    def test_while_on_accumulator_condition_ok(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<float> @@diff;
  S = {Person.*};
  WHILE @@diff > 0.001 DO
    @@diff += 1.0;
  END;
  PRINT @@diff;
}"""
        assert "GSQL-W020" not in codes(src)

    def test_while_on_reassigned_set_ok(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  WHILE S.size() > 0 DO
    S = SELECT q FROM S:p -(Knows>)- Person:q;
  END;
  PRINT S;
}"""
        assert "GSQL-W020" not in codes(src)

    def test_unused_accumulator(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@used, @@lonely;
  @@used += 1;
  PRINT @@used;
}"""
        found = diags(src)
        assert [d.code for d in found] == ["GSQL-W021"]
        assert "lonely" in found[0].message

    def test_write_only_accumulator_is_used(self):
        # Figure 2 writes accumulators that the *caller* inspects after
        # the run; write-only must not count as unused.
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@tally;
  @@tally += 1;
  PRINT 1;
}"""
        assert "GSQL-W021" not in codes(src)

    def test_unused_vertex_set(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  T = {Company.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q;
  PRINT R;
}"""
        found = diags(src)
        assert [d.code for d in found] == ["GSQL-W022"]
        assert "'T'" in found[0].message

    def test_into_shadowing_vertex_set(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  SELECT p.name AS name INTO S
  FROM S:p -(Knows>)- Person:q;
  PRINT 1;
}"""
        assert "GSQL-W023" in codes(src)

    def test_foreach_var_shadows_vertex_set(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SetAccum<int> @@pool;
  SumAccum<int> @@n;
  S = {Person.*};
  FOREACH S IN @@pool DO
    @@n += 1;
  END;
  PRINT @@n;
}"""
        assert "GSQL-W024" in codes(src)

    def test_foreach_var_is_registered_in_scope(self):
        # The loop variable must resolve inside the body (satellite:
        # loop variables join the validation scope).
        src = """CREATE QUERY t() FOR GRAPH G {
  SetAccum<int> @@pool;
  SumAccum<int> @@n;
  FOREACH x IN @@pool DO
    PRINT x;
  END;
  PRINT @@n;
}"""
        assert "GSQL-W025" not in codes(src)

    def test_unknown_bare_name(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  PRINT mystery;
}"""
        found = diags(src)
        assert [d.code for d in found] == ["GSQL-W025"]

    def test_parameter_name_is_known(self):
        src = """CREATE QUERY t(INT k) FOR GRAPH G {
  PRINT k;
}"""
        assert codes(src) == []


# ======================================================================
# Type inference unit checks
# ======================================================================
class TestInference:
    def test_literals(self):
        env = TypeEnv()
        assert infer_type(Literal(True), env) == "BOOL"
        assert infer_type(Literal(3), env) == "INT"
        assert infer_type(Literal(3.5), env) == "FLOAT"
        assert infer_type(Literal("s"), env) == "STRING"

    def test_arithmetic_promotes_to_float(self):
        env = TypeEnv()
        expr = Binary("+", Literal(1), Literal(2.0))
        assert infer_type(expr, env) == "FLOAT"

    def test_string_concat(self):
        env = TypeEnv()
        expr = Binary("+", Literal("a"), Literal("b"))
        assert infer_type(expr, env) == "STRING"

    def test_comparison_is_bool(self):
        env = TypeEnv()
        assert infer_type(Binary("<", Literal(1), Literal(2)), env) == "BOOL"

    def test_unknown_stays_unknown_and_silent(self):
        # q.age has no declared type: no E101 even though the accumulator
        # is INT — the analyzer must not guess.
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@ages;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM @@ages += q.age;
  PRINT @@ages;
}"""
        assert errors(src) == []


# ======================================================================
# Inline suppressions
# ======================================================================
class TestSuppressions:
    def test_line_suppression(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@used, @@lonely;  // lint: disable=GSQL-W021
  @@used += 1;
  PRINT @@used;
}"""
        assert codes(src) == []

    def test_preceding_line_suppression(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  // lint: disable=GSQL-W021
  SumAccum<int> @@lonely;
  PRINT 1;
}"""
        assert codes(src) == []

    def test_file_level_suppression(self):
        src = """// lint: disable-file=GSQL-W025
CREATE QUERY t() FOR GRAPH G {
  PRINT mystery;
}"""
        assert codes(src) == []

    def test_suppression_is_code_specific(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@lonely;  // lint: disable=GSQL-W020
  PRINT 1;
}"""
        assert codes(src) == ["GSQL-W021"]

    def test_collect_suppressions_parses_lists(self):
        per_line, file_level = collect_suppressions(
            "// lint: disable=GSQL-W010, GSQL-W012\n"
            "// lint: disable-file=GSQL-E101\n"
        )
        assert per_line[1] == {"GSQL-W010", "GSQL-W012"}
        assert file_level == {"GSQL-E101"}


# ======================================================================
# What the removed core.validate shim pinned, on diagnostic codes
# ======================================================================
class TestLegacyShims:
    def test_validate_reports_nested_if_update(self):
        q = parse_query("""CREATE QUERY t() FOR GRAPH G {
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM IF q.age > 10 THEN @@hidden += 1 END;
  PRINT R;
}""")
        errors = [d.code for d in analyze(q) if d.is_error]
        assert errors == ["GSQL-E001"]

    def test_validate_ignores_warnings(self):
        q = parse_query("""CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@lonely;
  PRINT 1;
}""")
        found = analyze(q)
        assert found and not any(d.is_error for d in found)

    def test_severity_split(self):
        src = """CREATE QUERY t() FOR GRAPH G {
  SumAccum<int> @@lonely;
  @@ghost += 1;
  PRINT 1;
}"""
        found = diags(src)
        severities = {d.code: d.severity for d in found}
        assert severities["GSQL-E001"] is Severity.ERROR
        assert severities["GSQL-W021"] is Severity.WARNING


# ======================================================================
# Golden files: every paper query and example must be error-free
# ======================================================================
def _extract_gsql(path: Path):
    text = path.read_text()
    for match in re.finditer(r'("""|\'\'\')(.*?)\1', text, re.S):
        body = match.group(2)
        if "CREATE QUERY" in body:
            yield body


GOLDEN_FILES = sorted(
    [REPO / "tests" / "test_gsql_paper_queries.py"]
    + list((REPO / "examples").glob("*.py"))
)


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "path", GOLDEN_FILES, ids=[p.name for p in GOLDEN_FILES]
    )
    def test_corpus_file_is_clean(self, path):
        found = []
        for source in _extract_gsql(path):
            for query in parse_queries(source).values():
                for diag in analyze(query, source=source):
                    found.append((query.name, diag.code, diag.message))
        assert found == []


# ======================================================================
# Runtime semantics of ACCUM-clause IF / FOREACH
# ======================================================================
@pytest.fixture()
def knows_graph():
    g = Graph(name="G")
    for pid, age in (("p1", 30), ("p2", 17), ("p3", 20)):
        g.add_vertex(pid, "Person", name=pid, age=age)
    for a, b in (("p1", "p2"), ("p1", "p3"), ("p2", "p3")):
        g.add_edge(a, b, "Knows", directed=True)
    return g


class TestAccumControlFlowExecution:
    def test_if_else_in_accum(self, knows_graph):
        q = parse_query("""CREATE QUERY CountAdults() FOR GRAPH G {
  SumAccum<int> @@adults, @@minors;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM IF q.age >= 18 THEN @@adults += 1 ELSE @@minors += 1 END;
  PRINT @@adults, @@minors;
}""")
        result = q.run(knows_graph)
        assert result.printed[0]["adults"] == 2  # p1->p3, p2->p3
        assert result.printed[0]["minors"] == 1  # p1->p2

    def test_foreach_in_accum_reads_snapshot(self, knows_graph):
        q = parse_query("""CREATE QUERY Spread() FOR GRAPH G {
  SetAccum<int> @@bonus;
  SumAccum<int> @score;
  SumAccum<int> @@total;
  @@bonus += 1;
  @@bonus += 2;
  S = {Person.*};
  R = SELECT q FROM S:p -(Knows>)- Person:q
      ACCUM FOREACH b IN @@bonus DO q.@score += b END
      POST_ACCUM @@total += q.@score;
  PRINT @@total;
}""")
        result = q.run(knows_graph)
        # p2 gets 1+2 once (edge p1->p2); p3 twice (p1->p3, p2->p3).
        assert result.printed[0]["total"] == 3 + 6

    def test_foreach_in_post_accum(self, knows_graph):
        q = parse_query("""CREATE QUERY SumNeighborAges() FOR GRAPH G {
  SetAccum<int> @ages;
  SumAccum<int> @@sum;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM p.@ages += q.age
      POST_ACCUM FOREACH a IN p.@ages DO @@sum += a END;
  PRINT @@sum;
}""")
        result = q.run(knows_graph)
        # p1 collects {17, 20}; p2 collects {20}.
        assert result.printed[0]["sum"] == 17 + 20 + 20

    def test_nested_if_in_foreach(self, knows_graph):
        q = parse_query("""CREATE QUERY Filtered() FOR GRAPH G {
  SetAccum<int> @ages;
  SumAccum<int> @@bigSum;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM p.@ages += q.age
      POST_ACCUM FOREACH a IN p.@ages DO
        IF a >= 18 THEN @@bigSum += a END
      END;
  PRINT @@bigSum;
}""")
        result = q.run(knows_graph)
        assert result.printed[0]["bigSum"] == 20 + 20

    def test_printer_round_trips_accum_control_flow(self, knows_graph):
        from repro.gsql.printer import print_query

        src = """CREATE QUERY CountAdults() FOR GRAPH G {
  SumAccum<int> @@adults, @@minors;
  S = {Person.*};
  R = SELECT p FROM S:p -(Knows>)- Person:q
      ACCUM IF q.age >= 18 THEN @@adults += 1 ELSE @@minors += 1 END,
            FOREACH z IN p.@ages DO @@adults += z END;
  PRINT @@adults;
}"""
        text = print_query(parse_query(src))
        reparsed = parse_query(text)
        block = None
        for stmt in reparsed.statements:
            for sub in getattr(stmt, "statements", [stmt]):
                if hasattr(sub, "block"):
                    block = sub.block
        assert block is not None
        assert any(isinstance(s, AccumIf) for s in block.accum)
        assert any(isinstance(s, AccumForeach) for s in block.accum)
