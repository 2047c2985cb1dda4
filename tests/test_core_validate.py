"""Tests for the analyzer's name-resolution errors (GSQL-E001..E006):
undeclared, duplicate and mis-scoped accumulators, unknown vertex sets,
and — with a schema — unknown vertex and edge types."""

import pytest

from repro.analysis import analyze
from repro.graph import GraphSchema
from repro.gsql import parse_query


def issues_for(text, schema=None):
    # Every error-severity diagnostic of ``text``.
    return [d for d in analyze(parse_query(text), schema) if d.is_error]


def kinds(text, schema=None):
    return [issue.code for issue in issues_for(text, schema)]


@pytest.fixture
def sales_schema():
    return (
        GraphSchema("SalesGraph")
        .vertex("Customer", name="STRING")
        .vertex("Product", name="STRING", price="FLOAT", category="STRING")
        .edge("Bought", "Customer", "Product", quantity="INT", discount="FLOAT")
    )


class TestCleanQueries:
    def test_figure2_is_clean(self, sales_schema):
        text = """
CREATE QUERY ToyRevenue() {
  SumAccum<float> @@total;
  SumAccum<float> @perCust;
  S = SELECT c FROM Customer:c -(Bought>:b)- Product:p
      WHERE p.category == 'toy'
      ACCUM c.@perCust += b.quantity * p.price,
            @@total += b.quantity * p.price;
  PRINT @@total;
}"""
        assert issues_for(text, sales_schema) == []

    def test_figure3_into_set_reuse_is_clean(self, sales_schema):
        text = """
CREATE QUERY q() {
  SumAccum<float> @lc;
  SELECT DISTINCT o INTO Others
  FROM Customer:c -(Bought>)- Product:t -(<Bought)- Customer:o
  ACCUM o.@lc += 1;
  S = SELECT t FROM Others:o -(Bought>)- Product:t;
}"""
        assert issues_for(text, sales_schema) == []


class TestAccumulatorIssues:
    def test_undeclared_global(self):
        assert "GSQL-E001" in kinds(
            "CREATE QUERY q() { @@ghost += 1; }"
        )

    def test_undeclared_in_accum_clause(self):
        text = """
CREATE QUERY q() {
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      ACCUM c.@mystery += 1;
}"""
        assert "GSQL-E001" in kinds(text)

    def test_scope_confusion_vertex_used_globally(self):
        text = """
CREATE QUERY q() {
  SumAccum<int> @perVertex;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      ACCUM @@perVertex += 1;
}"""
        assert "GSQL-E002" in kinds(text)

    def test_scope_confusion_global_used_per_vertex(self):
        text = """
CREATE QUERY q() {
  SumAccum<int> @@total;
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      ACCUM c.@total += 1;
}"""
        assert "GSQL-E002" in kinds(text)

    def test_duplicate_declaration(self):
        text = """
CREATE QUERY q() {
  SumAccum<int> @@x;
  MaxAccum<int> @@x;
}"""
        assert "GSQL-E003" in kinds(text)

    def test_read_in_where_checked(self):
        text = """
CREATE QUERY q() {
  S = SELECT c FROM Customer:c -(Bought>)- Product:p
      WHERE c.@nothing > 1;
}"""
        assert "GSQL-E001" in kinds(text)


class TestSetAndSchemaIssues:
    def test_set_op_on_undefined_set(self):
        text = """
CREATE QUERY q() {
  A = {Customer.*};
  B = A UNION Ghost;
}"""
        assert "GSQL-E004" in kinds(text)

    def test_print_of_undefined_set(self):
        assert "GSQL-E004" in kinds(
            "CREATE QUERY q() { PRINT Ghost[Ghost.name]; }"
        )

    def test_unknown_vertex_type_with_schema(self, sales_schema):
        text = """
CREATE QUERY q() {
  S = SELECT x FROM Martian:x -(Bought>)- Product:p;
}"""
        assert "GSQL-E005" in kinds(text, sales_schema)

    def test_unknown_edge_type_with_schema(self, sales_schema):
        text = """
CREATE QUERY q() {
  S = SELECT p FROM Customer:c -(Teleports>)- Product:p;
}"""
        assert "GSQL-E006" in kinds(text, sales_schema)

    def test_wildcards_never_flagged(self, sales_schema):
        text = """
CREATE QUERY q() {
  S = SELECT t FROM ANY:s -(_>)- _:t;
}"""
        assert issues_for(text, sales_schema) == []

    def test_no_schema_no_type_checks(self):
        text = """
CREATE QUERY q() {
  S = SELECT x FROM Martian:x -(Teleports>)- Unicorn:p;
}"""
        assert issues_for(text) == []


class TestControlFlowWalked:
    def test_issue_inside_while(self):
        text = """
CREATE QUERY q() {
  SumAccum<int> @@i;
  WHILE @@i < 3 LIMIT 5 DO
    @@i += 1;
    @@ghost += 1;
  END;
}"""
        assert "GSQL-E001" in kinds(text)

    def test_issue_inside_foreach_and_if(self):
        text = """
CREATE QUERY q() {
  FOREACH x IN (1, 2) DO
    IF x > 1 THEN @@boo += x; END
  END;
}"""
        assert "GSQL-E001" in kinds(text)
