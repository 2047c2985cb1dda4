"""Tests for the accumulator effect & commutativity analysis.

Covers the certificate lattice (COMMUTATIVE / ORDER_DEPENDENT / UNKNOWN
plus the delta-maintainable flag), the E040/W041/W042 rules, parser
attachment of ``block.effect_certificate``, the EXPLAIN rendering, the
``repro check --effects`` payload, and the parallel gating in
``parallel_accum``.
"""

import json
import pathlib

import pytest

from repro.analysis import analyze, analyze_effects, block_effects, cached_model
from repro.cli import main
from repro.core.explain import explain_query
from repro.core.parallel import parallel_accum
from repro.core.tractable import (
    DeterminismCertificate,
    DeterminismStatus,
    attach_effect_certificates,
)
from repro.errors import ParallelSafetyError
from repro.graph import builders
from repro.gsql import parse_query
from repro.obs import metrics

REPO = pathlib.Path(__file__).resolve().parent.parent


def effects_of(src):
    return block_effects(cached_model(parse_query(src)))


def codes_of(src, schema=None):
    return [d.code for d in analyze(parse_query(src), schema=schema)]


def first_block(query):
    for stmt in query.statements:
        block = getattr(stmt, "block", None)
        if block is not None:
            return block
    raise AssertionError("query has no SELECT block")


# ----------------------------------------------------------------------
# Certificate lattice
# ----------------------------------------------------------------------
class TestCertificates:
    def test_sum_accum_is_commutative_and_delta(self):
        [(_f, summary, cert)] = effects_of("""
CREATE QUERY q() {
  SumAccum<int> @@n;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@n += 1;
  PRINT @@n;
}""")
        assert cert.status is DeterminismStatus.COMMUTATIVE
        assert cert.commutative
        assert cert.delta_maintainable
        assert summary.written_keys == {(True, "n")}
        [effect] = summary.writes
        assert effect.monotone and effect.mergeable

    def test_list_accum_is_order_dependent(self):
        [(_f, _s, cert)] = effects_of("""
CREATE QUERY q() {
  ListAccum<STRING> @@trace;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@trace += s.name;
  PRINT @@trace;
}""")
        assert cert.status is DeterminismStatus.ORDER_DEPENDENT
        assert not cert.commutative
        assert not cert.delta_maintainable
        assert any("fold order" in w for w in cert.witnesses)

    def test_string_sum_is_order_dependent(self):
        [(_f, _s, cert)] = effects_of("""
CREATE QUERY q() {
  SumAccum<STRING> @@cat;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@cat += s.name;
  PRINT @@cat;
}""")
        assert cert.status is DeterminismStatus.ORDER_DEPENDENT

    def test_undeclared_accumulator_is_unknown(self):
        [(_f, _s, cert)] = effects_of("""
CREATE QUERY q() {
  R = SELECT t FROM V:s -(E>)- V:t ACCUM t.@mystery += 1;
  PRINT R;
}""")
        assert cert.status is DeterminismStatus.UNKNOWN
        assert any("no visible declaration" in w for w in cert.witnesses)

    def test_avg_accum_commutative_but_not_delta(self):
        [(_f, _s, cert)] = effects_of("""
CREATE QUERY q() {
  AvgAccum @@mean;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@mean += 1.0;
  PRINT @@mean;
}""")
        assert cert.status is DeterminismStatus.COMMUTATIVE
        assert not cert.delta_maintainable  # Avg is not monotone

    def test_accum_read_defeats_delta_maintainability(self):
        [(_f, summary, cert)] = effects_of("""
CREATE QUERY q() {
  SumAccum<int> @@n;
  MaxAccum<int> @@peak;
  R = SELECT t FROM V:s -(E>)- V:t
      ACCUM @@n += 1
      POST_ACCUM @@peak += @@n;
  PRINT @@peak;
}""")
        assert cert.status is DeterminismStatus.COMMUTATIVE
        assert not cert.delta_maintainable
        assert (True, "n") in summary.read_keys

    def test_constant_assignment_is_commutative(self):
        [(_f, _s, cert)] = effects_of("""
CREATE QUERY q() {
  MinAccum<int> @dist;
  R = SELECT s FROM V:s ACCUM s.@dist = 0;
  PRINT R;
}""")
        assert cert.status is DeterminismStatus.COMMUTATIVE
        assert any("constant" in w for w in cert.witnesses)

    def test_target_only_assignment_is_commutative(self):
        # the connected-components idiom: v.@cc = v.id()
        [(_f, _s, cert)] = effects_of("""
CREATE QUERY q() {
  MinAccum<int> @cc;
  R = SELECT s FROM V:s ACCUM s.@cc = s.id();
  PRINT R;
}""")
        assert cert.status is DeterminismStatus.COMMUTATIVE
        assert any("target vertex" in w for w in cert.witnesses)

    def test_row_dependent_global_assignment_is_order_dependent(self):
        result = analyze_effects(cached_model(parse_query("""
CREATE QUERY q() {
  SumAccum<FLOAT> @@last;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@last = s.id();
  PRINT @@last;
}""")))
        [(_f, _s, cert)] = result.blocks
        assert cert.status is DeterminismStatus.ORDER_DEPENDENT
        assert len(result.unsafe_writes) == 1

    def test_loop_annotation(self):
        [(_f, summary, cert)] = effects_of("""
CREATE QUERY q() {
  SumAccum<int> @@n, @@i;
  WHILE @@i < 3 DO
    R = SELECT t FROM V:s -(E>)- V:t ACCUM @@n += 1;
    @@i += 1;
  END;
  PRINT @@n;
}""")
        assert summary.in_loop
        assert any("inside a loop" in w for w in cert.witnesses)

    def test_certificate_describe(self):
        cert = DeterminismCertificate(
            DeterminismStatus.COMMUTATIVE, ("w",), delta_maintainable=True
        )
        assert "commutative" in cert.describe()
        assert "delta-maintainable" in cert.describe()


# ----------------------------------------------------------------------
# Rules E040 / W041 / W042
# ----------------------------------------------------------------------
class TestEffectRules:
    def test_e040_on_row_dependent_global_assignment(self):
        codes = codes_of("""
CREATE QUERY q() {
  SumAccum<FLOAT> @@last;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@last = s.id();
  PRINT @@last;
}""")
        assert "GSQL-E040" in codes

    def test_w041_on_order_dependent_block(self):
        codes = codes_of("""
CREATE QUERY q() {
  ListAccum<STRING> @@trace;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@trace += s.name;
  PRINT @@trace;
}""")
        assert "GSQL-W041" in codes

    def test_w041_skips_kleene_blocks(self):
        # E013 already owns order-dependent-accumulator-under-Kleene.
        codes = codes_of("""
CREATE QUERY q() {
  ListAccum<int> @paths;
  R = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@paths += 1;
  PRINT R;
}""")
        assert "GSQL-E013" in codes
        assert "GSQL-W041" not in codes

    def test_w042_on_cross_variable_interference(self):
        codes = codes_of("""
CREATE QUERY q() {
  MaxAccum<FLOAT> @best;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM t.@best += s.@best;
  PRINT R;
}""")
        assert "GSQL-W042" in codes

    def test_w042_quiet_when_read_var_also_written(self):
        codes = codes_of("""
CREATE QUERY q() {
  MaxAccum<FLOAT> @best;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM t.@best += 1.0, s.@best += t.@best;
  PRINT R;
}""")
        assert "GSQL-W042" not in codes

    def test_primed_read_is_not_interference(self):
        codes = codes_of("""
CREATE QUERY q() {
  MaxAccum<FLOAT> @best;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM t.@best += s.@best';
  PRINT R;
}""")
        assert "GSQL-W042" not in codes

    @pytest.mark.parametrize("code,line", [
        ("GSQL-E040", "@@last = s.id()"),
        ("GSQL-W041", "@@trace += s.name"),
    ])
    def test_suppression_comment_silences(self, code, line):
        src = f"""
CREATE QUERY q() {{
  SumAccum<FLOAT> @@last;
  ListAccum<STRING> @@trace;  // lint: disable=GSQL-W012
  R = SELECT t  // lint: disable={code}
      FROM V:s -(E>)- V:t
      ACCUM {line};  // lint: disable={code}
  PRINT R;
}}"""
        assert code not in codes_of(src)

    def test_w042_suppression(self):
        src = """
CREATE QUERY q() {
  MaxAccum<FLOAT> @best;
  R = SELECT t FROM V:s -(E>)- V:t
      ACCUM t.@best += s.@best;  // lint: disable=GSQL-W042
  PRINT R;
}"""
        assert "GSQL-W042" not in codes_of(src)

    def test_example_file_is_flagged(self):
        src = (REPO / "examples" / "order_dependent_trace.gsql").read_text()
        codes = codes_of(src)
        assert "GSQL-W041" in codes


# ----------------------------------------------------------------------
# Attachment, EXPLAIN, counters
# ----------------------------------------------------------------------
class TestSurfacing:
    SRC = """
CREATE QUERY q() {
  SumAccum<int> @@n;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@n += 1;
  PRINT @@n;
}"""

    def test_parser_attaches_effect_certificate(self):
        block = first_block(parse_query(self.SRC))
        cert = block.effect_certificate
        assert cert is not None
        assert cert.status is DeterminismStatus.COMMUTATIVE

    def test_attach_effect_certificates_is_idempotent(self):
        query = parse_query(self.SRC)
        block = first_block(query)
        before = block.effect_certificate
        attach_effect_certificates(query)
        assert block.effect_certificate == before

    def test_explain_renders_effects(self):
        text = explain_query(parse_query(self.SRC))
        assert "EFFECTS commutative delta-maintainable" in text
        assert "commutes" in text

    def test_explain_renders_order_dependent(self):
        text = explain_query(parse_query("""
CREATE QUERY q() {
  ListAccum<STRING> @@trace;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@trace += s.name;
  PRINT @@trace;
}"""))
        assert "EFFECTS order-dependent" in text

    def test_effects_counters(self):
        with metrics.collect() as col:
            effects_of(self.SRC)
        assert col.counter("effects.analyses") == 1
        assert col.counter("effects.blocks") == 1
        assert col.counter("effects.commutative") == 1
        assert col.counter("effects.delta_maintainable") == 1

    def test_analysis_memoised_on_model(self):
        model = cached_model(parse_query(self.SRC))
        assert analyze_effects(model) is analyze_effects(model)

    def test_check_cli_effects_payload(self, capsys):
        rc = main([
            "check", str(REPO / "examples" / "qn_diamond.gsql"),
            "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        [entry] = payload["effects"]
        assert entry["status"] == "commutative"
        assert entry["delta_maintainable"] is True
        assert entry["writes"] == ["@pathCount"]

    def test_check_cli_effects_text(self, capsys):
        rc = main([
            "check", str(REPO / "examples" / "order_dependent_trace.gsql"),
            "--effects",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "effects order-dependent" in out
        assert "@@visitTrace" in out


# ----------------------------------------------------------------------
# Parallel gating
# ----------------------------------------------------------------------
class TestParallelGating:
    def _ctx_rows_statements(self):
        from repro.core import QueryContext
        from repro.core.context import GLOBAL, AccumDecl
        from repro.core.exprs import Literal
        from repro.core.pattern import EngineMode, Pattern, chain, hop
        from repro.core.pattern import evaluate_pattern
        from repro.core.stmts import AccumTarget, AccumUpdate
        from repro.accum import SumAccum

        g = builders.sales_graph()
        ctx = QueryContext(g)
        ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
        pattern = Pattern(
            [chain("Customer", "c", hop("Bought>", "Product", "p"))]
        )
        rows = evaluate_pattern(ctx, pattern, EngineMode.counting())
        statements = [AccumUpdate(AccumTarget("total"), "+=", Literal(1.0))]
        return ctx, rows, statements

    def test_commutative_certificate_licenses_parallelism(self):
        ctx, rows, statements = self._ctx_rows_statements()
        cert = DeterminismCertificate(DeterminismStatus.COMMUTATIVE, ("ok",))
        parallel_accum(ctx, statements, rows, partitions=3, certificate=cert)
        assert ctx.global_accum("total").value == float(len(rows))

    def test_order_dependent_certificate_refuses(self):
        ctx, rows, statements = self._ctx_rows_statements()
        cert = DeterminismCertificate(
            DeterminismStatus.ORDER_DEPENDENT, ("@@trace appends",)
        )
        with pytest.raises(ParallelSafetyError) as info:
            parallel_accum(ctx, statements, rows, partitions=3,
                           certificate=cert)
        assert info.value.status == "order-dependent"
        assert info.value.witnesses == ("@@trace appends",)

    def test_unknown_certificate_refuses(self):
        ctx, rows, statements = self._ctx_rows_statements()
        cert = DeterminismCertificate(DeterminismStatus.UNKNOWN, ())
        with pytest.raises(ParallelSafetyError):
            parallel_accum(ctx, statements, rows, certificate=cert)

    def test_serialize_degrades_instead_of_raising(self):
        ctx, rows, statements = self._ctx_rows_statements()
        cert = DeterminismCertificate(DeterminismStatus.UNKNOWN, ("?",))
        with metrics.collect() as col:
            parallel_accum(ctx, statements, rows, partitions=4,
                           certificate=cert, on_uncertified="serialize")
        assert ctx.global_accum("total").value == float(len(rows))
        assert col.counter("parallel.serialized_uncertified") == 1
        assert col.counter("parallel.partitions") == 1
