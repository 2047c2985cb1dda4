"""Tests for the repro.obs observability layer.

Covers the collector/span substrate, the off-by-default contract, and —
the acceptance criterion for the layer — that on the Qn diamond family
the engine-work counters (acc-executions, SDMC product states) stay flat
from n=10 to n=30 while the reported path multiplicity grows 2^n.
"""

import json

import pytest

from repro.accum.numeric import SumAccum
from repro.accum.registry import accumulator_from_combiner, unregister_accumulator
from repro.algorithms.traversal import path_count_query
from repro.core.context import GLOBAL, AccumDecl, QueryContext
from repro.core.parallel import parallel_accum
from repro.core.pattern import EngineMode
from repro.graph import builders
from repro.obs import Collector, Span, active, collect, profile_query
from repro.paths import PathSemantics


class TestCollector:
    def test_counters_accumulate(self):
        col = Collector()
        col.count("a")
        col.count("a", 4)
        col.count("b", 2)
        assert col.counter("a") == 5
        assert col.counter("b") == 2
        assert col.counter("missing") == 0

    def test_record_max_keeps_peak(self):
        col = Collector()
        col.record_max("peak", 3)
        col.record_max("peak", 7)
        col.record_max("peak", 5)
        assert col.counter("peak") == 7

    def test_span_nesting_follows_stack(self):
        col = Collector()
        outer = col.span("outer")
        inner = col.span("inner")
        col.close(inner)
        col.close(outer)
        assert [s.name for s in col.spans()] == ["outer", "inner"]
        assert col.roots == [outer]
        assert outer.children == [inner]

    def test_close_pops_stray_open_children(self):
        # An exception path may leave descendants open; closing the
        # ancestor must finish and pop them all.
        col = Collector()
        outer = col.span("outer")
        stray = col.span("stray")
        col.close(outer)
        assert stray.end is not None
        assert outer.end is not None
        # the stack is clean: the next span is a new root
        root2 = col.span("next")
        col.close(root2)
        assert root2 in col.roots

    def test_span_finish_idempotent(self):
        span = Span("s")
        span.finish()
        first_end = span.end
        span.finish()
        assert span.end == first_end
        assert span.duration >= 0

    def test_to_dict_is_json_serializable(self):
        col = Collector()
        col.count("block.acc_executions", 3)
        span = col.span("query", label="QUERY q")
        col.close(span)
        doc = json.loads(json.dumps(col.to_dict()))
        assert doc["schema"] == "repro.obs/1"
        assert doc["counters"] == {"block.acc_executions": 3}
        assert doc["spans"][0]["name"] == "query"
        assert doc["spans"][0]["duration_ms"] >= 0


class TestCollect:
    def test_off_by_default(self):
        assert active() is None

    def test_collect_activates_and_restores(self):
        with collect() as col:
            assert active() is col
        assert active() is None

    def test_collect_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with collect():
                raise RuntimeError("boom")
        assert active() is None

    def test_nested_collectors_shadow(self):
        with collect() as outer:
            with collect() as inner:
                assert active() is inner
            assert active() is outer


class TestQnCounters:
    """Theorem 7.1 as counters: work flat in n, multiplicity 2^n."""

    def run_qn(self, n):
        graph = builders.diamond_chain(n)
        return profile_query(
            path_count_query(), graph, srcName="v0", tgtName=f"v{n}"
        )

    def test_counting_engine_work_counters(self):
        report = self.run_qn(10)
        col = report.collector
        # one compressed binding row -> one acc-execution
        assert col.counter("block.acc_executions") == 1
        assert col.counter("block.binding_rows") == 1
        assert col.counter("block.binding_multiplicity") == 2 ** 10
        # pushdown pins the source to one seed vertex
        assert col.counter("pattern.seed_vertices") == 1
        assert col.counter("sdmc.calls") == 1
        assert col.counter("accum.combine_weighted") == 1

    def test_work_flat_while_paths_double(self):
        small = self.run_qn(10).collector
        large = self.run_qn(30).collector
        # path count grows 2^10 -> 2^30 ...
        assert small.counter("block.binding_multiplicity") == 2 ** 10
        assert large.counter("block.binding_multiplicity") == 2 ** 30
        # ... while acc-executions and SDMC calls do not grow at all
        assert (large.counter("block.acc_executions")
                == small.counter("block.acc_executions") == 1)
        assert (large.counter("sdmc.calls")
                == small.counter("sdmc.calls") == 1)
        # product states scale with the graph (3n+1 vertices), not with 2^n
        assert large.counter("sdmc.product_states") == 91

    def test_span_tree_shape(self):
        report = self.run_qn(6)
        names = [s.name for s in report.collector.spans()]
        assert names[0] == "query"
        assert "select_block" in names
        assert "pattern" in names
        assert "hop" in names
        assert "accum_map" in names
        hop = next(s for s in report.collector.spans() if s.name == "hop")
        assert hop.attrs["plan"] == "sdmc-counting"
        assert hop.attrs["rows_out"] == 1
        assert hop.attrs["multiplicity_out"] == 2 ** 6

    def test_report_renders_text_and_json(self):
        report = self.run_qn(6)
        text = report.render_text()
        assert "PROFILE Qn" in text
        assert "block.acc_executions" in text
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["query"] == "Qn"
        assert doc["engine"] == "counting/all-shortest-paths"
        assert doc["wall_ms"] >= 0

    def test_enumeration_engine_counters(self):
        graph = builders.diamond_chain(8)
        mode = EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE)
        report = profile_query(
            path_count_query(), graph, mode=mode,
            srcName="v0", tgtName="v8",
        )
        col = report.collector
        assert col.counter("enum.calls") >= 1
        # trail enumeration materializes every path: work is >= 2^8
        assert col.counter("enum.paths_emitted") >= 2 ** 8
        assert col.counter("enum.nodes_expanded") >= 2 ** 8
        assert col.counter("sdmc.calls") == 0


class TestAccumCounters:
    def test_weighted_fallback_counts_multiplicity(self):
        # A combiner-derived type inherits the O(mu) base fallback.
        acc_type = accumulator_from_combiner(
            "_ObsTestConcat", lambda a, b: a + b, initial=""
        )
        try:
            with collect() as col:
                acc = acc_type()
                acc.combine_weighted("x", 5)
            assert col.counter("accum.weighted_fallback_combines") == 5
            assert acc.value == "xxxxx"
        finally:
            unregister_accumulator("_ObsTestConcat")

    def test_sum_closed_form_never_hits_fallback(self):
        with collect() as col:
            acc = SumAccum()
            acc.combine_weighted(3, 1000)
        assert acc.value == 3000
        assert col.counter("accum.weighted_fallback_combines") == 0

    def test_parallel_merge_counter(self):
        from repro.core.pattern import BindingTable
        from repro.core.stmts import AccumTarget, AccumUpdate
        from repro.core.exprs import Literal

        graph = builders.diamond_chain(2)
        ctx = QueryContext(graph, {})
        ctx.declare(AccumDecl("total", GLOBAL, SumAccum))
        stmt = AccumUpdate(AccumTarget("total"), "+=", Literal(1))
        rows = BindingTable([], [((), 1)] * 8)
        with collect() as col:
            parallel_accum(ctx, [stmt], rows, partitions=4)
        assert ctx.global_accum("total").value == 8
        assert col.counter("parallel.partitions") == 4
        assert col.counter("accum.merges") == 4


class TestFrontEndSpans:
    def test_a_collected_parse_names_syntax_and_certification(self):
        from repro.gsql import parse_query

        text = (
            "CREATE QUERY q() { SumAccum<int> @@n; "
            "S = SELECT v FROM V:v -(E>*)- V:t ACCUM @@n += 1; PRINT @@n; }"
        )
        col = Collector()
        with collect(col):
            parse_query(text)
        [parse] = col.roots
        assert parse.name == "parse"
        assert [child.name for child in parse.children] == ["certify"]
        assert 0 <= parse.children[0].duration <= parse.duration
        # No collector, no spans: the off path stays one context read.
        assert parse_query(text).name == "q"

    def test_a_failed_parse_closes_its_span(self):
        from repro.errors import GSQLSyntaxError
        from repro.gsql import parse_query

        col = Collector()
        with collect(col):
            with pytest.raises(GSQLSyntaxError):
                parse_query("CREATE QUERY q() { PRINT ; }")
        [parse] = col.roots
        assert parse.name == "parse" and parse.children == []
        assert col._stack == []


class TestBlockPhaseSpans:
    QUERY = (
        "CREATE QUERY q() { SumAccum<int> @@n; "
        "S = SELECT t FROM V:s -(E>)- V:t WHERE s.name < t.name ACCUM @@n += 1; "
        "PRINT S.size(); }"
    )

    def test_residual_where_and_vertex_set_have_spans(self):
        from repro.gsql import parse_query

        graph = builders.diamond_chain(3)
        query = parse_query(self.QUERY)
        col = Collector()
        with collect(col):
            result = query.run(graph)
        [block] = [s for s in col.spans() if s.name == "select_block"]
        names = [child.name for child in block.children]
        assert names == ["pattern", "where", "accum_map", "accum_reduce", "vertex_set"]
        where, vertex_set = block.children[1], block.children[4]
        rows_in = col.counter("block.binding_rows")
        assert where.attrs == {
            "rows_in": rows_in,
            "rows_out": rows_in - col.counter("block.rows_filtered_residual"),
        }
        assert 0 < where.attrs["rows_out"] < rows_in
        assert vertex_set.attrs == {"vertices": result.printed[0]["S.size()"]}

    def test_a_block_without_residual_conjuncts_has_no_where_span(self):
        col = Collector()
        with collect(col):
            path_count_query().run(builders.diamond_chain(2), srcName="v0", tgtName="v2")
        assert "where" not in [s.name for s in col.spans()]
        assert "vertex_set" in [s.name for s in col.spans()]
