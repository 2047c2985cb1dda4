"""Tests for the parallel Map/Reduce executor and EXPLAIN output."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accum import AvgAccum, ListAccum, MaxAccum, SumAccum
from repro.core import (
    AccumTarget,
    AccumUpdate,
    AttrRef,
    Binary,
    EngineMode,
    Literal,
    LocalAssign,
    NameRef,
    QueryContext,
    chain,
    evaluate_pattern,
    hop,
)
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.explain import explain_query
from repro.core.parallel import parallel_accum
from repro.core.pattern import BindingTable, Pattern
from repro.errors import QueryRuntimeError
from repro.graph import builders
from repro.gsql import parse_query


def _sales_setup():
    g = builders.sales_graph()
    ctx = QueryContext(g)
    ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
    ctx.declare(AccumDecl("avgPrice", GLOBAL, AvgAccum))
    ctx.declare(AccumDecl("spent", VERTEX, lambda: SumAccum(0.0)))
    ctx.declare(AccumDecl("maxQty", VERTEX, MaxAccum))
    pattern = Pattern(
        [chain("Customer", "c", hop("Bought>", "Product", "p", edge_var="b"))]
    )
    rows = evaluate_pattern(ctx, pattern, EngineMode.counting())
    statements = [
        LocalAssign("amount", Binary("*", AttrRef(NameRef("b"), "quantity"),
                                     AttrRef(NameRef("p"), "price"))),
        AccumUpdate(AccumTarget("total"), "+=", NameRef("amount")),
        AccumUpdate(AccumTarget("avgPrice"), "+=", AttrRef(NameRef("p"), "price")),
        AccumUpdate(AccumTarget("spent", NameRef("c")), "+=", NameRef("amount")),
        AccumUpdate(
            AccumTarget("maxQty", NameRef("c")), "+=", AttrRef(NameRef("b"), "quantity")
        ),
    ]
    return ctx, rows, statements


def _run_serial(ctx, table, statements):
    """The Map kernel, lowered against the table's slots, bound to the
    live context + one InputBuffer, then the Reduce — what a SELECT
    block does with an ACCUM clause."""
    from repro.compile import CompileStats
    from repro.compile.lowering import compile_accum_clause
    from repro.core.exprs import EvalEnv, Scope
    from repro.core.stmts import InputBuffer

    buffer = InputBuffer()
    kernel = compile_accum_clause(
        statements, {}, CompileStats(), Scope(table.variables)
    )(ctx, buffer)
    env = EvalEnv(ctx)
    for values, multiplicity in table.rows:
        env.row = values
        kernel(env, multiplicity)
    buffer.flush()
    return ctx


def _serial_reference():
    return _run_serial(*_sales_setup())


class TestParallelAccum:
    @pytest.mark.parametrize("partitions", [1, 2, 3, 8, 100])
    def test_matches_serial(self, partitions):
        serial = _serial_reference()
        ctx, rows, statements = _sales_setup()
        parallel_accum(ctx, statements, rows, partitions=partitions)
        assert ctx.global_accum("total").value == serial.global_accum("total").value
        assert ctx.global_accum("avgPrice").value == pytest.approx(
            serial.global_accum("avgPrice").value
        )
        for cid in ("c0", "c1", "c2", "c3"):
            assert (
                ctx.vertex_accum("spent", cid).value
                == serial.vertex_accum("spent", cid).value
            )
            assert (
                ctx.vertex_accum("maxQty", cid).value
                == serial.vertex_accum("maxQty", cid).value
            )

    def test_with_real_threads(self):
        serial = _serial_reference()
        ctx, rows, statements = _sales_setup()
        parallel_accum(ctx, statements, rows, partitions=4, use_threads=True)
        assert ctx.global_accum("total").value == serial.global_accum("total").value

    def test_threaded_partitions_report_to_the_callers_observers(self):
        """A partition thread runs in a copy of the caller's context:
        the writes it makes are recorded by the caller's sanitizer and
        counted on the caller's collector, exactly as when the
        partitions run on the calling thread."""
        from repro.accsan import sanitize
        from repro.governor import Budget, ExecutionGovernor, govern
        from repro.obs import collect

        seen = {}
        for use_threads in (False, True):
            ctx, rows, statements = _sales_setup()
            gov = ExecutionGovernor(Budget(max_acc_executions=10**6))
            with collect() as col, govern(gov), sanitize() as san:
                parallel_accum(ctx, statements, rows, partitions=4,
                               use_threads=use_threads)
            assert len(san.events) == 4 * len(rows)  # LocalAssign is no write
            assert col.counters["accsan.events"] == len(san.events)
            assert col.counters["parallel.partitions"] == 4
            seen[use_threads] = (
                sorted(san.events), san.verified, col.counters,
                ctx.global_accum("total").value,
            )
        assert seen[True] == seen[False]

    def test_deadline_fault_in_a_partition_thread_reaches_the_governor(self):
        """``parallel.worker`` armed with action "deadline" fires inside
        a pool thread and must find the caller's governor there: the
        abort is the real DEADLINE, charged to the caller's collector,
        and no partial reaches the live accumulators."""
        from repro.errors import QueryAbortedError
        from repro.governor import Budget, ExecutionGovernor, govern
        from repro.governor.budget import AbortReason
        from repro.governor.faults import FaultPlan, inject_faults
        from repro.obs import collect

        ctx, rows, statements = _sales_setup()
        gov = ExecutionGovernor(Budget(max_acc_executions=10**6))
        plan = FaultPlan().inject("parallel.worker", at=1, action="deadline")
        with collect() as col, govern(gov), inject_faults(plan):
            with pytest.raises(QueryAbortedError) as info:
                parallel_accum(ctx, statements, rows, partitions=4,
                               use_threads=True)
        assert info.value.reason is AbortReason.DEADLINE
        assert gov.aborted is info.value
        assert col.counters["governor.abort.deadline"] == 1
        assert ctx.global_accum("total").value == 0

    def test_order_dependent_rejected(self):
        g = builders.sales_graph()
        ctx = QueryContext(g)
        ctx.declare(AccumDecl("trace", GLOBAL, ListAccum))
        statements = [AccumUpdate(AccumTarget("trace"), "+=", Literal(1))]
        with pytest.raises(QueryRuntimeError, match="order-dependent"):
            parallel_accum(ctx, statements, BindingTable([], []), partitions=2)

    def test_plain_assignment_rejected(self):
        ctx, rows, _ = _sales_setup()
        statements = [AccumUpdate(AccumTarget("total"), "=", Literal(1.0))]
        with pytest.raises(QueryRuntimeError, match="race"):
            parallel_accum(ctx, statements, rows, partitions=2)

    CERTIFIED_IF = """
    CREATE QUERY q() {
      SumAccum<int> @c;
      R = SELECT t FROM V:s -(E>)- V:t
          ACCUM IF s.name == "v0" THEN t.@c += 1 ELSE t.@c += 10 END;
    }"""
    CERTIFIED_FOREACH = """
    CREATE QUERY q() {
      SumAccum<int> @c;
      SumAccum<int> @@n;
      R = SELECT t FROM V:s -(E>)- V:t
          ACCUM FOREACH w IN (1, 2, 3) DO t.@c += w, @@n += 1 END;
    }"""

    @staticmethod
    def _certified(text):
        """(ctx factory, rows, ACCUM statements, certificate) of the one
        SELECT block in ``text``, declared the way its query declares."""
        from repro.gsql import parse_query

        query = parse_query(text)
        block = query.statements[-1].block
        assert block.effect_certificate.commutative

        def fresh_ctx():
            ctx = QueryContext(builders.diamond_chain(5))
            for stmt in query.statements[:-1]:
                for decl in getattr(stmt, "statements", [stmt]):
                    decl.execute(ctx, EngineMode.counting())
            return ctx

        rows = evaluate_pattern(
            fresh_ctx(), block.pattern, EngineMode.counting()
        )
        return fresh_ctx, rows, block.accum, block.effect_certificate

    @pytest.mark.parametrize("use_threads", [False, True])
    @pytest.mark.parametrize("partitions", [2, 4])
    @pytest.mark.parametrize(
        "text", [CERTIFIED_IF, CERTIFIED_FOREACH], ids=["if", "foreach"]
    )
    def test_certified_control_flow_matches_serial(
        self, text, partitions, use_threads
    ):
        fresh_ctx, rows, statements, cert = self._certified(text)
        serial = _run_serial(fresh_ctx(), rows, statements)
        ctx = fresh_ctx()
        parallel_accum(
            ctx, statements, rows, partitions=partitions,
            use_threads=use_threads, certificate=cert,
        )
        expected = dict(serial.vertex_accum_values("c"))
        assert expected and any(expected.values())
        assert dict(ctx.vertex_accum_values("c")) == expected
        if ctx.has_accum("n"):
            assert ctx.global_accum("n").value == serial.global_accum("n").value

    @pytest.mark.parametrize("use_threads", [False, True])
    def test_assignment_under_control_flow_still_rejected(self, use_threads):
        from repro.core.stmts import AccumIf

        ctx, rows, _ = _sales_setup()
        statements = [
            AccumIf(Literal(True), [AccumUpdate(AccumTarget("total"), "=", Literal(1.0))])
        ]
        with pytest.raises(QueryRuntimeError, match="only \\+="):
            parallel_accum(
                ctx, statements, rows, partitions=2, use_threads=use_threads
            )

    @settings(max_examples=20, deadline=None)
    @given(partitions=st.integers(1, 16))
    def test_partition_count_never_changes_result(self, partitions):
        ctx, rows, statements = _sales_setup()
        parallel_accum(ctx, statements, rows, partitions=partitions)
        assert ctx.global_accum("total").value == pytest.approx(505.0)

    def test_reduce_order_deterministic_across_interleavings(self, monkeypatch):
        """FLOAT sums reassociate: if partials merged in thread-completion
        order, jittered workers would yield run-to-run-different bit
        patterns.  Partials must merge in partition-index order, so every
        interleaving produces the *identical* float, not merely a close
        one."""
        import random
        import time

        import repro.core.parallel as par

        real = par._run_partition
        rng = random.Random(20260808)

        def jittered(*args, **kwargs):
            time.sleep(rng.random() * 0.01)  # scramble completion order
            return real(*args, **kwargs)

        monkeypatch.setattr(par, "_run_partition", jittered)
        reprs = set()
        for _ in range(10):
            ctx, rows, statements = _sales_setup()
            parallel_accum(ctx, statements, rows, partitions=6,
                           use_threads=True)
            reprs.add(repr(ctx.global_accum("total").value))
        assert len(reprs) == 1


class TestExplain:
    def test_explain_pagerank(self):
        from repro.algorithms import pagerank_query

        text = explain_query(pagerank_query("Page", "LinkTo"))
        assert "QUERY PageRank" in text
        assert "WHILE" in text
        assert "adjacency expansion" in text
        assert "tractable" in text

    def test_explain_flags_intractable(self):
        q = parse_query("""
CREATE QUERY q() {
  ListAccum<int> @trace;
  S = SELECT t FROM V:s -(E>*)- V:t ACCUM t.@trace += 1;
}""")
        text = explain_query(q)
        assert "OUTSIDE" in text
        assert "order-dependent" in text

    def test_explain_shows_pushdown_and_kleene(self):
        q = parse_query("""
CREATE QUERY q(string srcName) {
  SumAccum<int> @n;
  S = SELECT t FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND s <> t
      ACCUM t.@n += 1;
}""")
        text = explain_query(q)
        assert "PUSHDOWN [s]" in text
        assert "SDMC" in text
        assert "WHERE" in text  # the residual s <> t

    def test_explain_fixed_unique_length(self):
        q = parse_query("""
CREATE QUERY q() {
  S = SELECT t FROM V:s -(A>.(B>|D>)._>.A>)- V:t;
}""")
        assert "fixed-unique-length 4" in explain_query(q)

    def test_explain_marks_a_semijoin_toward_a_selective_far_end(self):
        q = parse_query("""
CREATE QUERY q(vertex<V> pin, string key) {
  A = SELECT s FROM V:s -(E>)- V:m -(F>)- V:t WHERE t.name == key;
  B = SELECT s FROM V:s -(E>)- V:m -(F>)- V:pin;
  C = SELECT s FROM V:s -(E>)- V:m -(F>)- V:t WHERE t.name == s.name;
  D = SELECT s FROM V:s -(E>*)- V:m -(F>)- V:t WHERE t.name == key;
}""")
        marked = [
            line.strip().split("   ")[0]
            for line in explain_query(q).splitlines()
            if "semi-join" in line
        ]
        # C's far-end filter reads another variable (a residual conjunct),
        # D's first hop is a path-engine hop.
        assert marked == ["-(E>)- V:m", "-(E>)- V:m"]
        assert explain_query(q).count("semi-join toward t") == 1
        assert explain_query(q).count("semi-join toward pin") == 1
