"""Tests for repro.compile: closure compilation, lowering, the single
execution entry (``Query.run`` lowers once and runs the plan), and the
governor/AccSan/fault checkpoints of the lowered block.
"""

import pytest

from repro.compile import (
    CompiledQuery,
    CompileStats,
    compile_expr,
    compile_query,
)
from repro.compile.exprc import CompiledExpr
from repro.core.context import QueryContext
from repro.core.exprs import NO_SCOPE, EvalEnv, Literal
from repro.core.pattern import EngineMode
from repro.errors import QueryAbortedError, QueryRuntimeError
from repro.governor import Budget, ExecutionGovernor, govern
from repro.graph import builders
from repro.gsql import parse_query
from repro.gsql.parser import _Parser
from repro.obs.metrics import Collector, collect
from repro.server.protocol import jsonify

QN = """
CREATE QUERY Qn(string srcName, string tgtName) {
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}
"""

ORDER_TRACE = """
CREATE QUERY OrderDependentTrace() {
  ListAccum<STRING> @@visitTrace;
  SumAccum<INT> @@edgeCount;
  R = SELECT t
      FROM V:s -(E>)- V:t
      ACCUM @@visitTrace += s.name, @@edgeCount += 1;
  PRINT @@visitTrace;
  PRINT @@edgeCount;
}
"""

AGGREGATED = """
CREATE QUERY Grouped() {
  SELECT s.name AS src, count(*) AS fanout INTO T
      FROM V:s -(E>)- V:t
      GROUP BY s.name
      HAVING count(*) > 1
      ORDER BY count(*) DESC, s.name ASC;
  RETURN T;
}
"""


def _expr(text):
    """Parse a standalone expression through the GSQL expression parser."""
    parser = _Parser(f"CREATE QUERY t() {{ PRINT {text}; }}")
    query = parser.parse_queries()[0]
    return query.statements[-1].items[0].expr


def canonical(result):
    return {
        "printed": jsonify(result.printed),
        "tables": {k: jsonify(v) for k, v in sorted(result.tables.items())},
        "returned": jsonify(result.returned),
    }


def run(text, graph, mode=None, **params):
    return canonical(parse_query(text).run(graph, mode=mode, **params))


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
class TestExprCompile:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1 + 2 * 3", 7),
            ("(10 - 4) / 3", 2.0),
            ("7 % 3", 1),
            ("2 < 3 AND NOT (1 == 2)", True),
            ("\"a\" + \"b\"", "ab"),
            ("abs(0 - 5)", 5),
            ("CASE WHEN 1 < 2 THEN \"y\" ELSE \"n\" END", "y"),
        ],
    )
    def test_constant_values(self, text, expected):
        expr = _expr(text)
        env = EvalEnv(QueryContext(builders.diamond_chain(2)))
        assert compile_expr(expr).fn(env) == expected
        assert expr.closure(NO_SCOPE)[0](env) == expected  # the unfolded builder

    def test_constant_folding_counted(self):
        stats = CompileStats()
        compiled = compile_expr(_expr("1 + 2 * 3"), stats)
        assert stats.constants_folded >= 1
        # A folded expression still evaluates without an environment.
        assert compiled.fn(None) == 7

    def test_non_constant_not_folded(self):
        stats = CompileStats()
        compile_expr(_expr("x + 1"), stats)
        assert stats.constants_folded == 0

    def test_compiled_expr_stays_analyzable(self):
        expr = _expr("x + 1")
        compiled = compile_expr(expr)
        assert isinstance(compiled, CompiledExpr)
        # walk/children expose the original tree (after the wrapper
        # itself), so analysis passes see the real node structure.
        assert [type(e).__name__ for e in compiled.walk()][1:] == [
            type(e).__name__ for e in expr.walk()
        ]
        assert list(compiled.children()) == list(expr.children())

    def test_literal_needs_no_environment(self):
        compiled = compile_expr(Literal(42))
        assert compiled.fn(None) == 42

    def test_already_compiled_passthrough(self):
        compiled = compile_expr(_expr("x + 1"))
        assert compile_expr(compiled) is compiled

    def test_unknown_name_raises_at_evaluation(self):
        expr = _expr("nosuch + 1")
        env = EvalEnv(QueryContext(builders.diamond_chain(2)))
        compiled = compile_expr(expr)  # lowering succeeds: names are runtime state
        with pytest.raises(QueryRuntimeError, match="unknown name 'nosuch'"):
            compiled.fn(env)

    def test_aggregate_outside_a_group_raises(self):
        env = EvalEnv(QueryContext(builders.diamond_chain(2)))
        with pytest.raises(QueryRuntimeError, match="outside a SELECT output"):
            compile_expr(_expr("count(*) + 1")).fn(env)


# ---------------------------------------------------------------------------
# Whole-query results through Query.run
# ---------------------------------------------------------------------------
class TestQueryResults:
    @staticmethod
    def qn_answer(target, count):
        return {
            "printed": [{"R": [{"name": target, "pathCount": count}]}],
            "tables": {},
            "returned": None,
        }

    def test_qn_counting(self):
        got = run(
            QN, builders.diamond_chain(8), mode=EngineMode.counting(),
            srcName="v0", tgtName="v8",
        )
        assert got == self.qn_answer("v8", 256)

    def test_qn_auto(self):
        got = run(
            QN, builders.diamond_chain(6), mode=EngineMode.auto(),
            srcName="v0", tgtName="v6",
        )
        assert got == self.qn_answer("v6", 64)

    def test_qn_enumeration(self):
        from repro.paths import PathSemantics

        got = run(
            QN, builders.diamond_chain(4),
            mode=EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE),
            srcName="v0", tgtName="v4",
        )
        assert got == self.qn_answer("v4", 16)

    def test_order_dependent_trace(self):
        # The Reduce folds the binding table in row order, so even an
        # ORDER_DEPENDENT ListAccum trace is one fixed list.
        got = run(ORDER_TRACE, builders.diamond_chain(4))
        assert got["printed"] == [
            {"visitTrace": [
                "v0", "v0", "v1", "v1", "v2", "v2", "v3", "v3",
                "d0t", "d0b", "d1t", "d1b", "d2t", "d2b", "d3t", "d3b",
            ]},
            {"edgeCount": 16},
        ]

    def test_group_by_having_order_limit(self):
        got = run(AGGREGATED, builders.diamond_chain(5))
        table = {
            "columns": ["src", "fanout"],
            "rows": [[f"v{i}", 2] for i in range(5)],
        }
        assert got == {"printed": [], "tables": {"T": table}, "returned": table}


# ---------------------------------------------------------------------------
# The single entry: Query.run lowers once, plans never re-lower
# ---------------------------------------------------------------------------
class TestSingleEntry:
    ARGS = {"srcName": "v0", "tgtName": "v4"}

    def test_run_twice_lowers_once_until_invalidated(self):
        query = parse_query(QN)
        graph = builders.diamond_chain(4)
        col = Collector()
        with collect(col):
            query.run(graph, **self.ARGS)
            query.run(graph, **self.ARGS)
        assert col.counters["compile.blocks"] == 1
        assert [s.name for s in col.roots] == ["compile", "query", "query"]
        query.invalidate_analysis()
        with collect(col):
            query.run(graph, **self.ARGS)
        assert col.counters["compile.blocks"] == 2

    def test_cold_cache_plan_lowers_exactly_once(self):
        from repro.compile import PlanCache

        col = Collector()
        with collect(col):
            plan = PlanCache().get_or_compile(QN)
            plan.run(builders.diamond_chain(4), **self.ARGS)
            plan.run(builders.diamond_chain(4), **self.ARGS)
        assert plan.cache_status == "miss"
        assert col.counters["compile.blocks"] == 1
        assert [s.name for s in col.roots].count("compile") == 1

    def test_eight_threads_on_one_fresh_query_agree(self):
        import sys
        import threading

        query = parse_query(QN)
        graph = builders.diamond_chain(6)
        results, errors = [], []
        start = threading.Barrier(8)

        def worker():
            try:
                start.wait(timeout=10)
                results.append(
                    canonical(query.run(graph, srcName="v0", tgtName="v6"))
                )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert results == [TestQueryResults.qn_answer("v6", 64)] * 8


# ---------------------------------------------------------------------------
# The compiled plan object
# ---------------------------------------------------------------------------
class TestCompiledQuery:
    def test_compile_counters_and_report(self):
        col = Collector()
        with collect(col):
            plan = compile_query(parse_query(QN))
        assert isinstance(plan, CompiledQuery)
        assert col.counters["compile.blocks"] == 1
        assert col.counters["compile.exprs"] >= 1
        report = plan.report()
        assert report["blocks"] == 1
        assert report["kernels"] == 1
        assert report["combines_preresolved"] == 1

    def test_describe_mentions_specializations(self):
        plan = compile_query(parse_query(QN))
        text = plan.describe()
        assert text.startswith("COMPILED Qn")
        assert "map kernel" in text

    def test_name_and_params_delegate(self):
        plan = compile_query(parse_query(QN))
        assert plan.name == "Qn"
        assert [p.name for p in plan.params] == ["srcName", "tgtName"]

    def test_stale_after_invalidate_analysis(self):
        query = parse_query(QN)
        plan = compile_query(query)
        assert not plan.stale
        query.invalidate_analysis()
        assert plan.stale


# ---------------------------------------------------------------------------
# Checkpoints: governor, AccSan, faults
# ---------------------------------------------------------------------------
class TestCheckpoints:
    def test_governor_abort_before_map(self):
        # ORDER_TRACE charges one acc-execution per edge (32 on the
        # 8-diamond chain) up front, so a budget of 2 aborts before any
        # Map work runs.
        gov = ExecutionGovernor(Budget(max_acc_executions=2))
        with pytest.raises(QueryAbortedError) as err:
            with govern(gov):
                parse_query(ORDER_TRACE).run(
                    builders.diamond_chain(8), mode=EngineMode.counting()
                )
        assert (err.value.limit_name, err.value.limit_value) == (
            "max_acc_executions", 2
        )

    def test_accsan_replays_the_reduce(self):
        # Two accumulator writes per edge (20 edges), one verified
        # SumAccum phase, and the ORDER_DEPENDENT trace is detected.
        from repro import accsan

        with accsan.sanitize(schedules=4) as sanitizer:
            parse_query(ORDER_TRACE).run(builders.diamond_chain(5))
        report = sanitizer.report()
        assert report.splitlines()[0] == (
            "AccSan: 40 events, 1 reduce phases verified under 4 schedules, "
            "1 order-dependence detections, 0 unreplayable"
        )
        assert "DETECTED @@visitTrace" in report

    def test_fault_injection_fires_in_map_kernel(self):
        from repro.errors import InjectedFault
        from repro.governor.faults import FaultPlan, inject_faults

        graph = builders.diamond_chain(4)
        with inject_faults(FaultPlan().inject("block.accum_map", at=0)):
            with pytest.raises(InjectedFault):
                parse_query(QN).run(graph, srcName="v0", tgtName="v4")

    def test_fault_injection_fires_in_reduce(self):
        from repro.errors import InjectedFault
        from repro.governor.faults import FaultPlan, inject_faults

        graph = builders.diamond_chain(4)
        with inject_faults(FaultPlan().inject("block.reduce", at=0)):
            with pytest.raises(InjectedFault):
                parse_query(QN).run(graph, srcName="v0", tgtName="v4")


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCliCompile:
    @pytest.fixture
    def diamond_json(self, tmp_path):
        from repro.graph.io import save_graph_json

        path = tmp_path / "diamond.json"
        save_graph_json(builders.diamond_chain(6), path)
        return str(path)

    @pytest.fixture
    def qn_file(self, tmp_path):
        path = tmp_path / "qn.gsql"
        path.write_text(QN)
        return str(path)

    PARAMS = ["--param", "srcName=v0", "--param", "tgtName=v6"]

    def test_run_prints_the_path_count(self, capsys, diamond_json, qn_file):
        assert main_run(
            ["run", qn_file, "--graph", diamond_json] + self.PARAMS
        ) == 0
        assert "'pathCount': 64" in capsys.readouterr().out

    def test_explain_appends_compiled_plan(self, capsys, qn_file):
        assert main_run(["explain", qn_file]) == 0
        assert "COMPILED Qn" in capsys.readouterr().out

    def test_profile_shows_lowering_then_the_query(
        self, capsys, diamond_json, qn_file
    ):
        import json

        assert main_run(
            ["profile", qn_file, "--graph", diamond_json, "--format", "json"]
            + self.PARAMS
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [span["name"] for span in doc["spans"]] == ["compile", "query"]
        assert "execution" not in doc

    @pytest.mark.parametrize(
        "argv", [["run", "q.gsql"], ["explain", "q.gsql"], ["profile", "q.gsql"], ["serve"]]
    )
    def test_no_compile_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit):
            main_run(argv + ["--graph", "g.json", "--no-compile"])
        assert "unrecognized arguments: --no-compile" in capsys.readouterr().err


def main_run(argv):
    from repro.cli import main
    from repro.compile import reset_plan_cache

    reset_plan_cache()
    return main(argv)
