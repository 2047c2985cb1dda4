"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    AccumulatorError,
    DarpeSyntaxError,
    EvaluationBudgetExceeded,
    GraphError,
    GSQLSyntaxError,
    InjectedFault,
    QueryAbortedError,
    QueryCompileError,
    QueryRuntimeError,
    ReproError,
    SchemaError,
    TractabilityError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            SchemaError,
            GraphError,
            DarpeSyntaxError,
            GSQLSyntaxError,
            QueryCompileError,
            QueryRuntimeError,
            QueryAbortedError,
            AccumulatorError,
            TractabilityError,
            EvaluationBudgetExceeded,
            InjectedFault,
        ],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)

    def test_one_catch_for_everything(self):
        from repro.darpe import parse_darpe

        with pytest.raises(ReproError):
            parse_darpe("((")


class TestDarpeSyntaxError:
    def test_renders_pointer(self):
        err = DarpeSyntaxError("bad", "E>$", 2)
        assert "^" in str(err)
        assert "E>$" in str(err)

    def test_without_context(self):
        err = DarpeSyntaxError("bad")
        assert str(err) == "bad"
        assert err.position == -1


class TestGSQLSyntaxError:
    def test_carries_position(self):
        err = GSQLSyntaxError("oops", 3, 7)
        assert "line 3" in str(err)
        assert err.line == 3
        assert err.column == 7

    def test_without_position(self):
        assert str(GSQLSyntaxError("oops")) == "oops"


class TestBudgetExceeded:
    def test_carries_expansion_count(self):
        err = EvaluationBudgetExceeded("too big", expanded=123)
        assert err.expanded == 123


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


class TestRuntimeErrorCounters:
    def test_counters_empty_without_collector(self):
        assert QueryRuntimeError("boom").counters == {}

    def test_counters_snapshot_active_collector(self):
        from repro.obs.metrics import Collector, collect

        col = Collector()
        with collect(col):
            col.count("some.counter", 7)
            err = QueryRuntimeError("boom")
        assert err.counters["some.counter"] == 7
        # The snapshot is a copy, not a live view.
        col.count("some.counter", 1)
        assert err.counters["some.counter"] == 7

    def test_aborted_qn_reports_product_states_so_far(self):
        """Satellite: an aborted Qn run still reports the SDMC work it
        did — failures carry the same telemetry as successes."""
        from repro.core.pattern import EngineMode
        from repro.governor import Budget, ExecutionGovernor, govern
        from repro.graph.builders import diamond_chain
        from repro.gsql import parse_query
        from repro.obs.metrics import Collector, collect
        from repro.paths.semantics import PathSemantics

        graph = diamond_chain(8)
        query = parse_query(QN)
        for stmt in query.statements:
            block = getattr(stmt, "block", None) or getattr(stmt, "source", None)
            if hasattr(block, "certificate"):
                block.certificate = None  # defeat the downgrade policy
        mode = EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
        gov = ExecutionGovernor(Budget(max_paths=5))
        with collect(Collector()), govern(gov):
            with pytest.raises(QueryAbortedError) as info:
                query.run(graph, mode=mode, srcName="v0", tgtName="v8")
        err = info.value
        assert err.counters.get("sdmc.product_states", 0) > 0
        assert err.counters.get("governor.aborts") == 1


class TestQueryAbortedError:
    def test_structured_fields(self):
        from repro.governor import AbortReason

        err = QueryAbortedError(
            "aborted",
            reason=AbortReason.PATHS,
            limit_name="max_paths",
            limit_value=10,
            observed=11,
            elapsed_seconds=0.5,
        )
        assert err.reason is AbortReason.PATHS
        assert err.limit_name == "max_paths"
        assert err.limit_value == 10
        assert err.observed == 11
        assert err.elapsed_seconds == 0.5
        assert isinstance(err, QueryRuntimeError)


class TestInjectedFault:
    def test_carries_site_and_hit(self):
        err = InjectedFault("bang", site="while.iteration", hit=3)
        assert err.site == "while.iteration"
        assert err.hit == 3


class TestWorkerCrashed:
    def test_carries_worker_name(self):
        from repro.errors import WorkerCrashed

        err = WorkerCrashed("gone", worker="worker-3")
        assert err.worker == "worker-3"
        assert isinstance(err, ReproError)


class TestReentrantActivationError:
    def test_structured_fields(self):
        from repro.errors import ReentrantActivationError

        err = ReentrantActivationError("obs.collector", 111, 222)
        assert err.subsystem == "obs.collector"
        assert err.owner_thread == 111
        assert err.thread == 222
        assert "obs.collector" in str(err)
        assert isinstance(err, ReproError)


def _parse_exit_code_tables(text):
    """Extract `| code | name | meaning |` rows from a markdown file."""
    import re

    rows = []
    for line in text.splitlines():
        match = re.match(r"^\|\s*(\d+)\s*\|\s*([\w-]+)\s*\|\s*(.+?)\s*\|$", line)
        if match:
            rows.append(
                (int(match.group(1)), match.group(2), match.group(3))
            )
    return rows


class TestExitCodeTaxonomy:
    """Satellite: one exit-code table in repro.errors, consumed by the
    CLI and pinned against the docs so neither can drift silently."""

    def test_catalog_values(self):
        from repro.errors import (
            EXIT_ABORT,
            EXIT_ACCSAN,
            EXIT_OK,
            EXIT_RUNTIME,
            EXIT_USAGE,
            exit_code_catalog,
        )

        catalog = exit_code_catalog()
        assert [code for code, _, _ in catalog] == [0, 1, 2, 3, 4]
        assert (EXIT_OK, EXIT_USAGE, EXIT_ABORT, EXIT_ACCSAN, EXIT_RUNTIME) == (
            0, 1, 2, 3, 4,
        )
        names = {code: name for code, name, _ in catalog}
        assert names == {
            0: "ok",
            1: "usage-or-lint",
            2: "governor-abort",
            3: "accsan-violation",
            4: "query-runtime-error",
        }

    @pytest.mark.parametrize("doc", ["README.md", "docs/robustness.md"])
    def test_docs_match_catalog(self, doc):
        import pathlib

        from repro.errors import exit_code_catalog

        root = pathlib.Path(__file__).resolve().parent.parent
        rows = _parse_exit_code_tables((root / doc).read_text())
        # The docs table must be exactly the catalog — same codes, same
        # names, same meanings.
        assert rows == exit_code_catalog(), (
            f"{doc} exit-code table drifted from repro.errors.EXIT_CODES"
        )

    def test_cli_uses_the_shared_constants(self):
        """The CLI module carries no literal exit codes of its own."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent
        source = (root / "src" / "repro" / "cli.py").read_text()
        assert not re.search(r"return [0-9]\b", source)
        assert not re.search(r"SystemExit\([0-9]\)", source)
