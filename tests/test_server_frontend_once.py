"""The front end runs once per request, in the worker.

The service ships a request's text and reads the verdict: the process
that executes a query is the only one that lexes, parses, certifies and
lowers it — and the one that screens its predicted cost, against the
statistics of the version it is about to run.
"""

import json
import uuid
from pathlib import Path

import pytest

from repro.graph import builders
from repro.graph.io import save_graph_json
from repro.gsql import parser as gsql_parser
from repro.server import QueryRequest, QueryService
from repro.server.pool import execute_job
from repro.server.protocol import Job, OutcomeKind

QN = """
CREATE QUERY {name}(string srcName, string tgtName) {{
  SumAccum<int> @pathCount;
  R = SELECT t
      FROM V:s -(E>*)- V:t
      WHERE s.name == srcName AND t.name == tgtName
      ACCUM t.@pathCount += 1;
  PRINT R[R.name, R.@pathCount];
}}
"""
PARAMS = {"srcName": "v0", "tgtName": "v5"}


def never_seen_text():
    """A text no plan cache in this process can hold."""
    return QN.format(name=f"Qn_{uuid.uuid4().hex}")


@pytest.fixture
def parses(monkeypatch):
    """Every ``_Parser.parse_queries`` call made in this process."""
    calls = []
    real = gsql_parser._Parser.parse_queries

    def spy(self):
        calls.append(self.text)
        return real(self)

    monkeypatch.setattr(gsql_parser._Parser, "parse_queries", spy)
    return calls


@pytest.fixture
def thread_service():
    svc = QueryService(
        graphs={"default": builders.diamond_chain(6)},
        pool_size=1, pool_mode="thread",
    )
    yield svc
    svc.shutdown(grace=5.0)


@pytest.fixture
def process_service(tmp_path):
    path = tmp_path / "g.json"
    save_graph_json(builders.diamond_chain(6), path)
    svc = QueryService(
        graph_paths={"default": str(path)}, pool_size=1, pool_mode="process",
    )
    yield svc
    svc.shutdown(grace=5.0)


class TestParsedOnce:
    def test_a_never_seen_text_is_parsed_exactly_once(
        self, thread_service, parses
    ):
        text = never_seen_text()
        request = QueryRequest(query_text=text, params=PARAMS)
        doc = thread_service.submit(request)
        assert doc["outcome"] == "ok"
        assert parses == [text]
        # ... it was screened on the way (interactive carries caps) ...
        counters = thread_service.collector.counters
        assert counters["server.cost.screened"] == 1
        assert counters["compile.cache.miss"] == 1
        # ... and a repeat parses nothing at all.
        assert thread_service.submit(request)["outcome"] == "ok"
        assert parses == [text]
        assert counters["server.cost.screened"] == 2
        assert counters["compile.cache.miss"] == 1
        assert counters["compile.cache.hit"] == 1

    def test_a_refused_text_is_parsed_exactly_once(
        self, thread_service, parses
    ):
        text = never_seen_text()
        doc = thread_service.submit(QueryRequest(
            query_text=text, params=PARAMS, engine="nrv",
            budget_class="bounded",
        ))
        assert doc["outcome"] == "predicted-over-budget"
        assert parses == [text]

    def test_an_unscreened_text_is_parsed_exactly_once(
        self, thread_service, parses
    ):
        thread_service.cost_screen_enabled = False
        text = never_seen_text()
        doc = thread_service.submit(QueryRequest(query_text=text, params=PARAMS))
        assert doc["outcome"] == "ok"
        assert parses == [text]
        assert "server.cost.screened" not in thread_service.collector.counters


class TestProcessMode:
    REFUSED = dict(params=PARAMS, engine="nrv", budget_class="bounded")

    def test_the_parent_never_parses(self, process_service, parses):
        doc = process_service.submit(
            QueryRequest(query_text=never_seen_text(), params=PARAMS)
        )
        assert doc["outcome"] == "ok"
        assert parses == []
        # The worker's front end is in the counters it sent back.
        counters = process_service.collector.counters
        assert counters["compile.cache.miss"] == 1
        assert counters["server.cost.screened"] == 1

    def test_same_422_document_as_thread_mode(
        self, thread_service, process_service
    ):
        request = QueryRequest(
            query_text=never_seen_text(), request_id="r-1", **self.REFUSED
        )
        threaded = thread_service.submit(request)
        forked = process_service.submit(request)
        assert json.dumps(forked) == json.dumps(threaded)
        assert list(forked) == [
            "outcome", "request_id", "attempts", "retryable", "http_status",
            "budget_class", "predicted", "certificate",
        ]
        assert forked["outcome"] == "predicted-over-budget"
        assert forked["http_status"] == 422
        assert forked["budget_class"] == "bounded"
        assert forked["attempts"] == 1 and not forked["retryable"]
        assert forked["predicted"]["breaches"] == [
            {"metric": "paths", "predicted_max": 19922925, "cap": 50000}
        ]
        assert forked["certificate"]["stats_fingerprint"]
        for svc in (thread_service, process_service):
            counters = svc.collector.counters
            assert counters["server.cost.screened"] == 1
            assert counters["server.cost.rejections"] == 1
            assert counters["server.outcome.predicted-over-budget"] == 1
            assert counters["server.requests"] == 1


class TestTheJobSwitch:
    """``cost_screen_enabled`` reaches the worker as ``Job.cost_screen``."""

    BREACH = dict(engine="nrv", budget={"max_paths": 1})

    def _job(self, **kw):
        return Job("r", never_seen_text(), "default", PARAMS, **kw)

    def test_it_is_the_last_field_and_defaults_off(self):
        assert Job._fields[-1] == "cost_screen"
        assert self._job(**self.BREACH).cost_screen is False

    def test_a_job_built_without_it_is_left_to_the_governor(self):
        graphs = {"default": builders.diamond_chain(6)}
        reply = execute_job(self._job(**self.BREACH), graphs)
        assert reply["outcome"] == OutcomeKind.ABORTED.value
        assert "server.cost.screened" not in reply["counters"]

    def test_a_job_carrying_it_is_refused_before_it_runs(self):
        graphs = {"default": builders.diamond_chain(6)}
        reply = execute_job(
            self._job(cost_screen=True, **self.BREACH), graphs
        )
        assert reply["outcome"] == OutcomeKind.PREDICTED_OVER_BUDGET.value
        assert reply["counters"]["server.cost.rejections"] == 1
        assert "block.acc_executions" not in reply["counters"]

    def test_a_deadline_alone_is_not_a_cap(self):
        graphs = {"default": builders.diamond_chain(6)}
        reply = execute_job(
            self._job(engine="nrv", budget={"deadline_seconds": 5.0},
                      cost_screen=True),
            graphs,
        )
        assert reply["outcome"] == OutcomeKind.OK.value
        assert "server.cost.screened" not in reply["counters"]


class TestOnlyWhatTheReplyUses:
    # The worker's front end does only work its reply reads: the parser
    # stamps no cost certificate (the cost screen, its one reader in the
    # worker, stamps it against the graph), the lint runs the
    # error-severity rules only, and one query's analysis model is built
    # once, schema-free, by the parse (lowering builds none).

    GRAPHS = {"default": builders.diamond_chain(6)}

    def _job(self, text, **kw):
        return Job("r", text, "default", PARAMS, **{"engine": "counting", "budget": {}, **kw})

    def _cost_counters(self, reply):
        return sorted(name for name in reply["counters"] if name.startswith("cost."))

    def test_a_cold_unscreened_reply_carries_no_cost_counter(self):
        reply = execute_job(self._job(never_seen_text()), self.GRAPHS)
        assert reply["outcome"] == OutcomeKind.OK.value
        assert reply["counters"]["compile.cache.miss"] == 1
        assert self._cost_counters(reply) == []

    def test_a_screened_reply_prices_once_against_the_graph(self):
        reply = execute_job(
            self._job(never_seen_text(), budget={"max_paths": 10**9}, cost_screen=True),
            self.GRAPHS,
        )
        assert reply["outcome"] == OutcomeKind.OK.value
        assert reply["counters"]["server.cost.screened"] == 1
        assert reply["counters"]["cost.analyses"] == 1

    def test_models_are_built_once_per_schema(self):
        # parse (schema-free certificates) builds the one model; lowering
        # (under the graph's schema) builds none and the lint reuses it ...
        reply = execute_job(self._job(never_seen_text()), self.GRAPHS)
        assert reply["counters"]["analysis.model_builds"] == 1
        # ... and lowering and linting the same query again build none.
        from repro.analysis import analyze
        from repro.compile import compile_query
        from repro.gsql import parse_query
        from repro.obs import Collector, collect

        text = never_seen_text()
        first, again = Collector(), Collector()
        with collect(first):
            query = parse_query(text)
            compile_query(query, schema=self.GRAPHS["default"].schema)
            analyze(query, schema=None, source=text)
        with collect(again):
            compile_query(query, schema=self.GRAPHS["default"].schema)
            analyze(query, schema=None, source=text)
        assert first.counters["analysis.model_builds"] == 1
        assert "analysis.model_builds" not in again.counters

    def test_broken_corpus_gets_the_same_error_diagnostics(self):
        # Every text under examples/ and tests/ that parses to one query
        # with analysis errors: the worker's error-rules-only lint
        # replies with exactly the errors the full analysis reports.
        from repro.analysis import analyze
        from repro.compile import reset_plan_cache
        from repro.errors import GSQLSyntaxError, QueryCompileError
        from repro.gsql import parse_queries

        from .gsql_corpus import REPO, REPOSITORY_TEXTS

        reset_plan_cache()
        checked = 0
        for label, text in REPOSITORY_TEXTS:
            if Path(label).relative_to(REPO).parts[0] not in ("examples", "tests"):
                continue
            try:
                queries = parse_queries(text)
            except (GSQLSyntaxError, QueryCompileError):
                continue
            if len(queries) != 1:
                continue
            [query] = queries.values()
            expected = [d.to_dict() for d in analyze(query, source=text) if d.is_error]
            if not expected:
                continue
            reply = execute_job(self._job(text), self.GRAPHS)
            assert reply["outcome"] == OutcomeKind.LINT_ERROR.value, label
            assert reply["diagnostics"] == expected, label
            assert self._cost_counters(reply) == [], label
            checked += 1
        assert checked >= 20
