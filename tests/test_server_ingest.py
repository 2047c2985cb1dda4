"""POST /ingest through the service: outcomes, retry, snapshot reads.

Covers the mutation side of the request lifecycle: OK commits become
queryable, conflicts are terminal 409s (never retried), transient
write-path faults retry within the deadline, a poisoned store reports
INTERNAL, and the ``server.requests == sum(server.outcome.*)`` ledger
holds for mixed query+ingest traffic.  The final class is the PR's
snapshot-isolation acceptance test at the service level, plus the
cost screen's view of statistics across commits.
"""

import gc
import os
import threading
import weakref

import pytest

from repro.governor.faults import FaultPlan, inject_faults
from repro.graph import Graph, builders
from repro.server import IngestRequest, QueryRequest, QueryService, RetryPolicy
from repro.server.admission import BudgetClass
from repro.server.app import parse_ingest_body
from repro.server.protocol import (
    HTTP_STATUS,
    OutcomeKind,
    RETRYABLE_OUTCOMES,
)

COUNT_Q = """
CREATE QUERY CountV() {
  SumAccum<int> @@n;
  R = SELECT v FROM Person:v ACCUM @@n += 1;
  PRINT @@n;
}
"""


def people_graph():
    g = Graph(name="people")
    g.add_vertex("ada", "Person")
    g.add_vertex("charles", "Person")
    g.add_edge("ada", "charles", "Knows")
    return g


@pytest.fixture
def service():
    svc = QueryService(
        graphs={"default": people_graph()},
        pool_size=2,
        pool_mode="thread",
        retry=RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.02),
    )
    yield svc
    svc.shutdown(grace=5.0)


def _ingest(**kw):
    defaults = dict(ops=[{"op": "upsert_vertex", "id": "mary", "type": "Person"}])
    defaults.update(kw)
    return IngestRequest(**defaults)


class TestOutcomes:
    def test_ok_commit_reports_epoch(self, service):
        doc = service.ingest(_ingest())
        assert doc["outcome"] == "ok"
        assert doc["http_status"] == 200
        assert doc["ingest"] == {
            "graph": "default", "epoch": 1, "ops": 1, "durable": False,
        }
        counters = service.metrics_dict()["counters"]
        assert counters["server.ingest.batches"] == 1
        assert counters["server.ingest.ops"] == 1

    def test_committed_batch_is_queryable(self, service):
        before = service.submit(QueryRequest(query_text=COUNT_Q))
        assert before["result"]["printed"] == [{"n": 2}]
        service.ingest(_ingest())
        after = service.submit(QueryRequest(query_text=COUNT_Q))
        assert after["result"]["printed"] == [{"n": 3}]

    def test_conflict_is_terminal_409(self, service):
        doc = service.ingest(_ingest(ops=[
            {"op": "delete_vertex", "id": "nobody"},
        ]))
        assert doc["outcome"] == "conflict"
        assert doc["http_status"] == 409
        assert not doc["retryable"]
        assert doc["attempts"] == 1  # never retried
        assert doc["error"]["op_index"] == 0
        counters = service.metrics_dict()["counters"]
        assert counters["server.ingest.conflicts"] == 1
        assert counters.get("server.retries", 0) == 0

    def test_conflict_is_atomic(self, service):
        doc = service.ingest(_ingest(ops=[
            {"op": "upsert_vertex", "id": "mary", "type": "Person"},
            {"op": "delete_vertex", "id": "nobody"},
        ]))
        assert doc["outcome"] == "conflict"
        # The eligible first op must not have leaked into the graph.
        count = service.submit(QueryRequest(query_text=COUNT_Q))
        assert count["result"]["printed"] == [{"n": 2}]

    def test_conflict_kind_is_not_retryable(self):
        assert OutcomeKind.CONFLICT not in RETRYABLE_OUTCOMES
        assert HTTP_STATUS[OutcomeKind.CONFLICT] == 409

    def test_malformed_ops_are_bad_request(self, service):
        doc = service.ingest(_ingest(ops=[{"op": "truncate"}]))
        assert doc["outcome"] == "bad-request"
        assert doc["http_status"] == 400

    def test_unknown_graph_is_bad_request(self, service):
        doc = service.ingest(_ingest(graph="nope"))
        assert doc["outcome"] == "bad-request"
        assert "mutable graphs: default" in doc["error"]["message"]

    def test_unknown_class_is_bad_request(self, service):
        doc = service.ingest(_ingest(budget_class="platinum"))
        assert doc["outcome"] == "bad-request"

    def test_draining_sheds_ingest(self, service):
        service.drain()
        doc = service.ingest(_ingest())
        assert doc["outcome"] == "shed-draining"
        assert doc["retry_after_ms"] >= 1


class TestRetryLoop:
    def test_transient_fault_retries_then_commits(self, service):
        plan = FaultPlan(seed=11)
        plan.inject("mutation.apply", at=0)
        with inject_faults(plan):
            doc = service.ingest(_ingest(request_id="bump"))
        assert doc["outcome"] == "ok"
        assert doc["attempts"] == 2
        assert doc["ingest"]["epoch"] == 1  # the fault cost no epoch
        assert service.metrics_dict()["counters"]["server.retries"] == 1

    def test_transient_wal_fault_retries_then_commits(self, tmp_path):
        # The wal.* sites only exist on a durable store.
        svc = QueryService(
            graphs={"default": people_graph()}, pool_size=1,
            pool_mode="thread", wal_dir=str(tmp_path / "wal"),
            wal_fsync=False,
            retry=RetryPolicy(max_attempts=3, base_delay=0.005, max_delay=0.02),
        )
        try:
            plan = FaultPlan(seed=11)
            plan.inject("wal.append", at=0)
            with inject_faults(plan):
                doc = svc.ingest(_ingest(request_id="bump"))
            assert doc["outcome"] == "ok"
            assert doc["attempts"] == 2
            assert doc["ingest"]["epoch"] == 1  # the fault cost no epoch
        finally:
            svc.shutdown(grace=5.0)

    def test_persistent_fault_exhausts_cap(self, service):
        plan = FaultPlan(seed=12)
        plan.inject("mutation.apply", at=0, every=True)
        with inject_faults(plan):
            doc = service.ingest(_ingest(request_id="doomed"))
        assert doc["outcome"] == "injected-fault"
        assert doc["attempts"] == 3
        assert doc["error"]["site"] == "mutation.apply"

    def test_publish_fault_poisons_store_then_internal(self, service):
        plan = FaultPlan(seed=13)
        plan.inject("epoch.publish", at=0)
        with inject_faults(plan):
            doc = service.ingest(_ingest(request_id="poisoned"))
        # Attempt 1 hits the publish fault (batch durable in a WAL'd
        # store; here in-memory) -> FAULT -> retry finds the store
        # poisoned -> INTERNAL, not silent retry-forever.
        assert doc["outcome"] == "internal-error"
        assert "requires recovery" in doc["error"]["message"]
        assert service.metrics_dict()["graphs"]["default"]["poisoned"]
        # Reads still serve the last published version.
        count = service.submit(QueryRequest(query_text=COUNT_Q))
        assert count["result"]["printed"] == [{"n": 2}]

    def test_ledger_reconciles_for_mixed_traffic(self, service):
        docs = [
            service.ingest(_ingest()),
            service.ingest(_ingest(ops=[{"op": "delete_vertex", "id": "x"}])),
            service.ingest(_ingest(graph="nope")),
            service.submit(QueryRequest(query_text=COUNT_Q)),
        ]
        counters = service.metrics_dict()["counters"]
        outcome_total = sum(
            v for k, v in counters.items() if k.startswith("server.outcome.")
        )
        assert counters["server.requests"] == len(docs) == outcome_total


class TestDurableService:
    def test_wal_dir_makes_commits_survive_service_restart(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        svc = QueryService(
            graphs={"default": people_graph()}, pool_size=1,
            pool_mode="thread", wal_dir=wal_dir, wal_fsync=False,
        )
        try:
            doc = svc.ingest(_ingest())
            assert doc["ingest"]["durable"] is True
        finally:
            svc.shutdown(grace=5.0)
        svc = QueryService(
            graphs={"default": people_graph()}, pool_size=1,
            pool_mode="thread", wal_dir=wal_dir, wal_fsync=False,
        )
        try:
            assert svc.metrics_dict()["graphs"]["default"]["epoch"] == 1
            count = svc.submit(QueryRequest(query_text=COUNT_Q))
            assert count["result"]["printed"] == [{"n": 3}]
        finally:
            svc.shutdown(grace=5.0)


class TestSnapshotIsolationAcceptance:
    """The acceptance criterion: a query pinned to a pre-ingest epoch
    returns identical results while batches commit concurrently."""

    def test_pinned_query_unmoved_by_concurrent_commits(self):
        svc = QueryService(
            graphs={"default": people_graph()},
            pool_size=2,
            pool_mode="thread",
        )
        try:
            baseline = svc.submit(QueryRequest(query_text=COUNT_Q))
            assert baseline["result"]["printed"] == [{"n": 2}]

            store = svc._stores["default"]
            pin = store.pin()  # what _run_admitted does at admission
            try:
                stop = threading.Event()
                committed = []

                def writer():
                    i = 0
                    while not stop.is_set() and i < 50:
                        doc = svc.ingest(_ingest(ops=[{
                            "op": "upsert_vertex",
                            "id": f"w{i}", "type": "Person",
                        }]))
                        committed.append(doc["outcome"])
                        i += 1

                thread = threading.Thread(target=writer)
                thread.start()
                try:
                    # Replies pinned to the pre-ingest epoch are stable
                    # no matter how many batches land meanwhile.
                    from repro.server.pool import execute_job
                    from repro.server.protocol import Job

                    for _ in range(10):
                        reply = execute_job(
                            Job(request_id="pinned", query_text=COUNT_Q,
                                graph="default", params={},
                                engine="counting", budget={},
                                graph_epoch=pin.epoch),
                            {"default": store},
                        )
                        assert reply["result"]["printed"] == [{"n": 2}]
                finally:
                    stop.set()
                    thread.join(timeout=30)
                assert committed and all(o == "ok" for o in committed)
            finally:
                pin.release()
            # Unpinned traffic sees the post-ingest state.
            after = svc.submit(QueryRequest(query_text=COUNT_Q))
            assert after["result"]["printed"][0]["n"] > 2
        finally:
            svc.shutdown(grace=5.0)

    def test_submit_pins_epoch_on_the_job(self, service):
        # The Job the service dispatches carries the pinned epoch.
        captured = {}
        original = service.pool.dispatch

        def spy(job, **kw):
            captured["epoch"] = job.graph_epoch
            return original(job, **kw)

        service.pool.dispatch = spy
        service.ingest(_ingest())
        service.submit(QueryRequest(query_text=COUNT_Q))
        assert captured["epoch"] == 1


class TestStatsCacheSatellite:
    def test_stats_cache_keyed_by_epoch(self, service):
        # The worker screens a request against the statistics of the
        # very version it pinned (stats_snapshot of the view), so the
        # snapshot rides on the version and the service keeps none.
        store = service._stores["default"]
        superseded = weakref.ref(store.live)
        assert store.live._stats is None  # nothing profiled it yet
        assert service.submit(QueryRequest(query_text=COUNT_Q))["outcome"] == "ok"
        stats0 = store.live._stats.snapshot
        # Same epoch -> the very snapshot the live version carries.
        assert service.submit(QueryRequest(query_text=COUNT_Q))["outcome"] == "ok"
        assert store.live._stats.snapshot is stats0
        service.ingest(_ingest())
        assert service.submit(QueryRequest(query_text=COUNT_Q))["outcome"] == "ok"
        stats1 = store.live._stats.snapshot
        assert stats1 is not stats0
        assert stats1.total_vertices == stats0.total_vertices + 1
        assert service.collector.counters["server.cost.screened"] == 3
        # The superseded version — and with it its snapshot — is not
        # hoarded: nothing outlives the last pin.
        gc.collect()
        assert superseded() is None

    def test_cost_screen_sees_fresh_stats_after_ingest(self):
        # A class whose cap is exactly the pre-ingest vertex count: the
        # screen admits the scan at epoch 0 and, one vertex later,
        # refuses it against epoch 1's counts (closed-form: the
        # prediction is the count itself).
        graph = builders.diamond_chain(6)
        cap = graph.num_vertices
        svc = QueryService(
            graphs={"default": graph},
            pool_size=1, pool_mode="thread",
            classes={"tight": BudgetClass(
                "tight", budget={"max_acc_executions": cap})},
        )
        scan = QueryRequest(budget_class="tight", query_text="""
            CREATE QUERY CountV() {
              SumAccum<int> @@n;
              R = SELECT v FROM V:v ACCUM @@n += 1;
              PRINT @@n;
            }
        """)
        try:
            assert svc.submit(scan)["outcome"] == "ok"
            svc.ingest(IngestRequest(budget_class="tight", ops=[
                {"op": "upsert_vertex", "id": "extra", "type": "V"},
            ]))
            doc = svc.submit(scan)
            assert doc["outcome"] == "predicted-over-budget"
            assert doc["predicted"]["breaches"] == [{
                "metric": "acc_executions",
                "predicted_max": cap + 1, "cap": cap,
            }]
            assert svc.collector.counters["server.cost.screened"] == 2
            assert svc.collector.counters["server.cost.rejections"] == 1
        finally:
            svc.shutdown(grace=5.0)

    def test_path_only_graph_is_never_loaded_by_the_parent(
        self, tmp_path, monkeypatch
    ):
        # Process workers load their graphs from graph_paths and screen
        # against their own copy; the parent holds no version, keeps no
        # statistics and never opens the file.
        from repro.graph import io
        from repro.graph.io import save_graph_json

        path = tmp_path / "g.json"
        save_graph_json(builders.diamond_chain(3), path)
        parent_pid = os.getpid()
        loads = []
        real_load = io.load_graph_json

        def spy(*args, **kwargs):
            if os.getpid() == parent_pid:
                loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(io, "load_graph_json", spy)
        svc = QueryService(
            graph_paths={"default": str(path)}, pool_size=1,
            pool_mode="process",
            classes={"tight": BudgetClass(
                "tight", budget={"max_acc_executions": 9})},
        )
        scan = QueryRequest(budget_class="tight", query_text="""
            CREATE QUERY CountV() {
              SumAccum<int> @@n;
              R = SELECT v FROM V:v ACCUM @@n += 1;
              PRINT @@n;
            }
        """)
        try:
            doc = svc.submit(scan)
            # Ten vertices against a cap of nine: the worker refused it
            # from its own statistics.
            assert doc["outcome"] == "predicted-over-budget"
            assert doc["predicted"]["breaches"] == [{
                "metric": "acc_executions", "predicted_max": 10, "cap": 9,
            }]
            assert svc.collector.counters["server.cost.screened"] == 1
            assert svc.collector.counters["server.cost.rejections"] == 1
            assert loads == []
        finally:
            svc.shutdown(grace=5.0)


class TestIngestBodyParsing:
    def test_parse_round_trip(self):
        req = parse_ingest_body({
            "ops": [{"op": "delete_vertex", "id": "x"}],
            "graph": "g", "tenant": "t", "class": "batch",
            "deadline_seconds": 5,
        })
        assert req.graph == "g" and req.tenant == "t"
        assert req.budget_class == "batch"
        assert req.deadline_seconds == 5.0

    @pytest.mark.parametrize("body", [
        None,
        [],
        {},
        {"ops": []},
        {"ops": "not-a-list"},
        {"ops": [{}], "deadline_seconds": "soon"},
        {"ops": [{}], "graph": 7},
    ])
    def test_parse_rejects_bad_shapes(self, body):
        with pytest.raises(ValueError):
            parse_ingest_body(body)
