"""Worker pool: pipeline outcomes, crash detection, straggler kill."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.governor.faults import FaultPlan, inject_faults
from repro.graph import builders
from repro.server.pool import WorkerPool, execute_job
from repro.server.protocol import Job, OutcomeKind

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


@pytest.fixture(scope="module")
def graphs():
    return {"default": builders.diamond_chain(6)}


def _job(request_id="j1", query=QN, graph="default", params=None,
         engine="counting", budget=None, attempt=1):
    if params is None:
        params = {"srcName": "v0", "tgtName": "v5"}
    return Job(request_id, query, graph, dict(params), engine,
               dict(budget or {}), attempt)


class TestExecuteJob:
    """execute_job is the whole worker pipeline: parse -> check ->
    govern -> execute, with every failure mode mapped to an outcome."""

    def test_ok_reply_carries_result_and_counters(self, graphs):
        reply = execute_job(_job(), graphs)
        assert reply["outcome"] == OutcomeKind.OK.value
        printed = reply["result"]["printed"]
        assert printed == [{"R": [{"name": "v5", "pathCount": 32}]}]
        assert reply["counters"]  # obs counters merged into the reply
        assert reply["elapsed_ms"] >= 0

    def test_unknown_graph_is_bad_request(self, graphs):
        reply = execute_job(_job(graph="nope"), graphs)
        assert reply["outcome"] == OutcomeKind.BAD_REQUEST.value
        assert "default" in reply["error"]["message"]

    def test_unknown_engine_is_bad_request(self, graphs):
        reply = execute_job(_job(engine="warp"), graphs)
        assert reply["outcome"] == OutcomeKind.BAD_REQUEST.value

    def test_parse_error_is_lint_outcome(self, graphs):
        reply = execute_job(_job(query="CREATE QUERY broken("), graphs)
        assert reply["outcome"] == OutcomeKind.LINT_ERROR.value

    def test_analysis_error_is_lint_outcome(self, graphs):
        # E011: += outside ACCUM context is an error-severity diagnostic.
        bad = """
CREATE QUERY bad() {
  SumAccum<int> @@total;
  R = SELECT s FROM V:s
      WHERE s.@undeclared > 0;
  PRINT R;
}
"""
        reply = execute_job(_job(query=bad, params={}), graphs)
        assert reply["outcome"] == OutcomeKind.LINT_ERROR.value
        assert reply["diagnostics"]

    def test_bad_param_is_runtime_error(self, graphs):
        reply = execute_job(_job(params={"bogus": 1}), graphs)
        assert reply["outcome"] == OutcomeKind.RUNTIME_ERROR.value

    def test_budget_breach_is_aborted_with_reason(self, graphs):
        reply = execute_job(
            _job(engine="nrv", budget={"max_paths": 1}), graphs
        )
        assert reply["outcome"] == OutcomeKind.ABORTED.value
        assert reply["abort"]["reason"] == "paths"
        assert reply["abort"]["limit"] == "max_paths"

    def test_deadline_budget_reported(self, graphs):
        reply = execute_job(
            _job(budget={"deadline_seconds": 0.000001}), graphs
        )
        assert reply["outcome"] == OutcomeKind.ABORTED.value
        assert reply["abort"]["reason"] == "deadline"


class TestThreadPool:
    def test_dispatch_roundtrip(self, graphs):
        pool = WorkerPool(size=2, mode="thread", graphs=graphs)
        try:
            res = pool.dispatch(_job(), queue_wait=2.0, run_wait=30.0)
            assert res.kind is OutcomeKind.OK
            assert res.reply["outcome"] == "ok"
            assert res.worker
        finally:
            pool.shutdown()

    def test_crash_site_detects_and_respawns(self, graphs):
        pool = WorkerPool(size=1, mode="thread", graphs=graphs)
        try:
            plan = FaultPlan(seed=1)
            plan.inject("server.worker.crash", at=0)
            with inject_faults(plan):
                res = pool.dispatch(_job(), queue_wait=2.0, run_wait=30.0)
                assert res.kind is OutcomeKind.WORKER_CRASHED
                # The pool replaced the corpse; the next job succeeds.
                res = pool.dispatch(_job(), queue_wait=5.0, run_wait=30.0)
                assert res.kind is OutcomeKind.OK
            stats = pool.stats()
            assert stats["crashes"] == 1
            assert stats["respawns"] == 1
        finally:
            pool.shutdown()

    def test_stall_site_kills_straggler(self, graphs):
        pool = WorkerPool(size=1, mode="thread", graphs=graphs)
        try:
            plan = FaultPlan(seed=2)
            plan.inject("server.worker.stall", at=0)
            with inject_faults(plan):
                res = pool.dispatch(_job(), queue_wait=2.0, run_wait=30.0)
                assert res.kind is OutcomeKind.STRAGGLER
                res = pool.dispatch(_job(), queue_wait=5.0, run_wait=30.0)
                assert res.kind is OutcomeKind.OK
            assert pool.stats()["stragglers"] == 1
        finally:
            pool.shutdown()

    def test_dispatch_site_forces_deadline(self, graphs):
        pool = WorkerPool(size=1, mode="thread", graphs=graphs)
        try:
            plan = FaultPlan(seed=3)
            plan.inject("server.dispatch", at=0)
            with inject_faults(plan):
                res = pool.dispatch(_job(), queue_wait=2.0, run_wait=30.0)
                assert res.kind is OutcomeKind.DEADLINE_AT_DISPATCH
                # The worker was returned to the idle set untouched.
                res = pool.dispatch(_job(), queue_wait=2.0, run_wait=30.0)
                assert res.kind is OutcomeKind.OK
            assert pool.stats()["crashes"] == 0
        finally:
            pool.shutdown()

    def test_no_idle_worker_is_dispatch_deadline(self, graphs):
        pool = WorkerPool(size=1, mode="thread", graphs=graphs)
        try:
            # Steal the only worker so the idle queue is empty.
            worker = pool._idle.get()
            res = pool.dispatch(_job(), queue_wait=0.01, run_wait=1.0)
            assert res.kind is OutcomeKind.DEADLINE_AT_DISPATCH
            pool._idle.put(worker)
        finally:
            pool.shutdown()

    def test_stale_reply_not_delivered_to_next_request(self, graphs):
        """After a straggler kill, the dead worker's late reply must
        never surface for a different request (cross-wiring)."""
        pool = WorkerPool(size=1, mode="thread", graphs=graphs)
        try:
            plan = FaultPlan(seed=4)
            plan.inject("server.worker.stall", at=0)
            with inject_faults(plan):
                res = pool.dispatch(
                    _job(request_id="victim"), queue_wait=2.0, run_wait=30.0
                )
                assert res.kind is OutcomeKind.STRAGGLER
                res = pool.dispatch(
                    _job(request_id="innocent"), queue_wait=5.0, run_wait=30.0
                )
                assert res.kind is OutcomeKind.OK
                assert res.reply["request_id"] == "innocent"
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self, graphs):
        pool = WorkerPool(size=2, mode="thread", graphs=graphs)
        pool.shutdown()
        pool.shutdown()
        res = pool.dispatch(_job(), queue_wait=0.05, run_wait=0.1)
        assert res.kind in (
            OutcomeKind.SHED_DRAINING,
            OutcomeKind.DEADLINE_AT_DISPATCH,
        )

    def test_invalid_config_rejected(self, graphs):
        with pytest.raises(ValueError):
            WorkerPool(size=0, mode="thread", graphs=graphs)
        with pytest.raises(ValueError):
            WorkerPool(size=1, mode="carrier-pigeon", graphs=graphs)
        with pytest.raises(ValueError):
            WorkerPool(size=1, mode="process")  # no graph_paths


class TestProcessPool:
    """The production transport: real processes, real crash detection."""

    @pytest.fixture(scope="class")
    def graph_paths(self, tmp_path_factory):
        from repro.graph.io import save_graph_json

        path = tmp_path_factory.mktemp("serve") / "diamond.json"
        save_graph_json(builders.diamond_chain(6), path)
        return {"default": str(path)}

    @pytest.fixture(scope="class")
    def pool(self, graph_paths):
        pool = WorkerPool(size=2, mode="process", graph_paths=graph_paths)
        yield pool
        pool.shutdown()

    def test_dispatch_roundtrip(self, pool):
        res = pool.dispatch(_job(), queue_wait=5.0, run_wait=60.0)
        assert res.kind is OutcomeKind.OK
        assert res.reply["result"]["printed"] == [
            {"R": [{"name": "v5", "pathCount": 32}]}
        ]

    def test_kill_is_detected_and_respawned(self, pool):
        before = pool.stats()["respawns"]
        plan = FaultPlan(seed=9)
        plan.inject("server.worker.crash", at=0)
        with inject_faults(plan):
            res = pool.dispatch(_job(), queue_wait=5.0, run_wait=60.0)
            assert res.kind is OutcomeKind.WORKER_CRASHED
            res = pool.dispatch(_job(), queue_wait=10.0, run_wait=60.0)
            assert res.kind is OutcomeKind.OK
        assert pool.stats()["respawns"] == before + 1
        assert pool.stats()["alive"] == 2

    def test_worker_globals_reset_after_fork(self, pool):
        """A job dispatched while the *parent* has active engine scopes
        must run cleanly: the fork handshake clears the context the
        worker inherited (otherwise it would charge its own copy of the
        parent's collector, and nest its governor under the parent's)."""
        from repro.obs.metrics import Collector, collect

        parent_col = Collector()
        with collect(parent_col):
            res = pool.dispatch(_job(), queue_wait=5.0, run_wait=60.0)
        assert res.kind is OutcomeKind.OK
        assert res.reply["outcome"] == "ok"
        # The worker's charges arrived in the reply, not in the
        # parent's collector.
        assert res.reply["counters"]
        assert "pattern.seed_vertices" not in parent_col.counters


def test_process_worker_graphs_are_frozen_out_of_the_collector(tmp_path):
    # A process worker's graphs live as long as it does: after the load
    # they sit in the permanent generation, so no full collection walks
    # them again (a thread pool's graphs are never frozen).
    import gc

    from repro.graph.io import save_graph_json
    from repro.server.pool import _load_worker_graphs

    path = tmp_path / "g.json"
    save_graph_json(builders.diamond_chain(3), path)
    try:
        graph = _load_worker_graphs({"default": str(path)})["default"]
        vertex = next(iter(graph.vertices()))
        assert gc.is_tracked(graph) and gc.is_tracked(vertex)
        assert gc.get_freeze_count() > 0
        collectable = {id(obj) for obj in gc.get_objects()}
        assert id(graph) not in collectable and id(vertex) not in collectable
    finally:
        gc.unfreeze()


def test_the_serving_process_imports_the_engine_before_it_forks():
    # A process worker is forked from the serving process: whatever
    # repro.server.pool has imported by then, every worker (and every
    # respawn) inherits compiled.  A job must therefore reach no module
    # the pool did not import — a cold text under the cost screen, a
    # lint error and a warm plan-cache hit alike.
    bad = """
CREATE QUERY bad() {
  SumAccum<int> @@total;
  R = SELECT s FROM V:s
      WHERE s.@undeclared > 0;
  PRINT R;
}
"""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
from repro.graph import builders
from repro.server.pool import execute_job
from repro.server.protocol import Job

graphs = {{"default": builders.diamond_chain(6)}}
before = set(sys.modules)
params = {{"srcName": "v0", "tgtName": "v5"}}
outcomes = [
    execute_job(
        Job("j", text, "default", dict(args), "counting", {{"max_paths": 10**9}},
            cost_screen=True),
        graphs,
    )["outcome"]
    for text, args in (({QN!r}, params), ({bad!r}, {{}}), ({QN!r}, params))
]
assert outcomes == ["ok", "lint-error", "ok"], outcomes
late = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
sys.exit(f"imported after the fork point: {{late}}" if late else 0)
"""
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
