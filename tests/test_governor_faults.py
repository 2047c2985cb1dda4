"""Chaos suite: deterministic fault injection at every engine site.

For every injection site in :data:`repro.governor.faults.SITES`, a
workload known to reach that site is first dry-run under an empty plan
to census the hit count, then re-run with the fault armed at hit
{0, 1, mid, last}.  After every injected failure the suite asserts the
abort-path invariants the tentpole promises:

* the fault surfaces as :class:`~repro.errors.InjectedFault` (or, for a
  threaded parallel worker, a :class:`~repro.errors.QueryRuntimeError`
  wrapping it with the partition index);
* no partial accumulator state leaked — snapshot semantics survive the
  abort;
* ``Query.run`` is re-runnable: the same query object, run again with
  no plan armed, produces the fault-free answer.
"""

import pytest

from repro.core.pattern import EngineMode
from repro.errors import InjectedFault, QueryAbortedError, QueryRuntimeError
from repro.governor import AbortReason, Budget, ExecutionGovernor, govern
from repro.governor.faults import SITES, FaultPlan, active, inject_faults
from repro.graph import builders
from repro.gsql import parse_query
from repro.paths.semantics import PathSemantics

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

FULL_BLOCK = """
CREATE QUERY full() {
  SumAccum<int> @hits;
  SumAccum<int> @@total;
  S = SELECT t FROM V:s -(E>)- V:t
      ACCUM t.@hits += 1
      POST-ACCUM @@total += t.@hits;
  PRINT @@total AS total;
}
"""

LOOP = """
CREATE QUERY loop() {
  SumAccum<int> @@i;
  WHILE @@i < 5 DO
    @@i += 1;
  END;
  PRINT @@i AS i;
}
"""


def _run_qn_counting(query, graph):
    return query.run(graph, srcName="v0", tgtName="v6")


def _run_qn_enum(query, graph):
    mode = EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
    return query.run(graph, mode=mode, srcName="v0", tgtName="v6")


def _run_plain(query, graph):
    return query.run(graph)


#: site -> (gsql text, runner, result extractor for the clean answer)
WORKLOADS = {
    "sdmc.level": (QN, _run_qn_counting,
                   lambda r: r.printed[0]["R"][0]["pathCount"]),
    "enum.expand": (QN, _run_qn_enum,
                    lambda r: r.printed[0]["R"][0]["pathCount"]),
    "block.accum_map": (FULL_BLOCK, _run_plain,
                        lambda r: r.printed[0]["total"]),
    "block.reduce": (FULL_BLOCK, _run_plain,
                     lambda r: r.printed[0]["total"]),
    "block.post_accum": (FULL_BLOCK, _run_plain,
                         lambda r: r.printed[0]["total"]),
    "while.iteration": (LOOP, _run_plain, lambda r: r.printed[0]["i"]),
}


def _census(site):
    """(query, runner, extract, clean_answer, hits at the site)."""
    text, runner, extract = WORKLOADS[site]
    graph = builders.diamond_chain(6)
    query = parse_query(text)
    with inject_faults(FaultPlan()) as plan:  # nothing armed: a dry run
        baseline = runner(query, graph)
    hits = plan.hit_count(site)
    return query, graph, runner, extract, extract(baseline), hits


def _injection_points(hits):
    """{0, 1, mid, last} clamped to the observed hit range."""
    return sorted({0, min(1, hits - 1), hits // 2, hits - 1})


class TestSiteCoverage:
    """Every cataloged site is exercised by some workload (the suite
    would silently skip sites otherwise)."""

    @pytest.mark.parametrize("site", sorted(WORKLOADS))
    def test_workload_reaches_site(self, site):
        *_, hits = _census(site)
        assert hits > 0, f"workload for {site} never reaches it"

    def test_parallel_worker_covered_separately(self):
        # parallel.worker is driven by TestParallelWorkerFaults below.
        assert "parallel.worker" in SITES

    def test_catalog_is_complete(self):
        # server.* sites fire in the query-service process and are
        # driven by tests/test_server_pool.py / test_server_service.py.
        server_sites = {s for s in SITES if s.startswith("server.")}
        assert server_sites == {
            "server.admission",
            "server.dispatch",
            "server.worker.crash",
            "server.worker.stall",
        }
        # Write-path sites fire in the mutation/WAL layer and are driven
        # by the crash-recovery sweep in tests/test_wal_recovery.py.
        write_sites = {s for s in SITES if s.split(".")[0] in ("wal", "mutation", "epoch")}
        assert write_sites == {
            "mutation.apply",
            "wal.append",
            "wal.rotate",
            "wal.fsync",
            "epoch.publish",
        }
        assert (
            set(WORKLOADS) | {"parallel.worker"} | server_sites | write_sites
            == set(SITES)
        )


class TestInjectedFaults:
    @pytest.mark.parametrize("site", sorted(WORKLOADS))
    def test_fault_at_each_position_then_rerunnable(self, site):
        query, graph, runner, extract, clean, hits = _census(site)
        for at in _injection_points(hits):
            plan = FaultPlan().inject(site, at=at)
            with inject_faults(plan):
                with pytest.raises(InjectedFault) as info:
                    runner(query, graph)
            assert info.value.site == site
            assert info.value.hit == at
            assert plan.fired and plan.fired[0].hit == at
            # Re-runnability: same Query object, clean run, right answer.
            assert extract(runner(query, graph)) == clean

    @pytest.mark.parametrize("site", sorted(WORKLOADS))
    def test_seeded_injection_is_deterministic(self, site):
        query, graph, runner, _, _, hits = _census(site)
        draws = []
        for _ in range(2):
            plan = FaultPlan(seed=1234).inject(site, at=None, horizon=hits)
            with inject_faults(plan):
                with pytest.raises(InjectedFault) as info:
                    runner(query, graph)
            draws.append(info.value.hit)
        assert draws[0] == draws[1]

    def test_deadline_action_aborts_through_governor(self):
        """action='deadline' at iteration k aborts with the *real*
        deadline reason, not an InjectedFault."""
        graph = builders.diamond_chain(6)
        query = parse_query(LOOP)
        gov = ExecutionGovernor(Budget())
        plan = FaultPlan().inject("while.iteration", at=3, action="deadline")
        with govern(gov), inject_faults(plan):
            with pytest.raises(QueryAbortedError) as info:
                query.run(graph)
        assert info.value.reason is AbortReason.DEADLINE
        assert gov.while_iterations == 4  # iterations 0..3 were charged
        # Re-runnable, ungoverned and clean:
        assert query.run(graph).printed[0]["i"] == 5

    def test_deadline_action_without_governor_raises_fault(self):
        graph = builders.diamond_chain(6)
        query = parse_query(LOOP)
        plan = FaultPlan().inject("while.iteration", at=0, action="deadline")
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                query.run(graph)


class TestContextCleanliness:
    """Snapshot semantics survive aborts: a fault before the Reduce
    phase leaves every accumulator at its pre-block value."""

    def _block_setup(self):
        from repro.accum import SumAccum
        from repro.core import QueryContext
        from repro.core.context import GLOBAL, VERTEX, AccumDecl
        from repro.core.block import SelectBlock
        from repro.core.exprs import Literal, NameRef
        from repro.core.pattern import Pattern, chain, hop
        from repro.core.stmts import AccumTarget, AccumUpdate

        graph = builders.diamond_chain(4)
        ctx = QueryContext(graph)
        ctx.declare(AccumDecl("seen", VERTEX, lambda: SumAccum(0)))
        ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0)))
        block = SelectBlock(
            Pattern([chain("V", "s", hop("E>", "V", "t"))]),
            select_var="t",
            accum=[
                AccumUpdate(AccumTarget("seen", NameRef("t")), "+=", Literal(1)),
                AccumUpdate(AccumTarget("total"), "+=", Literal(1)),
            ],
        )
        return graph, ctx, block

    @pytest.mark.parametrize(
        "site,at",
        [("block.accum_map", 0), ("block.accum_map", 1), ("block.reduce", 0)],
    )
    def test_no_partial_accumulator_state_after_fault(self, site, at):
        graph, ctx, block = self._block_setup()
        plan = FaultPlan().inject(site, at=at)
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                block.execute(ctx, EngineMode.counting())
        # The fault hit before (or during) Reduce: nothing flushed.
        assert ctx.global_accum("total").value == 0
        assert all(
            acc.value == 0 for acc in ctx._vertex_accums.get("seen", {}).values()
        )
        # The same context still works: a clean execution lands fully.
        block.execute(ctx, EngineMode.counting())
        assert ctx.global_accum("total").value > 0

    def test_scratch_partials_released_on_abort(self):
        """The Map buffer is cleared on the abort path — a later flush
        cannot replay half a Map phase."""
        from repro.core.stmts import InputBuffer

        graph, ctx, block = self._block_setup()
        captured = {}
        original_init = InputBuffer.__init__

        def spy_init(self):
            original_init(self)
            captured["buffer"] = self

        InputBuffer.__init__ = spy_init
        try:
            plan = FaultPlan().inject("block.reduce", at=0)
            with inject_faults(plan):
                with pytest.raises(InjectedFault):
                    block.execute(ctx, EngineMode.counting())
        finally:
            InputBuffer.__init__ = original_init
        assert len(captured["buffer"]) == 0

    def test_query_context_clean_after_full_query_fault(self):
        """End-to-end: an aborted Query.run never publishes partial
        accumulator state anywhere reachable (fresh context per run)."""
        graph = builders.diamond_chain(6)
        query = parse_query(FULL_BLOCK)
        with inject_faults(FaultPlan().inject("block.reduce", at=0)):
            with pytest.raises(InjectedFault):
                query.run(graph)
        result = query.run(graph)
        hits = result.vertex_accum("hits")
        assert all(v in (1, 2) for v in hits.values())


class TestParallelWorkerFaults:
    def _setup(self):
        from repro.accum import SumAccum
        from repro.core import QueryContext, evaluate_pattern
        from repro.core.context import GLOBAL, AccumDecl
        from repro.core.pattern import Pattern, chain, hop
        from repro.core.exprs import Literal
        from repro.core.stmts import AccumTarget, AccumUpdate

        graph = builders.diamond_chain(6)
        ctx = QueryContext(graph)
        ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0)))
        pattern = Pattern([chain("V", "s", hop("E>", "V", "t"))])
        rows = evaluate_pattern(ctx, pattern, EngineMode.counting())
        statements = [AccumUpdate(AccumTarget("total"), "+=", Literal(1))]
        return ctx, rows, statements

    @pytest.mark.parametrize("use_threads", [False, True])
    @pytest.mark.parametrize("at", [0, 1, 3])
    def test_worker_fault_leaves_accumulators_clean(self, use_threads, at):
        from repro.core.parallel import parallel_accum

        ctx, rows, statements = self._setup()
        plan = FaultPlan().inject("parallel.worker", at=at)
        with inject_faults(plan):
            with pytest.raises((InjectedFault, QueryRuntimeError)) as info:
                parallel_accum(
                    ctx, statements, rows, partitions=4,
                    use_threads=use_threads,
                )
        if use_threads:
            # Satellite: wrapped with the worker's partition index and
            # chained to the original fault.
            err = info.value
            assert isinstance(err, QueryRuntimeError)
            assert getattr(err, "partition", None) == at
            assert isinstance(err.__cause__, InjectedFault)
        # No partial merged: the Reduce never ran.
        assert ctx.global_accum("total").value == 0
        # Re-runnable on the same context.
        parallel_accum(ctx, statements, rows, partitions=4,
                       use_threads=use_threads)
        assert ctx.global_accum("total").value == len(rows)

    def test_sibling_workers_drain_on_failure(self):
        """A failing worker cancels/drains its siblings instead of
        letting them run to completion."""
        from repro.core.parallel import parallel_accum

        ctx, rows, statements = self._setup()
        plan = FaultPlan().inject("parallel.worker", at=0)
        with inject_faults(plan):
            with pytest.raises(QueryRuntimeError):
                parallel_accum(ctx, statements, rows, partitions=4,
                               use_threads=True)
        # Every armed partition either ran to the fault or was
        # cancelled/drained; nothing merged either way.
        assert ctx.global_accum("total").value == 0

    def test_governor_abort_passes_through_unwrapped(self):
        """A QueryAbortedError from a worker keeps its structured
        identity instead of being wrapped as a plain runtime error."""
        from repro.core.parallel import parallel_accum

        ctx, rows, statements = self._setup()
        gov = ExecutionGovernor(Budget(max_acc_executions=0))

        class _AbortingExpr:
            def closure(self, scope):
                def run(env):
                    gov.charge_acc_executions(1)
                    return 1

                return run, False

        from repro.core.stmts import AccumTarget, AccumUpdate

        statements = [AccumUpdate(AccumTarget("total"), "+=", _AbortingExpr())]
        with govern(gov):
            with pytest.raises(QueryAbortedError):
                parallel_accum(ctx, statements, rows, partitions=4,
                               use_threads=True)
        assert ctx.global_accum("total").value == 0


class TestFaultPlanApi:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultPlan().inject("no.such.site")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown action"):
            FaultPlan().inject("while.iteration", action="explode")

    def test_plan_scoping_restores_previous(self):
        assert active() is None
        outer = FaultPlan()
        inner = FaultPlan()
        with inject_faults(outer):
            assert active() is outer
            with inject_faults(inner):
                assert active() is inner
            assert active() is outer
        assert active() is None

    def test_inactive_by_default(self):
        """No plan installed: queries run fault-free (the module global
        stays None outside inject_faults)."""
        graph = builders.diamond_chain(4)
        result = parse_query(LOOP).run(graph)
        assert result.printed[0]["i"] == 5
