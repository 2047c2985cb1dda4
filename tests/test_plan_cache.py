"""Tests for the plan cache: LRU bounds, invalidation, isolation,
thread safety, and the server's warm-hit contract."""

import threading

import pytest

from repro.compile import (
    DEFAULT_CAPACITY,
    PlanCache,
    compile_query_text,
    plan_cache,
    reset_plan_cache,
)
from repro.graph import builders
from repro.graph.schema import GraphSchema
from repro.obs.metrics import Collector, collect

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


def query_text(name):
    return f"CREATE QUERY {name}() {{ PRINT \"{name}\"; }}"


@pytest.fixture(autouse=True)
def fresh_singleton():
    reset_plan_cache()
    yield
    reset_plan_cache()


class TestLookupAndStatus:
    def test_miss_then_hit(self):
        cache = PlanCache()
        first = cache.get_or_compile(QN)
        assert first.cache_status == "miss"
        second = cache.get_or_compile(QN)
        assert second is first
        assert second.cache_status == "hit"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_counters_charged_on_active_collector(self):
        cache = PlanCache()
        col = Collector()
        with collect(col):
            cache.get_or_compile(QN)
            cache.get_or_compile(QN)
        assert col.counters["compile.cache.miss"] == 1
        assert col.counters["compile.cache.hit"] == 1

    def test_cached_plan_still_runs(self):
        cache = PlanCache()
        graph = builders.diamond_chain(6)
        cache.get_or_compile(QN)
        plan = cache.get_or_compile(QN)
        result = plan.run(graph, srcName="v0", tgtName="v6")
        row = result.printed[0]["R"][0]
        assert row["pathCount"] == 64

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)


class TestEviction:
    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        a, b, c = query_text("A"), query_text("B"), query_text("C")
        cache.get_or_compile(a)
        cache.get_or_compile(b)
        cache.get_or_compile(a)  # touch A: B is now least-recent
        col = Collector()
        with collect(col):
            cache.get_or_compile(c)  # evicts B
        assert col.counters["compile.cache.eviction"] == 1
        assert len(cache) == 2
        # A and C survive; B was evicted and must recompile.
        assert cache.get_or_compile(a).cache_status == "hit"
        assert cache.get_or_compile(c).cache_status == "hit"
        assert cache.get_or_compile(b).cache_status == "miss"

    def test_eviction_count_in_stats(self):
        cache = PlanCache(capacity=1)
        for name in ("A", "B", "C"):
            cache.get_or_compile(query_text(name))
        assert cache.stats()["evictions"] == 2
        assert len(cache) == 1


class TestSchemaKeying:
    def make_schema(self):
        schema = GraphSchema("g")
        schema.vertex("Person", name="STRING")
        schema.edge("Knows", "Person", "Person")
        return schema

    def test_same_content_different_objects_share_plan(self):
        cache = PlanCache()
        first = cache.get_or_compile(QN, schema=self.make_schema())
        second = cache.get_or_compile(QN, schema=self.make_schema())
        assert second is first
        assert second.cache_status == "hit"

    def test_schema_content_isolates_entries(self):
        cache = PlanCache()
        schema_a = self.make_schema()
        schema_b = self.make_schema()
        schema_b.vertex("Company", name="STRING")
        first = cache.get_or_compile(QN, schema=schema_a)
        second = cache.get_or_compile(QN, schema=schema_b)
        assert second is not first
        assert second.cache_status == "miss"
        assert len(cache) == 2

    def test_schema_mutation_changes_key(self):
        cache = PlanCache()
        schema = self.make_schema()
        first = cache.get_or_compile(QN, schema=schema)
        schema.vertex("Company", name="STRING")  # bumps schema.version
        second = cache.get_or_compile(QN, schema=schema)
        assert second is not first
        assert second.cache_status == "miss"

    def test_schema_free_is_its_own_slot(self):
        cache = PlanCache()
        with_schema = cache.get_or_compile(QN, schema=self.make_schema())
        without = cache.get_or_compile(QN)
        assert without is not with_schema


class TestInvalidation:
    def test_analysis_epoch_drops_stale_plan(self):
        cache = PlanCache()
        plan = cache.get_or_compile(QN)
        plan.query.invalidate_analysis()
        assert plan.stale
        col = Collector()
        with collect(col):
            fresh = cache.get_or_compile(QN)
        assert fresh is not plan
        assert fresh.cache_status == "miss"
        assert col.counters["compile.cache.invalidated"] == 1
        assert cache.stats()["invalidations"] == 1

    def test_explicit_invalidate(self):
        cache = PlanCache()
        cache.get_or_compile(QN)
        assert cache.invalidate(QN) is True
        assert cache.invalidate(QN) is False
        assert cache.get_or_compile(QN).cache_status == "miss"

    def test_cross_query_isolation(self):
        cache = PlanCache()
        a = cache.get_or_compile(query_text("A"))
        b = cache.get_or_compile(query_text("B"))
        assert a is not b
        cache.invalidate(query_text("A"))
        assert cache.get_or_compile(query_text("B")).cache_status == "hit"

    def test_flags_isolate_entries(self):
        cache = PlanCache()
        plain = cache.get_or_compile(QN)
        flagged = cache.get_or_compile(QN, flags=("x",))
        assert flagged is not plain
        # Flag order does not matter.
        assert cache.get_or_compile(QN, flags=("b", "a")) is \
            cache.get_or_compile(QN, flags=("a", "b"))


class TestThreadSafety:
    def test_concurrent_get_or_compile(self):
        cache = PlanCache(capacity=8)
        texts = [query_text(f"T{i}") for i in range(4)]
        plans = {}
        errors = []
        barrier = threading.Barrier(8)

        def worker(idx):
            try:
                barrier.wait(timeout=10)
                for _ in range(25):
                    text = texts[idx % len(texts)]
                    plan = cache.get_or_compile(text)
                    plans.setdefault(text, plan)
                    assert plan.name == f"T{idx % len(texts)}"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(cache) == len(texts)
        stats = cache.stats()
        # Every lookup resolved to a hit or a miss, nothing lost.
        assert stats["hits"] + stats["misses"] == 8 * 25

    def test_concurrent_same_text_single_entry(self):
        cache = PlanCache()
        barrier = threading.Barrier(6)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(cache.get_or_compile(QN))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(cache) == 1
        # Duplicate compiles may race, but every returned plan runs.
        graph = builders.diamond_chain(4)
        for plan in results:
            assert plan.run(graph, srcName="v0", tgtName="v4").printed


class TestSingleton:
    def test_process_wide_instance(self):
        assert plan_cache() is plan_cache()
        assert plan_cache().capacity == DEFAULT_CAPACITY

    def test_reset_drops_instance(self):
        first = plan_cache()
        first.get_or_compile(QN)
        reset_plan_cache()
        assert plan_cache() is not first
        assert len(plan_cache()) == 0

    def test_compile_query_text_uses_singleton(self):
        plan = compile_query_text(QN)
        assert plan.cache_status == "miss"
        assert compile_query_text(QN) is plan


class TestServerIntegration:
    """The acceptance contract: a warm worker-pool hit skips
    parse/analyze entirely (compile.cache.hit pinned, zero analysis.*)."""

    GRAPHS = None

    def graphs(self):
        if TestServerIntegration.GRAPHS is None:
            TestServerIntegration.GRAPHS = {
                "default": builders.diamond_chain(6)
            }
        return TestServerIntegration.GRAPHS

    def job(self, request_id):
        from repro.server.protocol import Job

        return Job(
            request_id, QN, "default",
            {"srcName": "v0", "tgtName": "v6"}, "counting", {},
        )

    def test_warm_hit_skips_parse_and_analysis(self):
        from repro.server.pool import execute_job

        cold = execute_job(self.job("r1"), self.graphs())
        assert cold["outcome"] == "ok"
        assert cold["counters"]["compile.cache.miss"] == 1
        assert cold["counters"]["compile.blocks"] == 1

        warm = execute_job(self.job("r2"), self.graphs())
        assert warm["outcome"] == "ok"
        assert warm["counters"]["compile.cache.hit"] == 1
        # Zero re-entry: no lowering, no analysis model builds.
        assert not any(
            k.startswith(("compile.blocks", "compile.exprs", "analysis."))
            for k in warm["counters"]
        )
        assert warm["result"] == cold["result"]

    def test_compile_request_field_is_ignored_like_any_unknown_key(self):
        from repro.server.app import parse_request_body

        plain = parse_request_body({"query": QN})
        assert parse_request_body({"query": QN, "compile": False}) == plain
        assert parse_request_body({"query": QN, "compile": "no"}) == plain
        assert not hasattr(plain, "compile")

    def test_lint_error_unaffected_by_cache(self):
        from repro.server.pool import execute_job
        from repro.server.protocol import Job

        bad = Job("bad-1", "CREATE QUERY b() { @@nope += 1; PRINT 1; }",
                  "default", {}, "counting", {})
        reply = execute_job(bad, self.graphs())
        assert reply["outcome"] == "lint-error"
        assert reply["diagnostics"]
        # The verdict is cached with the plan: the second submission
        # still reports the lint error without re-analyzing.
        again = execute_job(bad._replace(request_id="bad-2"), self.graphs())
        assert again["outcome"] == "lint-error"
        assert again["diagnostics"] == reply["diagnostics"]
        assert again["counters"].get("compile.cache.hit") == 1
