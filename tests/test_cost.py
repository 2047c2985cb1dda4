"""Static cost & cardinality analysis: the Interval domain, Qn's
Theorem 7.1 *predicted* statically (ACCUM work linear in n, paths
exponential), runtime bracketing, ``ExecutionGovernor.from_certificate``
auto-budgets, the planner's cost tie-break, budget screening, and the
plan-cache certificate stash."""

import pytest

from repro.analysis.cost import (
    ENUMERATION_ENGINES,
    analyze_cost,
    budget_breaches,
)
from repro.analysis.model import cached_model
from repro.compile import compile_query, compile_query_text, reset_plan_cache
from repro.core.pattern import EngineMode
from repro.core.planner import select_engine
from repro.core.tractable import (
    COST_CAP,
    CostCertificate,
    CostConfidence,
    Interval,
    attach_cost_certificates,
)
from repro.governor import ExecutionGovernor, govern
from repro.graph import builders
from repro.graph.stats import stats_snapshot
from repro.gsql import parse_query
from repro.obs import Collector, collect

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


def qn_certificate(n):
    query = parse_query(QN)
    stats = stats_snapshot(builders.diamond_chain(n))
    attach_cost_certificates(query, stats=stats)
    return query, stats, query.cost_certificate


# ======================================================================
# The abstract domain
# ======================================================================
class TestInterval:
    def test_exact_and_upto(self):
        assert Interval.exact(5) == Interval(5, 5)
        assert Interval.upto(9) == Interval(0, 9)
        assert Interval.upto(None) == Interval(0, None)
        assert not Interval.upto(None).bounded
        assert Interval.exact(0).bounded

    def test_add(self):
        assert Interval(1, 2).add(Interval(3, 4)) == Interval(4, 6)
        assert Interval(1, None).add(Interval(3, 4)) == Interval(4, None)

    def test_mul(self):
        assert Interval(2, 3).mul(Interval(4, 5)) == Interval(8, 15)
        assert Interval(2, 3).mul(Interval(0, None)) == Interval(0, None)

    def test_cost_cap_clamps_blowup(self):
        huge = Interval(0, COST_CAP)
        assert huge.mul(huge).hi == COST_CAP
        assert huge.add(huge).hi == COST_CAP
        assert Interval.upto(COST_CAP * 10).hi == COST_CAP

    def test_join_is_union_hull(self):
        assert Interval(2, 5).join(Interval(4, 9)) == Interval(2, 9)
        assert Interval(2, 5).join(Interval(0, None)) == Interval(0, None)

    def test_cap_intersects_upper_bound(self):
        assert Interval(0, None).cap(7) == Interval(0, 7)
        assert Interval(0, 3).cap(7) == Interval(0, 3)
        assert Interval(0, 9).cap(7) == Interval(0, 7)
        assert Interval(0, 9).cap(None) == Interval(0, 9)

    def test_contains_brackets_runtime_values(self):
        assert Interval(2, 5).contains(2)
        assert Interval(2, 5).contains(5)
        assert not Interval(2, 5).contains(6)
        assert Interval(0, None).contains(10**40)

    def test_describe_and_to_list(self):
        assert Interval(1, None).describe() == "[1, inf]"
        assert Interval(1, None).to_list() == [1, None]


class TestConfidence:
    def test_meet_takes_weakest(self):
        cf, est, unb = (
            CostConfidence.CLOSED_FORM,
            CostConfidence.ESTIMATED,
            CostConfidence.UNBOUNDED,
        )
        assert cf.meet(est) is est
        assert est.meet(cf) is est
        assert cf.meet(unb) is unb
        assert cf.meet(cf) is cf
        assert cf.rank > est.rank > unb.rank


# ======================================================================
# Theorem 7.1, predicted statically
# ======================================================================
class TestQnStaticPrediction:
    """On the diamond chain the *certificate alone* separates counting
    work (linear in n) from path multiplicity (exponential in n)."""

    def test_statistics_close_the_bounds(self):
        _, stats, cert = qn_certificate(10)
        assert cert.confidence is CostConfidence.CLOSED_FORM
        assert cert.stats_fingerprint == stats.fingerprint
        for interval in (
            cert.frontier,
            cert.product_states,
            cert.paths,
            cert.acc_executions,
            cert.accum_bytes,
        ):
            assert interval.bounded

    def test_structural_stamp_leaves_graph_bounds_open(self):
        query = parse_query(QN)
        assert query.cost_certificate is None  # left to its first reader
        plan = compile_query(query)
        cert = plan.cost_for()  # the first reader stamps structurally
        assert cert is query.cost_certificate is plan.cost_certificate
        assert cert.stats_fingerprint is None
        assert cert.confidence is CostConfidence.UNBOUNDED
        assert cert.frontier.hi is None

    def test_profiling_a_fresh_query_still_predicts(self):
        from repro.obs import profile_query

        report = profile_query(
            parse_query(QN), builders.diamond_chain(4),
            srcName="v0", tgtName="v4",
        )
        assert report.cost is not None
        assert report.cost["confidence"] == "unbounded"
        assert report.cost["stats_fingerprint"] is None
        assert report.cost["metrics"]["acc_executions"] == {
            "predicted": [0, None], "observed": 1, "within": True,
        }
        # Stamped before the profiled run, outside its collector.
        assert "cost.analyses" not in report.collector.counters

    def test_predicted_acc_work_is_polynomial_in_n(self):
        # The diamond chain has 3n+1 vertices; the ACCUM bound is the
        # binding-row bound |S| x |T| = (3n+1)^2 — quadratic, with
        # constant second differences of 18.  Polynomial work is the
        # counting half of Theorem 7.1.
        his = [qn_certificate(n)[2].acc_executions.hi for n in range(4, 12)]
        assert his == [(3 * n + 1) ** 2 for n in range(4, 12)]
        firsts = [b - a for a, b in zip(his, his[1:])]
        assert {b - a for a, b in zip(firsts, firsts[1:])} == {18}

    def test_predicted_paths_grow_exponentially(self):
        # ... while the predicted path multiplicity at least doubles per
        # level: the certificate separates the two growth rates without
        # ever running the query.
        certs = [qn_certificate(n)[2] for n in range(4, 12)]
        his = [c.paths.hi for c in certs]
        for smaller, larger in zip(his, his[1:]):
            assert larger >= 2 * smaller
        # The gap between enumeration and counting work diverges.
        ratios = [c.paths.hi / c.acc_executions.hi for c in certs]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 100 * ratios[0]

    def test_memoised_per_fingerprint(self):
        query = parse_query(QN)
        stats = stats_snapshot(builders.diamond_chain(6))
        model = cached_model(query, None)
        col = Collector()
        with collect(col):
            first = analyze_cost(model, stats=stats)
        assert col.counters["cost.analyses"] == 1
        warm = Collector()
        with collect(warm):
            second = analyze_cost(model, stats=stats)
        assert second is first
        assert not any(k.startswith("cost.") for k in warm.counters)

    def test_counters_tier_the_confidence(self):
        query = parse_query(QN)
        stats = stats_snapshot(builders.diamond_chain(6))
        col = Collector()
        with collect(col):
            analyze_cost(cached_model(query, None), stats=stats)
        assert col.counters["cost.tier.closed-form"] == 1
        assert col.counters["cost.blocks"] >= 1


# ======================================================================
# Soundness: predictions bracket the runtime counters
# ======================================================================
class TestBracketing:
    def test_counting_run_lands_inside_prediction(self):
        query, _, cert = qn_certificate(10)
        graph = builders.diamond_chain(10)
        with collect() as col:
            result = query.run(graph, srcName="v0", tgtName="v10")
        assert result.printed[0]["R"] == [{"name": "v10", "pathCount": 2**10}]
        assert cert.acc_executions.contains(
            col.counter("block.acc_executions")
        )
        assert cert.product_states.contains(
            col.counter("sdmc.product_states")
        )

    def test_enumeration_run_lands_inside_prediction(self):
        query, _, cert = qn_certificate(8)
        graph = builders.diamond_chain(8)
        with collect() as col:
            query.run(
                graph,
                mode=EngineMode.enumeration(),
                srcName="v0",
                tgtName="v8",
            )
        assert cert.paths.contains(col.counter("enum.paths_emitted"))


# ======================================================================
# ExecutionGovernor.from_certificate — repro run --auto-budget
# ======================================================================
class TestAutoBudget:
    def cert(self, **overrides):
        fields = dict(
            confidence=CostConfidence.CLOSED_FORM,
            frontier=Interval(0, 10),
            product_states=Interval(0, 100),
            paths=Interval(0, 1000),
            acc_executions=Interval(0, 20),
            accum_bytes=Interval(0, 4096),
            stats_fingerprint="f",
        )
        fields.update(overrides)
        return CostCertificate(**fields)

    def test_caps_are_headroom_times_predicted_hi(self):
        budget = ExecutionGovernor.from_certificate(
            self.cert(), headroom=2.0
        ).budget
        assert budget.max_acc_executions == 40
        assert budget.max_product_states == 200
        assert budget.max_paths == 2000
        assert budget.max_accum_bytes == 8192

    def test_unbounded_prediction_leaves_cap_unset(self):
        budget = ExecutionGovernor.from_certificate(
            self.cert(paths=Interval(0, None))
        ).budget
        assert budget.max_paths is None
        assert budget.max_product_states is not None

    def test_none_certificate_is_unlimited(self):
        gov = ExecutionGovernor.from_certificate(None)
        assert gov.budget.is_unlimited

    def test_zero_prediction_still_allows_one_unit(self):
        budget = ExecutionGovernor.from_certificate(
            self.cert(paths=Interval.exact(0))
        ).budget
        assert budget.max_paths == 1

    def test_auto_budget_completes_qn(self):
        # The acceptance criterion behind ``repro run --auto-budget``:
        # caps derived from the certificate never abort a run the
        # prediction brackets.
        query, _, cert = qn_certificate(12)
        gov = ExecutionGovernor.from_certificate(cert, headroom=2.0)
        with govern(gov):
            result = query.run(
                builders.diamond_chain(12), srcName="v0", tgtName="v12"
            )
        assert gov.aborted is None
        assert result.printed[0]["R"] == [{"name": "v12", "pathCount": 2**12}]


# ======================================================================
# budget_breaches — the server admission screen's core
# ======================================================================
class TestBudgetBreaches:
    BUDGET = {
        "max_acc_executions": 50,
        "max_product_states": 50,
        "max_paths": 50,
        "max_accum_bytes": 10**6,
    }

    def cert(self, paths=Interval(0, 10**6)):
        return CostCertificate(
            confidence=CostConfidence.CLOSED_FORM,
            frontier=Interval(0, 10),
            product_states=Interval(0, 10),
            paths=paths,
            acc_executions=Interval(0, 10),
            accum_bytes=Interval(0, 100),
            stats_fingerprint="f",
        )

    def test_paths_cap_only_binds_enumeration_engines(self):
        assert budget_breaches(self.cert(), self.BUDGET, engine="counting") == []
        for engine in ("nrv", "nre", "asp-enum"):
            assert engine in ENUMERATION_ENGINES
            breaches = budget_breaches(self.cert(), self.BUDGET, engine=engine)
            assert [(m, cap) for m, _, cap in breaches] == [("paths", 50)]

    def test_unbounded_prediction_never_breaches(self):
        # Soundness of the screen: only *finite* proofs reject.
        breaches = budget_breaches(
            self.cert(paths=Interval(0, None)), self.BUDGET, engine="nrv"
        )
        assert breaches == []

    def test_uncapped_budget_never_breaches(self):
        assert budget_breaches(self.cert(), {}, engine="nrv") == []


# ======================================================================
# Planner tie-break on the prediction
# ======================================================================
class TestPlannerTieBreak:
    def qn_block(self):
        query = parse_query(QN)
        for stmt in query.statements:
            block = getattr(stmt, "block", None)
            if block is not None:
                return block
        raise AssertionError("Qn has a SELECT block")

    def stamp(self, block, paths_hi, product_hi, fingerprint="f"):
        block.cost_certificate = CostCertificate(
            confidence=CostConfidence.CLOSED_FORM,
            frontier=Interval(0, 10),
            product_states=Interval(0, product_hi),
            paths=Interval(0, paths_hi),
            acc_executions=Interval(0, 10),
            accum_bytes=Interval(0, 100),
            stats_fingerprint=fingerprint,
        )

    def test_fewer_predicted_paths_select_enumeration(self):
        block = self.qn_block()
        self.stamp(block, paths_hi=10, product_hi=1000)
        col = Collector()
        with collect(col):
            mode = select_engine(block, None, EngineMode.auto())
        assert mode.kind == EngineMode.ENUMERATION
        assert col.counters["planner.auto_cost_tiebreak"] == 1

    def test_structural_certificate_never_tiebreaks(self):
        block = self.qn_block()
        self.stamp(block, paths_hi=10, product_hi=1000, fingerprint=None)
        col = Collector()
        with collect(col):
            mode = select_engine(block, None, EngineMode.auto())
        assert mode.kind == EngineMode.COUNTING
        assert "planner.auto_cost_tiebreak" not in col.counters

    def test_more_predicted_paths_keep_counting(self):
        block = self.qn_block()
        self.stamp(block, paths_hi=10**9, product_hi=1000)
        with collect():
            mode = select_engine(block, None, EngineMode.auto())
        assert mode.kind == EngineMode.COUNTING


# ======================================================================
# Plan cache: the certificate rides the cached plan
# ======================================================================
class TestPlanCacheStash:
    @pytest.fixture(autouse=True)
    def fresh_singleton(self):
        reset_plan_cache()
        yield
        reset_plan_cache()

    def test_warm_hit_reuses_certificate_without_reanalysis(self):
        stats = stats_snapshot(builders.diamond_chain(6))
        cold = Collector()
        with collect(cold):
            first = compile_query_text(QN).cost_for(stats)
        assert cold.counters["cost.analyses"] >= 1
        warm = Collector()
        with collect(warm):
            second = compile_query_text(QN).cost_for(stats)
        assert second == first
        assert second.stats_fingerprint == stats.fingerprint
        assert not any(k.startswith("cost.") for k in warm.counters)

    def test_server_stash_counter_free_screen(self):
        # The server's cost screen rides the same fast path: once the
        # plan cache holds the certificate for the current fingerprint,
        # screening repeat traffic re-runs no analysis.
        stats = stats_snapshot(builders.diamond_chain(6))
        compiled = compile_query_text(QN)
        compiled.cost_for(stats)
        warm = Collector()
        with collect(warm):
            cert = compile_query_text(QN).cost_for(stats)
        assert budget_breaches(cert, {"max_paths": 10}, engine="nrv")
        assert not any(k.startswith("cost.") for k in warm.counters)

    def test_fresh_fingerprint_invalidates_the_stash(self):
        stats6 = stats_snapshot(builders.diamond_chain(6))
        stats7 = stats_snapshot(builders.diamond_chain(7))
        assert stats6.fingerprint != stats7.fingerprint
        compile_query_text(QN).cost_for(stats6)
        col = Collector()
        with collect(col):
            cert = compile_query_text(QN).cost_for(stats7)
        assert cert.stats_fingerprint == stats7.fingerprint
        assert col.counters["cost.analyses"] >= 1


# ======================================================================
# Lint rules W050-W052 over the certificates
# ======================================================================
W50 = """CREATE QUERY w50(string srcName) {
  ListAccum<string> @@names;
  R = SELECT t FROM V:s -(E>*)- V:t
      ACCUM @@names += t.name;
  PRINT @@names;
}
"""

W51 = """CREATE QUERY w51() {
  Frontier = SELECT s FROM V:s;
  WHILE Frontier.size() > 0 DO
    Frontier = SELECT t FROM Frontier:s -(E>)- V:t;
  END;
  PRINT Frontier;
}
"""

W52 = """CREATE QUERY w52() {
  MapAccum<string, string> @seen;
  R = SELECT t FROM V:s -(E>)- V:m -(E>)- V:t
      ACCUM t.@seen += (s.name -> s.name);
  PRINT R.size();
}
"""


def lint_codes(src, stats=None):
    from repro.analysis import analyze

    return [d.code for d in analyze(parse_query(src), stats=stats)]


class TestCostRules:
    @pytest.fixture(scope="class")
    def dense_stats(self):
        return stats_snapshot(builders.complete_graph(120))

    def test_w050_predicted_intractable_enumeration(self):
        assert "GSQL-W050" in lint_codes(W50)

    def test_w051_unbounded_predicted_iterations(self):
        assert lint_codes(W51) == ["GSQL-W051"]

    def test_w051_silent_with_limit(self):
        bounded = W51.replace(
            "WHILE Frontier.size() > 0 DO",
            "WHILE Frontier.size() > 0 LIMIT 10 DO",
        )
        assert "GSQL-W051" not in lint_codes(bounded)

    def test_w052_predicted_accumulator_memory(self, dense_stats):
        assert lint_codes(W52, stats=dense_stats) == ["GSQL-W052"]
        # The structural stamp cannot bound the bytes, so without
        # statistics the rule stays silent instead of guessing.
        assert lint_codes(W52) == []

    def test_qn_corpus_query_stays_clean(self):
        assert lint_codes(QN) == []


class TestCostRuleSuppressions:
    def test_w050_file_suppression(self):
        assert "GSQL-W050" not in lint_codes(
            "// lint: disable-file=GSQL-W050\n" + W50
        )

    def test_w051_file_suppression(self):
        assert lint_codes("// lint: disable-file=GSQL-W051\n" + W51) == []

    def test_w052_file_suppression(self):
        stats = stats_snapshot(builders.complete_graph(120))
        assert (
            lint_codes("// lint: disable-file=GSQL-W052\n" + W52, stats=stats)
            == []
        )

    def test_suppression_is_code_specific(self):
        assert "GSQL-W051" in lint_codes(
            "// lint: disable-file=GSQL-W050\n" + W51
        )
