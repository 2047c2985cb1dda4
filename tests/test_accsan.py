"""Tests for AccSan, the runtime accumulator-schedule sanitizer.

The sanitizer replays every Reduce phase under K permuted schedules and
checks the outcome against the block's static effect certificate:
certified-COMMUTATIVE blocks must agree on every schedule (divergence is
a violation — the certificate is wrong), ORDER_DEPENDENT blocks are
expected to diverge (divergence is a detection — the certificate is
confirmed dynamically).
"""

import pathlib

import pytest

from repro import _exec, accsan
from repro.accum import MaxAccum, SumAccum
from repro.cli import main
from repro.compile import CompileStats
from repro.compile.lowering import _writer, compile_accum_clause
from repro.core import QueryContext
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.exprs import EvalEnv, Literal, NameRef, Scope
from repro.core.pattern import EngineMode, Pattern, chain, evaluate_pattern, hop
from repro.core.stmts import (
    AccumTarget, AccumUpdate, InputBuffer, LocalAssign, run_post_accum,
)
from repro.core.tractable import DeterminismCertificate, DeterminismStatus
from repro.errors import AccSanViolation
from repro.graph import builders
from repro.graph.io import save_graph_json
from repro.gsql import parse_query
from repro.obs import metrics

REPO = pathlib.Path(__file__).resolve().parent.parent

ORDER_DEPENDENT_SRC = """
CREATE QUERY trace() {
  ListAccum<STRING> @@trace;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@trace += s.name;
  PRINT @@trace;
}"""

COMMUTATIVE_SRC = """
CREATE QUERY count_edges() {
  SumAccum<int> @@edges;
  MaxAccum<int> @degree;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@edges += 1, t.@degree += 1;
  PRINT @@edges;
}"""


def first_block(query):
    for stmt in query.statements:
        block = getattr(stmt, "block", None)
        if block is not None:
            return block
    raise AssertionError("query has no SELECT block")


class TestSanitizeScope:
    def test_binding_installed_and_restored(self):
        assert _exec.current().san is None
        with accsan.sanitize() as san:
            assert _exec.current().san is san
            with accsan.sanitize(schedules=2) as inner:
                assert _exec.current().san is inner
            assert _exec.current().san is san
        assert _exec.current().san is None

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with accsan.sanitize():
                raise RuntimeError("boom")
        assert _exec.current().san is None

    def test_rejects_zero_schedules(self):
        with pytest.raises(ValueError):
            accsan.Sanitizer(schedules=0)

    def test_off_path_records_nothing(self):
        g = builders.diamond_chain(3)
        q = parse_query(COMMUTATIVE_SRC)
        q.run(g)  # no sanitizer active: must not raise, nothing recorded
        assert _exec.current().san is None


class TestReplay:
    def test_commutative_block_verifies(self):
        g = builders.diamond_chain(4)
        q = parse_query(COMMUTATIVE_SRC)
        with metrics.collect() as col:
            with accsan.sanitize(schedules=8) as san:
                q.run(g)
        assert san.verified >= 1
        assert not san.detections
        assert san.events  # write points recorded
        assert col.counter("accsan.events") == len(san.events)
        assert col.counter("accsan.verified") == san.verified

    def test_order_dependent_block_detected(self):
        g = builders.diamond_chain(4)
        q = parse_query(ORDER_DEPENDENT_SRC)
        with accsan.sanitize(schedules=8) as san:
            q.run(g)
        [detection] = san.detections
        assert detection.accumulator == "@@trace"
        assert detection.status == "order-dependent"
        assert detection.expected_digest != detection.observed_digest
        assert "DETECTED" in san.report()

    def test_forged_commutative_certificate_raises_violation(self):
        g = builders.diamond_chain(4)
        q = parse_query(ORDER_DEPENDENT_SRC)
        first_block(q).effect_certificate = DeterminismCertificate(
            DeterminismStatus.COMMUTATIVE, ("forged stamp",)
        )
        with pytest.raises(AccSanViolation) as info:
            with accsan.sanitize(schedules=8):
                q.run(g)
        exc = info.value
        assert exc.accumulator == "@@trace"
        assert exc.schedule >= 0
        assert exc.expected_digest != exc.observed_digest
        assert "forged stamp" in str(exc)

    def test_conflicting_assignments_detected(self):
        # last-write-wins '=' over unordered rows: E040's dynamic face
        g = builders.diamond_chain(4)
        q = parse_query("""
CREATE QUERY lastwins() {
  SumAccum<FLOAT> @@last;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM @@last = s.outdegree();
  PRINT @@last;
}""")
        with accsan.sanitize() as san:
            q.run(g)
        assert any(
            d.accumulator == "@@last" and d.schedule == -1
            for d in san.detections
        )

    def test_single_input_reduce_is_trivially_verified(self):
        g = builders.diamond_chain(2)
        q = parse_query("""
CREATE QUERY single() {
  SumAccum<int> @@n;
  R = SELECT t FROM V:s -(E>)- V:t
      WHERE s.name == "v0" AND t.name == "d0t"
      ACCUM @@n += 1;
  PRINT @@n;
}""")
        with accsan.sanitize() as san:
            q.run(g)
        # one buffered input: permutations are the identity, no checks
        assert not san.detections

    def test_post_accum_writes_recorded(self):
        g = builders.diamond_chain(3)
        q = parse_query("""
CREATE QUERY post() {
  SumAccum<int> @total;
  MaxAccum<int> @@peak;
  R = SELECT t FROM V:s -(E>)- V:t
      ACCUM t.@total += 1
      POST_ACCUM @@peak += t.@total;
  PRINT @@peak;
}""")
        with accsan.sanitize() as san:
            q.run(g)
        assert any(e.site == "post_accum" for e in san.events)


class TestMergeOrder:
    def test_commutative_merge_verifies(self):
        san = accsan.Sanitizer(schedules=8)
        live = SumAccum(0.0)
        partials = []
        for v in (0.1, 0.2, 0.3, 0.4):
            part = SumAccum(0.0)
            part.combine(v)
            partials.append(part)
        cert = DeterminismCertificate(DeterminismStatus.COMMUTATIVE, ("ok",))
        san.check_merge("@@total", live, partials, cert, "parallel_accum")
        assert san.verified == 1
        assert live.value == 0.0  # clones only; the live accum is untouched

    def test_order_dependent_merge_raises_on_forged_certificate(self):
        san = accsan.Sanitizer(schedules=8)

        # ListAccum has no merge; emulate an order-dependent one on top
        # of string SumAccum (whose real merge refuses for this reason).
        class OrderedMerge(SumAccum):
            def __init__(self):
                super().__init__("", element_type=str)

            def merge(self, other):
                self._value = self._value + other._value

        live = OrderedMerge()
        partials = []
        for tag in ("a", "b", "c"):
            part = OrderedMerge()
            part.combine(tag)
            partials.append(part)
        cert = DeterminismCertificate(DeterminismStatus.COMMUTATIVE, ("no",))
        with pytest.raises(AccSanViolation):
            san.check_merge("@@concat", live, partials, cert, "parallel_accum")

    def test_parallel_accum_merge_checked_under_sanitizer(self):
        from repro.core import QueryContext
        from repro.core.context import GLOBAL, AccumDecl
        from repro.core.exprs import Literal
        from repro.core.parallel import parallel_accum
        from repro.core.pattern import (
            EngineMode, Pattern, chain, evaluate_pattern, hop,
        )
        from repro.core.stmts import AccumTarget, AccumUpdate

        g = builders.sales_graph()
        ctx = QueryContext(g)
        ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
        pattern = Pattern(
            [chain("Customer", "c", hop("Bought>", "Product", "p"))]
        )
        rows = evaluate_pattern(ctx, pattern, EngineMode.counting())
        statements = [AccumUpdate(AccumTarget("total"), "+=", Literal(1.0))]
        cert = DeterminismCertificate(DeterminismStatus.COMMUTATIVE, ("ok",))
        with accsan.sanitize(schedules=4) as san:
            parallel_accum(ctx, statements, rows, partitions=4,
                           certificate=cert)
        assert san.verified >= 1
        assert ctx.global_accum("total").value == float(len(rows))


class TestCorpus:
    """Every COMMUTATIVE-certified block in the repo corpus must pass the
    K=8 permuted-schedule digest check (the PR's acceptance bar)."""

    def test_examples_and_paper_queries_verify(self):
        import re

        sources = []
        for path in sorted((REPO / "examples").iterdir()):
            text = path.read_text()
            if path.suffix == ".gsql":
                sources.append(text)
            elif path.suffix == ".py":
                for m in re.finditer(r'("""|\'\'\')(.*?)\1', text, re.S):
                    if "CREATE QUERY" in m.group(2):
                        sources.append(m.group(2))
        assert sources
        g = builders.diamond_chain(4)
        ran = 0
        for src in sources:
            query = parse_query(src)
            try:
                with accsan.sanitize(schedules=8):
                    query.run(g)  # AccSanViolation would propagate
                ran += 1
            except AccSanViolation:
                raise
            except Exception:
                # Queries needing schemas/parameters this graph lacks
                # still exercise nothing nondeterministically; skip them.
                continue
        assert ran >= 1


class TestCli:
    def test_run_sanitize_reports(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        save_graph_json(builders.diamond_chain(4), str(graph))
        rc = main([
            "run", str(REPO / "examples" / "order_dependent_trace.gsql"),
            "--graph", str(graph), "--sanitize", "--sanitize-schedules", "4",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "AccSan:" in err
        assert "DETECTED @@visitTrace" in err

    def test_run_sanitize_violation_exits_3(self, tmp_path, capsys,
                                            monkeypatch):
        import repro.cli as cli_mod

        graph = tmp_path / "g.json"
        save_graph_json(builders.diamond_chain(4), str(graph))
        real_load = cli_mod._load_query

        def forged(path):
            query = real_load(path)
            first_block(query).effect_certificate = DeterminismCertificate(
                DeterminismStatus.COMMUTATIVE, ("forged",)
            )
            return query

        monkeypatch.setattr(cli_mod, "_load_query", forged)
        rc = main([
            "run", str(REPO / "examples" / "order_dependent_trace.gsql"),
            "--graph", str(graph), "--sanitize",
        ])
        assert rc == 3
        assert "AccSan violation" in capsys.readouterr().err


def test_one_seed_gives_the_same_findings_on_every_run():
    """A replay's schedules follow from the seed and the group's place in
    its flush, not from where its accumulator lives in memory: with one
    schedule each two-input group is caught or verified by a coin flip,
    and every run of the same query flips the same coins."""
    q = parse_query("""
CREATE QUERY seen() {
  ListAccum<STRING> @seen;
  R = SELECT t FROM V:s -(E>)- V:t ACCUM t.@seen += s.name;
  PRINT R;
}""")
    runs, kept = set(), []
    for _ in range(8):
        graph = builders.diamond_chain(6)
        with accsan.sanitize(schedules=1, seed=11) as san:
            q.run(graph)
        kept.append((graph, san))  # alive, so no run reuses an address
        runs.add((san.verified, tuple(san.detections)))
    [(verified, detections)] = runs
    assert verified and detections


def test_the_write_tail_is_the_sink_unless_a_sanitizer_is_bound():
    buffer, target = InputBuffer(), AccumTarget("total")
    assert _writer(buffer, None, "accum", target, "+=") == buffer.add
    assert _writer(buffer, None, "accum", target, "=") == buffer.set
    san = accsan.Sanitizer()
    recorder = _writer(buffer, san, "accum", target, "+=")
    assert recorder != buffer.add
    recorder(SumAccum(0), 1, 1)
    assert [e.site for e in san.events] == ["accum"]


def run_edge_clauses(san=None):
    """ACCUM ``w = 1.0, @@total += w, t.@deg += 1`` over the diamond
    chain's edge rows, its Reduce, then POST_ACCUM ``t.@deg += 1``, driven
    the way a SELECT block drives the lowered kernels.  Returns the
    binding table and the accumulator values."""
    ctx = QueryContext(builders.diamond_chain(12))
    ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
    ctx.declare(AccumDecl("deg", VERTEX, MaxAccum))
    table = evaluate_pattern(
        ctx, Pattern([chain("V", "s", hop("E>", "V", "t"))]), EngineMode.counting()
    )
    scope = Scope(table.variables)
    bump = AccumUpdate(AccumTarget("deg", NameRef("t")), "+=", Literal(1))
    accum = compile_accum_clause(
        [LocalAssign("w", Literal(1.0)),
         AccumUpdate(AccumTarget("total"), "+=", NameRef("w")), bump],
        {}, CompileStats(), scope,
    )
    post = [(compile_accum_clause([bump], {}, CompileStats(), scope, post=True),
             [table.slot("t")])]
    buffer = InputBuffer()
    kernel, env = accum(ctx, buffer), EvalEnv(ctx)
    for values, multiplicity in table.rows:
        env.row = values
        kernel(env, multiplicity)
    if san is not None:
        san.check_flush(None, buffer)  # what the block executor does
    buffer.flush()
    run_post_accum(post, ctx, table.rows, {})
    return table, (ctx.global_accum("total").value, dict(ctx.vertex_accum_values("deg")))


def test_a_sanitized_run_records_every_write_and_changes_nothing():
    _, plain = run_edge_clauses()
    with accsan.sanitize(schedules=4) as san:
        table, sanitized = run_edge_clauses(san)
    assert sanitized == plain
    # Two ACCUM writes per row, then one POST_ACCUM write per distinct t.
    targets = {values[table.slot("t")].vid for values, _ in table.rows}
    accum_writes = 2 * len(table.rows)
    assert len(san.events) == accum_writes + len(targets)
    assert [e.site for e in san.events[accum_writes:]] == ["post_accum"] * len(targets)
    assert san.verified >= 1 and not san.detections
