"""Ablations of the design choices DESIGN.md calls out.

* **Compressed vs. uncompressed binding table** (Appendix A): the same
  aggregation computed through multiplicity-weighted accumulation vs.
  through materializing one row per witnessing path.
* **Filter pushdown on vs. off**: the Qn pattern with the source pinned
  at bind time vs. filtered after full expansion.
* **Weighted combine vs. repeated combines**: the accumulator-level
  micro-ablation behind the compressed table's win.
"""

import pytest

from repro.accum import SumAccum
from repro.core import (
    AccumTarget,
    AccumUpdate,
    AttrRef,
    Binary,
    EngineMode,
    EvalEnv,
    Literal,
    NameRef,
    QueryContext,
    chain,
    evaluate_pattern,
    hop,
)
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.exprs import Scope
from repro.core.pattern import Pattern
from repro.compile import CompileStats, compile_expr
from repro.compile.lowering import compile_accum_clause
from repro.core.stmts import InputBuffer
from repro.graph import builders

#: Large enough that the uncompressed table hurts, small enough for CI.
DIAMONDS = 12  # 2^12 = 4096 paths end to end


@pytest.fixture(scope="module")
def diamond():
    return builders.diamond_chain(DIAMONDS)


def kleene_pattern():
    return Pattern([chain("V", "s", hop("E>*", "V", "t"))])


def pin_source(var="s", name="v0"):
    pin = Binary("==", AttrRef(NameRef(var), "name"), Literal(name))
    # lowered once under its one-slot scope, as a SELECT block would
    return {var: [compile_expr(pin, None, Scope((var,)))]}


def count_kernel(ctx, buffer):
    """The Map kernel of ``ACCUM @@n += 1`` bound to ``ctx``/``buffer``."""
    statements = [AccumUpdate(AccumTarget("n"), "+=", Literal(1))]
    return compile_accum_clause(statements, {}, CompileStats(), Scope())(ctx, buffer)


def total_paths_compressed(graph):
    """Weighted accumulation over the compressed binding table."""
    ctx = QueryContext(graph)
    ctx.declare(AccumDecl("n", GLOBAL, lambda: SumAccum(0, int)))
    rows = evaluate_pattern(
        ctx, kleene_pattern(), EngineMode.counting(), pin_source()
    ).rows
    buffer = InputBuffer()
    kernel = count_kernel(ctx, buffer)
    env = EvalEnv(ctx)
    for values, multiplicity in rows:
        env.row = values
        kernel(env, multiplicity)
    buffer.flush()
    return ctx.global_accum("n").value


def total_paths_uncompressed(graph):
    """The conventional alternative: one acc-execution per witnessing
    path (μ repeated executions per compressed row)."""
    ctx = QueryContext(graph)
    ctx.declare(AccumDecl("n", GLOBAL, lambda: SumAccum(0, int)))
    rows = evaluate_pattern(
        ctx, kleene_pattern(), EngineMode.counting(), pin_source()
    ).rows
    buffer = InputBuffer()
    kernel = count_kernel(ctx, buffer)
    env = EvalEnv(ctx)
    for values, multiplicity in rows:
        env.row = values
        for _ in range(multiplicity):
            kernel(env, 1)
    buffer.flush()
    return ctx.global_accum("n").value


class TestCompressedVsUncompressed:
    def test_compressed(self, benchmark, diamond):
        benchmark.group = "ablation-binding-table"
        total = benchmark(total_paths_compressed, diamond)
        # paths from v0 to every vertex (hubs + intermediates): 2^(n+2) - 3
        assert total == 2 ** (DIAMONDS + 2) - 3

    def test_uncompressed(self, benchmark, diamond):
        benchmark.group = "ablation-binding-table"
        total = benchmark.pedantic(
            total_paths_uncompressed, args=(diamond,), rounds=3, iterations=1
        )
        assert total == 2 ** (DIAMONDS + 2) - 3


class TestPushdownAblation:
    def test_with_pushdown(self, benchmark, diamond):
        benchmark.group = "ablation-pushdown"

        def run():
            ctx = QueryContext(diamond)
            return len(
                evaluate_pattern(
                    ctx, kleene_pattern(), EngineMode.counting(), pin_source()
                ).rows
            )

        assert benchmark(run) == DIAMONDS * 3 + 1

    def test_without_pushdown(self, benchmark, diamond):
        benchmark.group = "ablation-pushdown"

        def run():
            ctx = QueryContext(diamond)
            table = evaluate_pattern(ctx, kleene_pattern(), EngineMode.counting())
            pin = Binary("==", AttrRef(NameRef("s"), "name"), Literal("v0"))
            keep = pin.closure(Scope(table.variables))[0]
            env = EvalEnv(ctx)
            kept = 0
            for values, _ in table.rows:
                env.row = values
                kept += bool(keep(env))
            return kept

        assert benchmark(run) == DIAMONDS * 3 + 1


class TestWeightedCombineAblation:
    MU = 100_000

    def test_weighted(self, benchmark):
        benchmark.group = "ablation-weighted-combine"

        def run():
            acc = SumAccum(0, int)
            for _ in range(100):
                acc.combine_weighted(3, self.MU)
            return acc.value

        assert benchmark(run) == 300 * self.MU

    def test_repeated(self, benchmark):
        benchmark.group = "ablation-weighted-combine"

        def run():
            acc = SumAccum(0, int)
            for _ in range(100):
                for _ in range(self.MU // 1000):  # scaled down 1000x for CI
                    acc.combine(3)
            return acc.value

        assert benchmark.pedantic(run, rounds=3, iterations=1) == 300 * (
            self.MU // 1000
        )
