#!/usr/bin/env python
"""Guard AccSan's no-op fast path: a disabled sanitizer must be free.

AccSan hooks every accumulator write of the ACCUM Map phase and of
POST_ACCUM — one kernel, one hook — with the same pattern the
observability layer uses: the kernel's bind stage reads the calling
context's sanitizer once per block phase
(``repro._exec.current().san``) and each write pays one ``is not None``
comparison on that closed-over local when no sanitizer is active
(docs/static_analysis.md, "Effect analysis & AccSan").  This script
enforces the contract on a Reduce-heavy workload:

1. keeps a verbatim *unsanitized* copy of the Map kernel's accumulator
   write (``repro.compile.lowering._compile_accum_update`` minus the
   bind stage's context read and the per-write check) in this file,
2. interleaves timed blocks of the shipped kernel (sanitizer off) with
   the reference copy over the diamond-chain edge workload — a Map
   phase, its Reduce, and a POST_ACCUM clause driven by the engine's own
   ``run_post_accum``,
3. asserts the median overhead is below the threshold (default 5%), and
4. cross-checks correctness: sanitizer off and the reference agree on
   every accumulator value, and a run *with* a sanitizer records one
   event per write and verifies the commutative Reduce.

Exit status 0 = within budget, 1 = overhead or correctness failure.

Usage:  python benchmarks/check_accsan_overhead.py [--threshold 0.05]
        [--blocks 21] [--calls-per-block 60]
"""

import argparse
import statistics
import sys
import time

from repro import accsan
from repro.accum import MaxAccum, SumAccum
from repro.compile import CompileStats
from repro.compile.exprc import compile_closure
from repro.compile.lowering import (
    _clause_scope, _compile_acc_statement, compile_accum_clause,
)
from repro.core import QueryContext
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.exprs import EvalEnv, Literal, NameRef, Scope
from repro.core.pattern import (
    EngineMode, Pattern, chain, evaluate_pattern, hop,
)
from repro.core.stmts import (
    AccumTarget, AccumUpdate, InputBuffer, LocalAssign, run_post_accum,
)
from repro.errors import QueryRuntimeError
from repro.graph import builders
from repro.graph.elements import Vertex


def shipped_kernel(statements, scope, post=False):
    return compile_accum_clause(statements, {}, CompileStats(), scope, post)


def reference_kernel(statements, scope, post=False):
    """The shipped kernel with every accumulator write replaced by
    :func:`_reference_accum_update` — the baseline an ideal zero-cost
    sanitizer hook matches.  Other statement kinds go through the
    shipped binders, so the copy cannot silently drift."""
    stats = CompileStats()
    scope = _clause_scope(scope, statements)
    binders = [
        _reference_accum_update(stmt, stats, scope)
        if isinstance(stmt, AccumUpdate)
        else _compile_acc_statement(stmt, {}, stats, scope, post)
        for stmt in statements
    ]

    def bind(ctx, buffer):
        runs = [b(ctx, buffer) for b in binders]

        def run_all(env, multiplicity):
            env.locals.clear()
            for run in runs:
                run(env, multiplicity)

        return run_all

    return bind


def _reference_accum_update(stmt, stats, scope):
    """Verbatim copy of ``_compile_accum_update`` minus the bind stage's
    ``_exec.current()`` read and the per-write sanitizer check."""
    name = stmt.target.name
    is_add = stmt.op == "+="
    value_fn, _ = compile_closure(stmt.expr, stats, scope)

    if stmt.target.is_global:
        def bind_global(ctx, buffer):
            add = buffer.add
            set_ = buffer.set

            def run(env, multiplicity, _cell=[]):
                value = value_fn(env)
                if not _cell:
                    _cell.append(ctx.global_accum(name))
                acc = _cell[0]
                if is_add:
                    add(acc, value, multiplicity)
                else:
                    set_(acc, value)

            return run

        return bind_global

    base_fn, _ = compile_closure(stmt.target.base, stats, scope)

    def bind_vertex(ctx, buffer):
        add = buffer.add
        set_ = buffer.set
        resolve = ctx.vertex_accum_resolver(name)

        def run(env, multiplicity):
            value = value_fn(env)
            vertex = base_fn(env)
            if not isinstance(vertex, Vertex):
                raise QueryRuntimeError(
                    f"accumulator @{name} addressed through non-vertex "
                    f"{type(vertex).__name__}"
                )
            acc = resolve(vertex.vid)
            if is_add:
                add(acc, value, multiplicity)
            else:
                set_(acc, value)

        return run

    return bind_vertex


def build_workload(n):
    g = builders.diamond_chain(n)
    ctx = QueryContext(g)
    ctx.declare(AccumDecl("total", GLOBAL, lambda: SumAccum(0.0)))
    ctx.declare(AccumDecl("deg", VERTEX, MaxAccum))
    pattern = Pattern([chain("V", "s", hop("E>", "V", "t"))])
    table = evaluate_pattern(ctx, pattern, EngineMode.counting())
    statements = [
        LocalAssign("w", Literal(1.0)),
        AccumUpdate(AccumTarget("total"), "+=", NameRef("w")),
        AccumUpdate(AccumTarget("deg", NameRef("t")), "+=", Literal(1)),
    ]
    return ctx, table, statements


#: The POST_ACCUM clause of the workload, one write per distinct ``t``:
#: the statement shares the Map kernel's lowering, so it shares the hook.
POST_STATEMENTS = [AccumUpdate(AccumTarget("deg", NameRef("t")), "+=", Literal(1))]


def post_clause(kernel, table):
    """``POST_STATEMENTS`` as ``run_post_accum`` takes a clause: one
    ``(kernel binder, dependency slots)`` pair per statement, built by
    ``kernel`` (:func:`shipped_kernel` or :func:`reference_kernel`)."""
    scope = Scope(table.variables)
    return [
        (kernel([stmt], scope, post=True), [table.slot("t")])
        for stmt in POST_STATEMENTS
    ]


def run_map(bind, ctx, rows):
    """One Map phase the way a SELECT block drives it: bind the kernel
    once, re-point one environment at each row; returns the buffer
    holding the inputs."""
    buffer = InputBuffer()
    kernel = bind(ctx, buffer)
    env = EvalEnv(ctx)
    for values, multiplicity in rows:
        env.row = values
        kernel(env, multiplicity)
    return buffer


def run_once(bind, post, ctx, table):
    """Map, Reduce, then the POST_ACCUM clause over the same rows."""
    run_map(bind, ctx, table).flush()
    run_post_accum(post, ctx, table.rows, {})


def accum_values(ctx):
    return ctx.global_accum("total").value, dict(ctx.vertex_accum_values("deg"))


def timed_block(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="maximum tolerated relative overhead (0.05 = 5%%)")
    parser.add_argument("--blocks", type=int, default=21,
                        help="interleaved timing blocks per variant")
    parser.add_argument("--calls-per-block", type=int, default=60)
    parser.add_argument("--n", type=int, default=12,
                        help="diamond-chain size (4n edge rows)")
    args = parser.parse_args(argv)

    # --- correctness: sanitizer-off == reference ------------------------
    ctx_off, rows, statements = build_workload(args.n)
    scope = Scope(rows.variables)
    shipped = shipped_kernel(statements, scope)
    shipped_post = post_clause(shipped_kernel, rows)
    reference_bind = reference_kernel(statements, scope)
    reference_post = post_clause(reference_kernel, rows)
    run_once(shipped, shipped_post, ctx_off, rows)
    ctx_ref, _, _ = build_workload(args.n)
    run_once(reference_bind, reference_post, ctx_ref, rows)
    if accum_values(ctx_off) != accum_values(ctx_ref):
        print("FAIL: sanitizer-off run diverges from the reference",
              file=sys.stderr)
        return 1

    # --- correctness: sanitizer-on records and verifies -----------------
    ctx_on, _, _ = build_workload(args.n)
    with accsan.sanitize(schedules=4) as san:
        buffer = run_map(shipped, ctx_on, rows)
        # The block executor hands the sanitizer the buffer right
        # before the flush; this workload drives the phase by hand, so
        # do the same (block=None: divergences would be detections).
        san.check_flush(None, buffer)
        buffer.flush()
        run_post_accum(shipped_post, ctx_on, rows.rows, {})
    if accum_values(ctx_on) != accum_values(ctx_ref):
        print("FAIL: sanitized run changed the result", file=sys.stderr)
        return 1
    # Two AccumUpdates per row, one POST_ACCUM write per distinct ``t``.
    targets = {values[rows.slot("t")].vid for values, _ in rows.rows}
    post_events = len(POST_STATEMENTS) * len(targets)
    expected_events = 2 * len(rows) + post_events
    if len(san.events) != expected_events:
        print(f"FAIL: sanitizer recorded {len(san.events)} events, "
              f"expected {expected_events}", file=sys.stderr)
        return 1
    if [e.site for e in san.events[2 * len(rows):]] != ["post_accum"] * post_events:
        print("FAIL: POST_ACCUM writes were not recorded as post_accum events",
              file=sys.stderr)
        return 1
    if san.verified < 1 or san.detections:
        print(f"FAIL: commutative workload verified={san.verified} "
              f"detections={len(san.detections)}", file=sys.stderr)
        return 1

    # --- overhead: interleaved medians, sanitizer off -------------------
    ctx, rows, statements = build_workload(args.n)
    instrumented = lambda: run_once(shipped, shipped_post, ctx, rows)  # noqa: E731
    reference = lambda: run_once(reference_bind, reference_post, ctx, rows)  # noqa: E731
    timed_block(instrumented, args.calls_per_block)  # warm caches
    timed_block(reference, args.calls_per_block)

    t_instr, t_ref = [], []
    for _ in range(args.blocks):
        t_instr.append(timed_block(instrumented, args.calls_per_block))
        t_ref.append(timed_block(reference, args.calls_per_block))
    med_instr = statistics.median(t_instr)
    med_ref = statistics.median(t_ref)
    overhead = med_instr / med_ref - 1.0

    with accsan.sanitize(schedules=4):
        t_on = timed_block(instrumented, args.calls_per_block)

    per_call_us = med_ref / args.calls_per_block * 1e6
    print(f"reference map + post   : {per_call_us:8.1f} us/call (median of "
          f"{args.blocks} x {args.calls_per_block}, {len(rows)} rows)")
    print(f"instrumented, san off  : "
          f"{med_instr / args.calls_per_block * 1e6:8.1f} us/call "
          f"({overhead:+.1%} vs reference)")
    print(f"instrumented, san on   : "
          f"{t_on / args.calls_per_block * 1e6:8.1f} us/call "
          f"(context, not asserted)")
    print(f"correctness            : {expected_events} events/run, "
          f"verified reduces, values agree — all OK")

    if overhead > args.threshold:
        print(f"FAIL: sanitizer-off overhead {overhead:.1%} exceeds "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"OK: sanitizer-off overhead {overhead:+.1%} within "
          f"{args.threshold:.0%} budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
