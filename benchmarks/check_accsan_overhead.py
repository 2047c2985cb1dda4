#!/usr/bin/env python
"""Guard AccSan's off path: a disabled sanitizer must be free.

AccSan hooks every accumulator write of the ACCUM Map phase and of
POST_ACCUM — one kernel, one hook.  The kernel's bind stage reads the
calling context's sanitizer once per block phase
(``repro._exec.current().san``) and picks the row function then: with no
sanitizer bound a write goes straight to the sink's ``add`` / ``set``
(docs/static_analysis.md, "Effect analysis & AccSan").  On a Reduce-heavy
workload this script

1. asserts that binding with no sanitizer makes the write tail the sink's
   own method, and with one a recording wrapper around it,
2. times the shipped kernel bound where the sanitizer is off against the
   same kernel bound under ``_exec.NULL`` (nothing bound), in interleaved
   blocks over the diamond-chain edge workload — a Map phase, its Reduce
   and a POST_ACCUM clause run by the engine's ``run_post_accum`` — and
   asserts the median overhead is below the threshold (default 5%), and
3. cross-checks correctness: the two agree on every accumulator value,
   and a run *with* a sanitizer records one event per write and verifies
   the commutative Reduce.

Exit status 0 = within budget, 1 = overhead or correctness failure.

Usage:  python benchmarks/check_accsan_overhead.py [--threshold 0.05]
        [--blocks 21] [--calls-per-block 60]
"""

import argparse
import statistics
import sys
import time

from repro import _exec, accsan
from repro.accum import MaxAccum, SumAccum
from repro.compile import CompileStats
from repro.compile.lowering import _writer, compile_accum_clause
from repro.core import QueryContext
from repro.core.context import GLOBAL, VERTEX, AccumDecl
from repro.core.exprs import EvalEnv, Literal, NameRef, Scope
from repro.core.pattern import (
    EngineMode, Pattern, chain, evaluate_pattern, hop,
)
from repro.core.stmts import (
    AccumTarget, AccumUpdate, InputBuffer, LocalAssign, run_post_accum,
)
from repro.graph import builders


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


def post_clause(table):
    """``POST_STATEMENTS`` as ``run_post_accum`` takes a clause: one
    ``(kernel binder, dependency slots)`` pair per statement."""
    scope = Scope(table.variables)
    return [
        (compile_accum_clause([stmt], {}, CompileStats(), scope, post=True),
         [table.slot("t")])
        for stmt in POST_STATEMENTS
    ]


def sink_direct_when_off():
    """Whether writes go through the sink's own methods with no sanitizer
    bound, and through a recorder with one."""
    buffer, target = InputBuffer(), AccumTarget("total")
    off = [_writer(buffer, None, "accum", target, op) for op in ("+=", "=")]
    on = _writer(buffer, accsan.Sanitizer(), "accum", target, "+=")
    return off == [buffer.add, buffer.set] and on != buffer.add


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


def run_once(bind, post, ctx, table, **bound):
    """Map, Reduce, then the POST_ACCUM clause over the same rows, with
    ``bound`` bound in the calling context (nothing: ``_exec.NULL``)."""
    token = _exec.bind(**bound)
    try:
        run_map(bind, ctx, table).flush()
        run_post_accum(post, ctx, table.rows, {})
    finally:
        _exec.reset(token)


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

    if not sink_direct_when_off():
        print("FAIL: binding with no sanitizer does not write through the sink",
              file=sys.stderr)
        return 1

    # --- correctness: sanitizer-off == reference ------------------------
    ctx_off, rows, statements = build_workload(args.n)
    scope = Scope(rows.variables)
    shipped = compile_accum_clause(statements, {}, CompileStats(), scope)
    shipped_post = post_clause(rows)
    run_once(shipped, shipped_post, ctx_off, rows, san=None)
    ctx_ref, _, _ = build_workload(args.n)
    run_once(shipped, shipped_post, ctx_ref, rows)
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
    instrumented = lambda: run_once(shipped, shipped_post, ctx, rows, san=None)  # noqa: E731
    reference = lambda: run_once(shipped, shipped_post, ctx, rows)  # noqa: E731
    timed_block(instrumented, args.calls_per_block)  # warm caches
    timed_block(reference, args.calls_per_block)

    t_instr, t_ref = [], []
    for _ in range(args.blocks):
        t_instr.append(timed_block(instrumented, args.calls_per_block))
        t_ref.append(timed_block(reference, args.calls_per_block))
    med_instr = statistics.median(t_instr)
    med_ref = statistics.median(t_ref)
    overhead = med_instr / med_ref - 1.0

    with accsan.sanitize(schedules=4):  # the reference binds nothing of its own
        t_on = timed_block(reference, args.calls_per_block)

    per_call_us = med_ref / args.calls_per_block * 1e6
    print(f"reference map + post   : {per_call_us:8.1f} us/call (median of "
          f"{args.blocks} x {args.calls_per_block}, {len(rows)} rows)")
    print(f"instrumented, san off  : "
          f"{med_instr / args.calls_per_block * 1e6:8.1f} us/call "
          f"({overhead:+.1%} vs reference)")
    print(f"instrumented, san on   : "
          f"{t_on / args.calls_per_block * 1e6:8.1f} us/call "
          f"(context, not asserted)")
    print(f"correctness            : sink-direct when off, {expected_events} "
          f"events/run, verified reduces, values agree — all OK")

    if overhead > args.threshold:
        print(f"FAIL: sanitizer-off overhead {overhead:.1%} exceeds "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"OK: sanitizer-off overhead {overhead:+.1%} within "
          f"{args.threshold:.0%} budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
