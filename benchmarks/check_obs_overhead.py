#!/usr/bin/env python
"""Guard the repro.obs no-op fast path: instrumentation must be free when off.

The observability layer's design contract (docs/observability.md) is that
every instrumented site reads the calling context's record once per engine
call (``repro._exec.current().col``) — per SDMC call, per hop, per block —
and never per row, edge, or product state, so running with no collector installed costs nothing
measurable.  This script enforces that on the E1 counting workload:

1. keeps a verbatim *uninstrumented* copy of the SDMC product-BFS kernel
   (the hot loop of the counting engine) in this file,
2. interleaves timed blocks of the instrumented kernel (collector off)
   with the reference copy over the 30-diamond chain,
3. asserts the median overhead is below the threshold (default 5%), and
4. cross-checks counter correctness: the instrumented kernel under a
   collector must agree with the reference on results and report the
   product-state count the reference observed.

Exit status 0 = within budget, 1 = overhead or correctness failure.

Usage:  python benchmarks/check_obs_overhead.py [--threshold 0.05]
        [--blocks 21] [--calls-per-block 200]
"""

import argparse
import statistics
import sys
import time

from repro.algorithms.traversal import path_count_query
from repro.darpe.automaton import CompiledDarpe
from repro.graph import builders
from repro.obs import Collector, collect, profile_query
from repro.paths import single_source_sdmc
from repro.paths.sdmc import SdmcResult, column_plan


def reference_sdmc(graph, source, darpe, targets=None, max_length=None):
    """Verbatim copy of ``sdmc_search`` plus the result-building return
    of ``single_source_sdmc`` — the same flat level loop over the shipped
    ``column_plan`` (which has no touchpoint of its own).  The lines that
    differ from the shipped kernel: no ``_exec.current()`` read; no
    ``peak_frontier`` / ``edges_scanned`` initialisation, and no
    ``edges_scanned += len(neighbors)`` or ``peak_frontier`` update under
    ``if col is not None``; no ``gov.charge_product_states`` (start state
    or per level); no ``_faults.fire("sdmc.level")``; no ``try`` /
    ``finally`` counter flush; no type annotations.  That is the baseline
    an ideal zero-cost instrumentation matches.  Returns the results and
    the number of product states visited."""
    graph.vertex(source)
    dfa = darpe.new_dfa()
    plans = {}
    accepting = {}
    distances = {}
    counts = {}
    remaining = set(targets) if targets is not None else None

    start = (source, dfa.start)
    level = 0
    visited = {start}
    frontier = {start: 1}

    while frontier:
        for (vid, q), count in frontier.items():
            hit = accepting.get(q)
            if hit is None:
                hit = accepting[q] = dfa.is_accepting(q)
            if not hit:
                continue
            if vid not in counts:
                distances[vid] = level
                counts[vid] = count
                if remaining is not None:
                    remaining.discard(vid)
            elif distances[vid] == level:
                counts[vid] += count
        if remaining is not None and not remaining:
            break
        if max_length is not None and level >= max_length:
            break
        next_frontier = {}
        reached = next_frontier.get
        for (vid, q), count in frontier.items():
            plan = plans.get(q)
            if plan is None:
                plan = plans[q] = column_plan(graph, dfa, q)
            for q2, probe in plan:
                bucket = probe(vid)
                if bucket is None:
                    continue
                neighbors = bucket[0]
                for neighbor in neighbors:
                    ps = (neighbor, q2)
                    if ps in visited:
                        continue
                    next_frontier[ps] = reached(ps, 0) + count
        level += 1
        visited.update(next_frontier)
        frontier = next_frontier

    results = {
        vid: SdmcResult(distance, counts[vid])
        for vid, distance in distances.items()
        if targets is None or vid in targets
    }
    return results, len(visited)


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
    parser.add_argument("--calls-per-block", type=int, default=200)
    parser.add_argument("--n", type=int, default=30,
                        help="diamond-chain size (E1 uses 30)")
    args = parser.parse_args(argv)

    graph = builders.diamond_chain(args.n)
    darpe = CompiledDarpe.parse("E>*")

    # --- correctness: instrumented-off == reference ---------------------
    ref_results, ref_states = reference_sdmc(graph, "v0", darpe)
    off_results = single_source_sdmc(graph, "v0", darpe)
    if off_results != ref_results:
        print("FAIL: instrumented kernel (collector off) diverges from "
              "the reference results", file=sys.stderr)
        return 1

    # --- correctness: counters match what the reference observed --------
    col = Collector()
    with collect(col):
        on_results = single_source_sdmc(graph, "v0", darpe)
    if on_results != ref_results:
        print("FAIL: instrumented kernel (collector on) diverges from "
              "the reference results", file=sys.stderr)
        return 1
    if col.counter("sdmc.calls") != 1:
        print(f"FAIL: sdmc.calls = {col.counter('sdmc.calls')}, expected 1",
              file=sys.stderr)
        return 1
    if col.counter("sdmc.product_states") != ref_states:
        print(f"FAIL: sdmc.product_states = "
              f"{col.counter('sdmc.product_states')}, reference visited "
              f"{ref_states}", file=sys.stderr)
        return 1

    report = profile_query(path_count_query(), graph,
                           srcName="v0", tgtName=f"v{args.n}")
    counters = {name: value for name, value in report.collector.counters.items()}
    if counters.get("block.acc_executions") != 1:
        print(f"FAIL: Qn acc-executions = "
              f"{counters.get('block.acc_executions')}, expected 1 "
              f"(one compressed binding row)", file=sys.stderr)
        return 1
    if counters.get("block.binding_multiplicity") != 2 ** args.n:
        print(f"FAIL: Qn binding multiplicity = "
              f"{counters.get('block.binding_multiplicity')}, expected "
              f"2^{args.n}", file=sys.stderr)
        return 1

    # --- overhead: interleaved medians, collector off -------------------
    instrumented = lambda: single_source_sdmc(graph, "v0", darpe)  # noqa: E731
    reference = lambda: reference_sdmc(graph, "v0", darpe)  # noqa: E731
    # warm caches (DFA construction, adjacency) before timing
    timed_block(instrumented, args.calls_per_block)
    timed_block(reference, args.calls_per_block)

    t_instr, t_ref = [], []
    for _ in range(args.blocks):
        t_instr.append(timed_block(instrumented, args.calls_per_block))
        t_ref.append(timed_block(reference, args.calls_per_block))
    med_instr = statistics.median(t_instr)
    med_ref = statistics.median(t_ref)
    overhead = med_instr / med_ref - 1.0

    with collect(Collector()):
        t_on = timed_block(instrumented, args.calls_per_block)

    per_call_us = med_ref / args.calls_per_block * 1e6
    print(f"reference kernel      : {per_call_us:8.1f} us/call (median of "
          f"{args.blocks} x {args.calls_per_block})")
    print(f"instrumented, obs off : "
          f"{med_instr / args.calls_per_block * 1e6:8.1f} us/call "
          f"({overhead:+.1%} vs reference)")
    print(f"instrumented, obs on  : "
          f"{t_on / args.calls_per_block * 1e6:8.1f} us/call "
          f"(context, not asserted)")
    print(f"counters check        : sdmc.product_states={ref_states}, "
          f"Qn acc-execs=1, multiplicity=2^{args.n} — all OK")

    if overhead > args.threshold:
        print(f"FAIL: instrumentation-off overhead {overhead:.1%} exceeds "
              f"{args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"OK: instrumentation-off overhead {overhead:+.1%} within "
          f"{args.threshold:.0%} budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
