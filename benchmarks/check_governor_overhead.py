#!/usr/bin/env python
"""Guard the governor no-op fast path: budgets must be free when absent.

The execution governor's design contract (docs/robustness.md) mirrors the
observability layer's: every governed site reads the calling context's
record once per engine call (``repro._exec.current().gov``) — per SDMC
call, per block, per WHILE iteration — and the per-level/per-chunk
charge calls are guarded by that one read.  Running with no governor
installed must therefore cost nothing measurable, and running under an
*unlimited* budget must stay within the same few-percent envelope.  This
script enforces both on the E1 counting workload, and pins the governor's
public surface against a committed baseline:

1. reuses the verbatim *uninstrumented* SDMC product-BFS reference kernel
   from ``check_obs_overhead.py`` (the hot loop of the counting engine),
2. interleaves timed blocks of the governed kernel (governor off) with
   the reference copy over the 30-diamond chain and asserts the overhead
   — the median over rounds of the ratio of one round's adjacent blocks —
   is below the threshold (default 5% — the same bar
   ``check_obs_overhead.py`` holds the collector-off path to),
3. repeats the comparison with an ``ExecutionGovernor`` carrying an
   unlimited ``Budget`` installed — the "budgeted but generous" case —
   against a 2x envelope (a governed run does real per-level work, so
   its timing is inherently noisier than the off path's single load),
4. cross-checks the degradation policy end to end: the Qn query on the
   30-diamond chain, forced to enumeration with ``max_paths`` set,
   must downgrade to counting (``planner.governor_downgrade == 1``,
   no ``enum.calls``) and still finish, and
5. compares the fault-site catalog, abort-reason taxonomy, and the
   downgrade counters against ``benchmarks/governor_baseline.json`` so
   renaming a site or reason is a deliberate, reviewed change.

Exit status 0 = within budget, 1 = overhead / correctness / baseline
failure.  Refresh the baseline with ``--write-baseline``.

Usage:  python benchmarks/check_governor_overhead.py [--threshold 0.05]
        [--blocks 21] [--calls-per-block 200] [--write-baseline]
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from check_obs_overhead import reference_sdmc

from repro.algorithms.traversal import path_count_query
from repro.core.pattern import EngineMode
from repro.darpe.automaton import CompiledDarpe
from repro.governor import Budget, ExecutionGovernor, faults, govern
from repro.governor.budget import AbortReason
from repro.graph import builders
from repro.obs import Collector, collect
from repro.paths import PathSemantics, single_source_sdmc

BASELINE = Path(__file__).resolve().parent / "governor_baseline.json"


def timed_block(fn, calls):
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - start


def interleaved_ratios(variants, blocks, calls):
    """Time one block of each variant per round and return, for each pair
    of neighbours in ``variants``, the median over rounds of the ratio of
    that round's two blocks (later over earlier), plus each variant's
    median block time.

    Each round reverses the order of the last, so the two blocks of a
    compared pair always run back to back and each runs first in half the
    rounds: machine-level drift (thermal, scheduler, a neighbour's load)
    lands on both sides of a ratio instead of on one variant's median."""
    for fn in variants:  # warm caches (DFA construction, adjacency)
        timed_block(fn, calls)
    times = [[] for _ in variants]
    order = list(range(len(variants)))
    for _ in range(blocks):
        for slot in order:
            times[slot].append(timed_block(variants[slot], calls))
        order.reverse()
    ratios = [
        statistics.median(b / a for a, b in zip(times[i], times[i + 1]))
        for i in range(len(variants) - 1)
    ]
    return ratios, [statistics.median(slot) for slot in times]


def qn_downgrade_counters(n):
    """Run Qn forced to enumeration under a path cap; return the obs
    counters and the governor tallies of the (downgraded) run."""
    graph = builders.diamond_chain(n)
    gov = ExecutionGovernor(Budget(max_paths=1_000))
    col = Collector()
    mode = EngineMode.enumeration(PathSemantics.ALL_SHORTEST)
    with collect(col), govern(gov):
        result = path_count_query().run(
            graph, mode=mode, srcName="v0", tgtName=f"v{n}")
    counts = dict(col.counters)
    path_count = result.printed[0]["R"][0]["pathCount"]
    return counts, gov, path_count


def current_surface(n):
    counts, gov, path_count = qn_downgrade_counters(n)
    return {
        "fault_sites": [name for name, _ in faults.catalog()],
        "abort_reasons": sorted(r.value for r in AbortReason),
        "qn30_downgrade": {
            "planner.governor_downgrade":
                counts.get("planner.governor_downgrade", 0),
            "enum.calls": counts.get("enum.calls", 0),
            "governor.downgrades": gov.downgrades,
            "path_count": path_count,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="maximum tolerated relative overhead (0.05 = 5%%)")
    parser.add_argument("--blocks", type=int, default=21,
                        help="interleaved timing blocks per variant")
    parser.add_argument("--calls-per-block", type=int, default=200)
    parser.add_argument("--n", type=int, default=30,
                        help="diamond-chain size (E1 uses 30)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the committed baseline from this run")
    args = parser.parse_args(argv)

    surface = current_surface(args.n)

    if args.write_baseline:
        BASELINE.write_text(json.dumps(surface, indent=2) + "\n")
        print(f"wrote governor baseline to {BASELINE}")
        return 0

    failures = 0

    # --- surface: fault sites, abort reasons, downgrade counters --------
    baseline = json.loads(BASELINE.read_text())
    for key in ("fault_sites", "abort_reasons", "qn30_downgrade"):
        if surface[key] != baseline.get(key):
            print(f"BASELINE MISMATCH {key}:\n  current  {surface[key]}\n"
                  f"  baseline {baseline.get(key)}", file=sys.stderr)
            failures += 1

    dg = surface["qn30_downgrade"]
    if dg["planner.governor_downgrade"] != 1 or dg["enum.calls"] != 0:
        print(f"FAIL: certified Qn under max_paths did not downgrade "
              f"(downgrades={dg['planner.governor_downgrade']}, "
              f"enum.calls={dg['enum.calls']})", file=sys.stderr)
        failures += 1
    if dg["path_count"] != 2 ** args.n:
        print(f"FAIL: downgraded Qn path count {dg['path_count']} != "
              f"2^{args.n}", file=sys.stderr)
        failures += 1

    # --- correctness: governed kernel agrees with the reference ---------
    graph = builders.diamond_chain(args.n)
    darpe = CompiledDarpe.parse("E>*")
    ref_results, ref_states = reference_sdmc(graph, "v0", darpe)
    if single_source_sdmc(graph, "v0", darpe) != ref_results:
        print("FAIL: governed kernel (governor off) diverges from the "
              "reference results", file=sys.stderr)
        failures += 1
    unlimited = ExecutionGovernor(Budget.unlimited())
    with govern(unlimited):
        gov_results = single_source_sdmc(graph, "v0", darpe)
    if gov_results != ref_results:
        print("FAIL: governed kernel (unlimited budget) diverges from the "
              "reference results", file=sys.stderr)
        failures += 1
    if unlimited.product_states != ref_states:
        print(f"FAIL: governor charged {unlimited.product_states} product "
              f"states, reference visited {ref_states}", file=sys.stderr)
        failures += 1

    # --- overhead: reference vs governor-absent vs unlimited budget -----
    # All three variants share one round-robin loop so slow machine-level
    # drift lands on each equally.  Governor construction (~4us: a
    # threading.Event and a dozen slots) is per *query*, amortized over
    # far more than one kernel call in any real run, so the governed
    # variant reuses one unlimited governor and pays only the per-call
    # install (govern enter/exit) plus the per-level charges — the costs
    # that actually scale with governed work.
    instrumented = lambda: single_source_sdmc(graph, "v0", darpe)  # noqa: E731
    reference = lambda: reference_sdmc(graph, "v0", darpe)  # noqa: E731
    timing_gov = ExecutionGovernor(Budget.unlimited())

    def governed():
        with govern(timing_gov):
            single_source_sdmc(graph, "v0", darpe)

    (off_ratio, on_ratio), (med_ref, med_off, med_on) = interleaved_ratios(
        [reference, instrumented, governed],
        args.blocks, args.calls_per_block)
    off_overhead = off_ratio - 1.0
    on_overhead = on_ratio - 1.0

    per_call_us = med_ref / args.calls_per_block * 1e6
    print(f"reference kernel        : {per_call_us:8.1f} us/call (median of "
          f"{args.blocks} x {args.calls_per_block})")
    print(f"governed, governor off  : "
          f"{med_off / args.calls_per_block * 1e6:8.1f} us/call "
          f"({off_overhead:+.1%} vs reference)")
    print(f"governed, unlimited gov : "
          f"{med_on / args.calls_per_block * 1e6:8.1f} us/call "
          f"({on_overhead:+.1%} vs governor off)")
    print(f"surface check           : {len(surface['fault_sites'])} fault "
          f"sites, {len(surface['abort_reasons'])} abort reasons, "
          f"Qn downgrade counters OK")

    if off_overhead > args.threshold:
        print(f"FAIL: governor-off overhead {off_overhead:.1%} exceeds "
              f"{args.threshold:.0%}", file=sys.stderr)
        failures += 1
    if on_overhead > 2 * args.threshold:
        print(f"FAIL: unlimited-budget overhead {on_overhead:.1%} exceeds "
              f"{2 * args.threshold:.0%} (2x envelope)", file=sys.stderr)
        failures += 1

    if failures:
        print(f"{failures} governor guard failure(s)", file=sys.stderr)
        return 1
    print(f"OK: governor-off {off_overhead:+.1%} within {args.threshold:.0%}, "
          f"unlimited-budget {on_overhead:+.1%} within "
          f"{2 * args.threshold:.0%} envelope")
    return 0


if __name__ == "__main__":
    sys.exit(main())
