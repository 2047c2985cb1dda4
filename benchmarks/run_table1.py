#!/usr/bin/env python
"""Regenerate Table 1 (Section 7.1): Qn on the 30-diamond chain.

Prints, per n: the path count (2^n) and the running time under

* the counting engine (TigerGraph all-shortest-paths) — the paper:
  "All queries completed within 10 ms";
* trail enumeration (Neo4j default, Table 1 column Q_n^nre);
* enumerated all-shortest-paths (Neo4j ASP, Table 1 column Q_n^asp).

Enumeration columns stop at the timeout (default 10s; the paper used 10
minutes on Neo4j — pass ``--timeout 600`` to match) and print ``-``
afterwards, like the dashes in the paper's table.

Alongside the timing columns, each counting run is profiled with
:mod:`repro.obs` and the table reports two engine counters:
``acc-execs`` (ACCUM executions — one per compressed binding row) and
``product states`` (SDMC automaton-product states visited).  Both stay
flat as the path count doubles per n: Theorem 7.1 as a counter, not
just a wall-clock shape.

Usage:  python benchmarks/run_table1.py [--max-n 30] [--timeout 10]
        [--counting-only] [--profile-json PATH]
"""

import argparse
import json
import sys
import time

from repro.algorithms import path_count
from repro.algorithms.traversal import path_count_query
from repro.bench import TimeoutBudget, doubling_ratios, fit_exponent, format_seconds, render_table
from repro.core.pattern import EngineMode
from repro.graph import builders
from repro.obs import collect, profile_query
from repro.paths import PathSemantics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=30)
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="per-point timeout for the enumeration columns (s)")
    parser.add_argument("--counting-only", action="store_true",
                        help="skip the enumeration columns (CI smoke mode)")
    parser.add_argument("--profile-json", default=None, metavar="PATH",
                        help="write the n=max counting run's repro.obs "
                             "trace (span tree + counters) to PATH")
    args = parser.parse_args(argv)

    graph = builders.diamond_chain(args.max_n)
    print(f"Diamond chain: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print()

    ns = list(range(1, args.max_n + 1))
    budgets = {
        "nre": TimeoutBudget(args.timeout),
        "asp": TimeoutBudget(args.timeout),
    }
    modes = {
        "nre": EngineMode.enumeration(PathSemantics.NO_REPEATED_EDGE),
        "asp": EngineMode.enumeration(PathSemantics.ALL_SHORTEST),
    }

    rows = []
    series = {"counting": [], "nre": [], "asp": []}
    for n in ns:
        target = f"v{n}"
        start = time.perf_counter()
        count = path_count(graph, "v0", target)
        t_counting = time.perf_counter() - start
        series["counting"].append((n, t_counting))
        assert count == 2 ** n, f"count mismatch at n={n}"

        # Second, instrumented run: engine-work counters for this point.
        with collect() as col:
            path_count(graph, "v0", target)
        acc_execs = col.counter("block.acc_executions")
        product_states = col.counter("sdmc.product_states")

        cells = {}
        if not args.counting_only:
            for key in ("nre", "asp"):
                shot = budgets[key].run(
                    lambda key=key: path_count(graph, "v0", target, mode=modes[key])
                )
                if shot is None:
                    cells[key] = None
                else:
                    cells[key], _ = shot
                    series[key].append((n, cells[key]))
        row = [n, count, format_seconds(t_counting), acc_execs, product_states]
        if not args.counting_only:
            row += [format_seconds(cells["nre"]), format_seconds(cells["asp"])]
        rows.append(row)

    headers = ["n", "path count", "counting (GSQL)", "acc-execs", "product states"]
    if not args.counting_only:
        headers += ["Q_n^nre (enum)", "Q_n^asp (enum)"]
    print(
        render_table(
            headers,
            rows,
            title="Table 1 reproduction — Qn on the diamond chain",
        )
    )

    if args.profile_json:
        report = profile_query(
            path_count_query(), graph,
            srcName="v0", tgtName=f"v{args.max_n}",
        )
        with open(args.profile_json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"\nwrote n={args.max_n} counting profile to {args.profile_json}")
    print()
    for key, label in (
        ("counting", "counting engine"),
        ("nre", "trail enumeration"),
        ("asp", "ASP enumeration"),
    ):
        pts = [p for p in series[key] if p[0] >= 6]
        if len(pts) >= 3:
            slope = fit_exponent(pts)
            ratios = doubling_ratios(pts)
            print(
                f"{label:20s}: log-time slope {slope:+.3f} per n "
                f"(2x/step = +0.693), mean step ratio "
                f"{sum(ratios)/len(ratios):.2f}"
            )
    print()
    print(
        "Expected shape: counting stays flat (sub-millisecond), both\n"
        "enumeration columns double per n and hit the timeout — the paper's\n"
        "Table 1, with Neo4j's constants replaced by this interpreter's."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
