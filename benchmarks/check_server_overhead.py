#!/usr/bin/env python
"""Guard the query service's dispatch overhead and public surface.

The service layer (docs/robustness.md, "Service layer") wraps every
query in admission control, worker dispatch and outcome assembly.  That
wrapper must stay cheap relative to the work it manages, and its public
contract — the outcome taxonomy, the service fault sites, the default
budget classes and the process exit codes — must not drift silently.
This script enforces both:

1. times the bare pipeline (``execute_job`` on the calling thread: the
   work a worker does, with no service around it) against the full
   service path (``QueryService.submit`` over a 1-thread pool:
   admission + dispatch queue + reply collection + outcome assembly)
   and against what ships — a whole loopback HTTP exchange through
   ``HttpServer`` on port 0 (connect, ``POST /query``, read to EOF, with
   the end-to-end benchmark's client) —
   on the E1 counting workload, and asserts each per-request overhead
   stays under its absolute envelope, and
2. compares the outcome taxonomy (kind -> HTTP status + retryability),
   the ``server.*`` fault sites, the default budget-class table and the
   exit-code catalog against ``benchmarks/server_baseline.json`` so a
   renamed outcome or a remapped status is a deliberate, reviewed
   change.

The overhead envelope is absolute (milliseconds per request), not
relative: dispatch cost is a fixed per-request tax (queue hops, one
cross-thread round trip, dict assembly), so the bound that matters for
capacity planning is its absolute size, and an absolute bound does not
loosen when the measured query gets slower.

Exit status 0 = within budget, 1 = overhead / baseline failure.
Refresh the baseline with ``--write-baseline``.

Usage:  python benchmarks/check_server_overhead.py [--budget-ms 2]
        [--requests 60] [--write-baseline]
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from e2e.harness import http_request  # the end-to-end benchmark's own client

from repro.errors import exit_code_catalog
from repro.governor.faults import SITES
from repro.graph import builders
from repro.server import QueryRequest, QueryService, RetryPolicy, taxonomy
from repro.server.admission import default_classes
from repro.server.app import HttpServer
from repro.server.pool import execute_job
from repro.server.protocol import Job

BASELINE = Path(__file__).resolve().parent / "server_baseline.json"
HTTP_BUDGET_MS = 3.0  # a whole loopback exchange over the bare pipeline

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


def current_surface():
    return {
        "outcomes": taxonomy(),
        "server_fault_sites": sorted(
            site for site in SITES if site.startswith("server.")
        ),
        "budget_classes": {
            name: {
                "default_deadline": cls.default_deadline,
                "max_deadline": cls.max_deadline,
                "max_concurrent": cls.max_concurrent,
                "budget": dict(sorted(cls.budget.items())),
            }
            for name, cls in sorted(default_classes().items())
        },
        "exit_codes": [
            [code, name, meaning]
            for code, name, meaning in exit_code_catalog()
        ],
    }


def measure_overheads(requests):
    """Median per-request times: the bare pipeline, ``submit`` and a
    whole HTTP exchange, interleaved so drift hits all three alike."""
    graphs = {"default": builders.diamond_chain(6)}
    params = {"srcName": "v0", "tgtName": "v5"}

    def bare(i):
        job = Job(f"bare-{i}", QN, "default", dict(params), "counting", {})
        reply = execute_job(job, graphs)
        assert reply["outcome"] == "ok", reply

    service = QueryService(
        graphs=graphs,
        pool_size=1,
        pool_mode="thread",
        retry=RetryPolicy(max_attempts=1),
    )
    server = HttpServer(service, port=0)
    server.start()

    def served(i):
        doc = service.submit(
            QueryRequest(QN, params=params, request_id=f"svc-{i}")
        )
        assert doc["outcome"] == "ok", doc

    def exchanged(i):
        body = json.dumps(
            {"query": QN, "params": params, "request_id": f"http-{i}"}
        ).encode("utf-8")
        reply = http_request(server.port, "POST", "/query", body)
        assert reply.status == 200, reply

    paths = (bare, served, exchanged)
    try:
        # Warm every path (parser caches, pool and handler threads, planner).
        for i in range(5):
            for path in paths:
                path(i)
        times = {path: [] for path in paths}
        for i in range(requests):
            for path in paths:
                start = time.perf_counter()
                path(i)
                times[path].append(time.perf_counter() - start)
    finally:
        server.stop(grace=5.0)
    return [statistics.median(times[path]) for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget-ms",
        type=float,
        default=2.0,
        help="maximum tolerated per-request dispatch overhead (absolute)",
    )
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the committed baseline from this run",
    )
    args = parser.parse_args(argv)

    surface = current_surface()
    if args.write_baseline:
        BASELINE.write_text(json.dumps(surface, indent=2) + "\n")
        print(f"wrote server baseline to {BASELINE}")
        return 0

    failures = 0

    # --- surface: outcome taxonomy, sites, classes, exit codes ----------
    baseline = json.loads(BASELINE.read_text())
    for key in (
        "outcomes",
        "server_fault_sites",
        "budget_classes",
        "exit_codes",
    ):
        if surface[key] != baseline.get(key):
            print(
                f"BASELINE MISMATCH {key}:\n  current  {surface[key]}\n"
                f"  baseline {baseline.get(key)}",
                file=sys.stderr,
            )
            failures += 1

    # --- overhead: bare pipeline vs service path vs HTTP exchange --------
    med_bare, med_served, med_http = measure_overheads(args.requests)
    overhead_ms = (med_served - med_bare) * 1000
    http_overhead_ms = (med_http - med_bare) * 1000

    print(
        f"bare pipeline   : {med_bare * 1000:8.2f} ms/request "
        f"(median of {args.requests})"
    )
    print(
        f"service path    : {med_served * 1000:8.2f} ms/request "
        f"(admission + dispatch + outcome)"
    )
    print(
        f"HTTP exchange   : {med_http * 1000:8.2f} ms/request "
        f"(connect + request + service path + response + EOF)"
    )
    print(
        f"dispatch overhead: {overhead_ms:+7.2f} ms/request "
        f"(budget {args.budget_ms:.0f} ms)"
    )
    print(
        f"HTTP overhead   : {http_overhead_ms:+8.2f} ms/request "
        f"(budget {HTTP_BUDGET_MS:.0f} ms)"
    )
    print(
        f"surface check   : {len(surface['outcomes'])} outcomes, "
        f"{len(surface['server_fault_sites'])} server fault sites, "
        f"{len(surface['budget_classes'])} budget classes, "
        f"{len(surface['exit_codes'])} exit codes"
    )

    for label, measured, budget in (
        ("dispatch", overhead_ms, args.budget_ms),
        ("HTTP", http_overhead_ms, HTTP_BUDGET_MS),
    ):
        if measured > budget:
            print(
                f"FAIL: {label} overhead {measured:.2f} ms exceeds "
                f"{budget:.0f} ms budget",
                file=sys.stderr,
            )
            failures += 1

    if failures:
        print(f"{failures} server guard failure(s)", file=sys.stderr)
        return 1
    print(
        f"OK: dispatch overhead {overhead_ms:+.2f} ms within "
        f"{args.budget_ms:.0f} ms, HTTP overhead {http_overhead_ms:+.2f} ms "
        f"within {HTTP_BUDGET_MS:.0f} ms, surface matches baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
