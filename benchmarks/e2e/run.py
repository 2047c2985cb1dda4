#!/usr/bin/env python3
"""The end-to-end benchmark: ``repro serve`` over real HTTP and ``repro
run`` subprocesses, six named workloads, per-layer attribution.

    python benchmarks/e2e/run.py                      # every workload, both passes
    python benchmarks/e2e/run.py --workload qn_tiny --seed 7 --seconds 20 --trace 0
    python benchmarks/e2e/run.py --smoke              # same code path, 1 s windows
    python benchmarks/e2e/run.py compare A.json B.json

``--trace 0`` is the untraced pass (the end-to-end metrics), ``--trace
1`` the traced pass (the per-layer metrics); without ``--trace`` both
run.  Every metric is printed by name with its unit, every response is
checked, and the last line of output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 1 when
any response was wrong.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import RESULTS, ROOT, SRC  # noqa: E402

BENCH_FILE = RESULTS / "BENCH_12.json"
#: ``--smoke``: window length and replay sample small enough for a test.
SMOKE_SECONDS = 1.0
SMOKE_SAMPLE = 4


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _print_run(run: Dict[str, Any]) -> None:
    mode = "traced" if run["trace"] else "untraced"
    print(f"\n== {run['workload']}  seed {run['seed']}  {mode}  "
          f"{run['attempted']} requests, {run['failed']} failed "
          f"(failed_share {run['failed'] / run['attempted']:.4f}), "
          f"cpu stolen {run['cpu_steal_share']:.1%} ==")
    if not run["trace"]:
        kinds = ", ".join(f"{k} x{n}" for k, n in sorted(run["requests"].items()))
        print(f"   requests: {kinds}")
        whole = run["whole_window"]
        print(f"   latency samples: {run['samples']} slots "
              f"({run['samples_beyond_p90']} beyond p90), each the lower quartile of "
              f"{run['repeats']} repeats; "
              f"set-ups: {', '.join(f'{s:.3f}' for s in run['setup_runs_s'])} s")
        yard, raw = run["yardstick"], run["unscaled"]
        print(f"   yardstick {yard['machine_ms']:.4f} ms over {yard['samples']} samples: "
              f"timings scaled by {yard['scale']:.4f}; unscaled p50 {raw['latency_p50_ms']:.4f} ms, "
              f"p90 {raw['latency_p90_ms']:.4f} ms, {raw['throughput_rps']:.4f} 1/s")
        print(f"   over every sample of the window: p50 {whole['latency_p50_ms']:.4f} ms, "
              f"p90 {whole['latency_p90_ms']:.4f} ms, {whole['throughput_rps']:.4f} 1/s")
    else:
        print(f"   window latency_p50_ms {run['latency_p50_ms']:.4f}; "
              f"{run['replayed_requests']} requests re-enacted, {run['spans']} spans")
    for name, cell in run["metrics"].items():
        print(f"   {name:38s} {cell['value']:14.4f} {cell['unit']}")
    for problem in run["problems"]:
        print(f"   WRONG: {problem}")


def _last_line(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The driver's result object.  One run: its metrics by name.  More:
    names are prefixed ``workload/seed/`` so nothing collides."""
    single = len({(r["workload"], r["seed"]) for r in runs}) == 1
    metrics: Dict[str, Any] = {}
    for run in runs:
        prefix = "" if single else f"{run['workload']}/{run['seed']}/"
        for name, cell in run["metrics"].items():
            metrics[prefix + name] = cell
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no product to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import SETUPS, run_untraced
    from replay import run_traced
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all six")
    parser.add_argument("--seed", action="append", type=int,
                        help="request-stream seed (repeatable; default 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of one measured window")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1,
                        help="0: untraced pass only; 1: traced pass only")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s windows, one set-up, "
                             f"{SMOKE_SAMPLE} requests re-enacted")
    parser.add_argument("--out", type=Path,
                        help=f"write the runs here (default for a full, non-smoke "
                             f"matrix: {BENCH_FILE.relative_to(ROOT)})")
    args = parser.parse_args(argv)

    # A polite kill (the driver's time limit) must still run the
    # ``finally`` blocks that reap the server and remove the scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = args.workload or list(WORKLOADS)
    seeds = args.seed or [1]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    passes = (0, 1) if args.trace is None else (args.trace,)
    out = args.out
    if out is None and not args.workload and not args.smoke and args.trace is None:
        out = BENCH_FILE

    runs: List[Dict[str, Any]] = []
    for seed in seeds:
        for name in names:
            workload = WORKLOADS[name]
            for traced in passes:
                if traced:
                    run = run_traced(workload, seed, seconds,
                                     sample=SMOKE_SAMPLE if args.smoke else None)
                else:
                    run = run_untraced(workload, seed, seconds,
                                       setups=1 if args.smoke else SETUPS)
                _print_run(run)
                runs.append(run)

    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump({
                "bench": 12,
                "meta": {
                    "commit": _commit(),
                    "nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "seeds": seeds,
                    "seconds": seconds,
                    "smoke": args.smoke,
                    "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                },
                "runs": runs,
            }, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {out}")
    print()
    print(json.dumps(_last_line(runs)))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
