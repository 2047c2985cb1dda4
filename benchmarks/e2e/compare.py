"""``run.py compare A.json B.json`` — did B get worse than A?

One row per workload × end-to-end metric, each with both medians, the
ratio B/A and its base, each side's own run-to-run spread, and a verdict:

``regressed``   B's median is worse than A's by more than the bound;
``unresolved``  it is not, but a side's own runs spread wider than the
                bound (or a side has a single run), so "no worse" cannot
                be told from noise;
``unchanged``   otherwise.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

from catalog import BETTER, BOUNDS, END_TO_END
from harness import spread


def _series(doc: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> that metric's value in every untraced run."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue
        for name, cell in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(cell["value"])
    return out


def compare(a_doc: Dict[str, Any], b_doc: Dict[str, Any]) -> Tuple[List[str], bool]:
    a_all, b_all = _series(a_doc), _series(b_doc)
    lines = [
        f"{'workload':14s} {'metric':16s} {'A median':>11s} {'B median':>11s} "
        f"{'B/A':>7s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict"
    ]
    regressed = False
    workloads = sorted({w for w, _ in a_all} & {w for w, _ in b_all})
    for workload in workloads:
        for name, unit, _, _ in END_TO_END:
            a, b = a_all.get((workload, name)), b_all.get((workload, name))
            if not a or not b:
                continue
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            bound = BOUNDS[name]
            worse = (b_mid - a_mid) / a_mid if BETTER[name] == "lower" else (a_mid - b_mid) / a_mid
            noisy = min(len(a), len(b)) < 2 or max(spread(a), spread(b)) > bound
            if worse > bound:
                verdict, regressed = "regressed", True
            elif noisy:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            lines.append(
                f"{workload:14s} {name:16s} {a_mid:11.4f} {b_mid:11.4f} "
                f"{b_mid / a_mid:7.3f} {bound:6.0%} {spread(a):9.1%} {spread(b):9.1%}  "
                f"{verdict}  (base {a_mid:.4f} {unit}, n={len(a)}/{len(b)})"
            )
    return lines, regressed


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    lines, regressed = compare(*docs)
    print("\n".join(lines))
    return 1 if regressed else 0
