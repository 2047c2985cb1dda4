"""Benchmark harness: per-point timeouts, growth-rate analysis, tables.

Used by the standalone ``run_*.py`` harness scripts in ``benchmarks/``
that print the paper's tables.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import EvaluationBudgetExceeded


class TimeoutBudget:
    """Per-point wall-clock cutoff for sweeps over exponential baselines.

    Once a point exceeds ``limit_seconds``, subsequent points are skipped
    and reported as timeouts — the role of the paper's 10-minute timeout
    ("For n >= 25, the queries timed out").
    """

    def __init__(self, limit_seconds: float):
        self.limit_seconds = limit_seconds
        self.tripped = False

    def run(self, fn: Callable[[], Any]) -> Optional[Tuple[float, Any]]:
        """Execute once; None signals a (possibly inherited) timeout."""
        if self.tripped:
            return None
        start = time.perf_counter()
        try:
            result = fn()
        except EvaluationBudgetExceeded:
            self.tripped = True
            return None
        elapsed = time.perf_counter() - start
        if elapsed > self.limit_seconds:
            self.tripped = True
        return elapsed, result


# ----------------------------------------------------------------------
# Growth-rate analysis
# ----------------------------------------------------------------------

def doubling_ratios(series: Sequence[Tuple[Any, float]]) -> List[float]:
    """Successive time ratios t[i+1]/t[i] — an exponential-in-n algorithm
    shows ratios near its base (2 for the diamond chain), a polynomial one
    shows ratios tending to 1."""
    ratios = []
    for (_, a), (_, b) in zip(series, series[1:]):
        if a > 0:
            ratios.append(b / a)
    return ratios


def fit_exponent(series: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against the parameter.

    For times ~ C * 2**n the slope is ~ log(2) = 0.693; for polynomial
    times the slope tends to 0 as n grows.
    """
    points = [(x, math.log(t)) for x, t in series if t > 0]
    if len(points) < 2:
        return 0.0
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if denom == 0:
        return 0.0
    return (n * sxy - sx * sy) / denom


# ----------------------------------------------------------------------
# Table rendering
# ----------------------------------------------------------------------

def format_seconds(seconds: Optional[float]) -> str:
    """Paper-style duration formatting: ms / s / XmYs / '-' for timeout.

    The value is rounded to a unit's precision before that unit is chosen,
    so ``0.9996`` renders as ``1.00s`` and ``119.6`` as ``2m0s``."""
    if seconds is None:
        return "-"
    if round(seconds * 1000) < 1000:
        return f"{seconds * 1000:.0f}ms"
    if round(seconds, 2) < 60:
        return f"{seconds:.2f}s"
    minutes, rest = divmod(round(seconds), 60)
    return f"{minutes}m{rest}s"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """A plain fixed-width text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


__all__ = [
    "TimeoutBudget",
    "doubling_ratios",
    "fit_exponent",
    "format_seconds",
    "render_table",
]
