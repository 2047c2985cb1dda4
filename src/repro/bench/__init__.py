"""Benchmark harness utilities shared by the benchmarks/ table scripts."""

from .._lazy import exports as _exports

__all__ = [
    "TimeoutBudget",
    "doubling_ratios",
    "fit_exponent",
    "format_seconds",
    "render_table",
]

__getattr__, __dir__ = _exports(__name__, {
    ".harness": (
        "TimeoutBudget", "doubling_ratios", "fit_exponent", "format_seconds",
        "render_table",
    ),
})
