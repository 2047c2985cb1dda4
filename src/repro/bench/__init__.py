"""Benchmark harness utilities shared by benchmarks/ suites and scripts."""

from .._lazy import exports as _exports

__all__ = [
    "Measurement",
    "TimeoutBudget",
    "doubling_ratios",
    "fit_exponent",
    "fit_power",
    "format_seconds",
    "profile_call",
    "render_table",
    "sweep",
    "time_call",
]

__getattr__, __dir__ = _exports(__name__, {
    ".harness": (
        "Measurement", "TimeoutBudget", "doubling_ratios", "fit_exponent",
        "fit_power", "format_seconds", "profile_call", "render_table", "sweep",
        "time_call",
    ),
})
