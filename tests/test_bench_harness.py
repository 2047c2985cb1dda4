"""Tests for the benchmark harness utilities."""

import math

import pytest

from repro.bench import (
    TimeoutBudget,
    doubling_ratios,
    fit_exponent,
    format_seconds,
    render_table,
)
from repro.errors import EvaluationBudgetExceeded


class TestTimeoutBudget:
    def test_trips_after_slow_call(self):
        budget = TimeoutBudget(0.0)  # everything is too slow
        assert budget.run(lambda: 1) is not None
        assert budget.tripped
        assert budget.run(lambda: 1) is None

    def test_budget_exception_counts_as_timeout(self):
        def boom():
            raise EvaluationBudgetExceeded("too big")

        budget = TimeoutBudget(10.0)
        assert budget.run(boom) is None
        assert budget.tripped


class TestGrowthFits:
    def test_exponential_series_slope(self):
        series = [(n, 0.001 * (2 ** n)) for n in range(5, 15)]
        slope = fit_exponent(series)
        assert slope == pytest.approx(math.log(2), rel=1e-6)

    def test_doubling_ratios(self):
        ratios = doubling_ratios([(1, 1.0), (2, 2.0), (3, 4.0)])
        assert ratios == [2.0, 2.0]

    def test_degenerate_series(self):
        assert fit_exponent([(1, 1.0)]) == 0.0
        assert fit_exponent([]) == 0.0


class TestFormatting:
    def test_format_seconds(self):
        assert format_seconds(None) == "-"
        assert format_seconds(0.002) == "2ms"
        assert format_seconds(1.5) == "1.50s"
        assert format_seconds(125) == "2m5s"

    def test_format_seconds_rounds_before_choosing_the_unit(self):
        assert format_seconds(0.9996) == "1.00s"
        assert format_seconds(59.996) == "1m0s"
        assert format_seconds(119.6) == "2m0s"
        assert format_seconds(3599.7) == "60m0s"

    def test_render_table(self):
        text = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
