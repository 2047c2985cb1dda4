"""EXPLAIN ANALYZE: run a query under a collector and render the result.

``repro explain`` shows the *static* plan; :func:`profile_query` runs the
query with instrumentation on and reports what the execution actually
did — per-block and per-hop timings, binding-table rows in/out with their
path multiplicities, acc-execution counts, automaton product-state
visits, and which planner rewrites fired.  This is the counter-based
evidence for the paper's Section 7 claim: on the Qn diamond family the
reported path count doubles with every n while ``block.acc_executions``
and ``sdmc.product_states`` stay flat.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from .metrics import Collector, Span, collect


class ProfileReport:
    """Everything one profiled execution produced.

    ``governor`` is the :class:`~repro.governor.ExecutionGovernor` the
    run executed under, or None for ungoverned profiling; ``result`` is
    None when the governed run aborted (the abort lives on
    ``governor.aborted``).
    """

    def __init__(
        self,
        query_name: str,
        engine: str,
        wall_seconds: float,
        collector: Collector,
        result: Any,
        governor: Optional[Any] = None,
        cost: Optional[Dict[str, Any]] = None,
    ):
        self.query_name = query_name
        self.engine = engine
        self.wall_seconds = wall_seconds
        self.collector = collector
        self.result = result
        self.governor = governor
        #: Predicted-vs-observed cost comparison (see ``cost_comparison``),
        #: present when the profiled query carried a CostCertificate.
        self.cost = cost

    # -- structured export --------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The JSON trace document (one span tree per query run)."""
        doc = self.collector.to_dict()
        doc["query"] = self.query_name
        doc["engine"] = self.engine
        doc["wall_ms"] = round(self.wall_seconds * 1000, 4)
        if self.governor is not None:
            doc["governor"] = self.governor.report_dict()
        if self.cost is not None:
            doc["cost"] = self.cost
        return doc

    # -- text rendering ------------------------------------------------
    def render_text(self) -> str:
        lines: List[str] = [
            f"PROFILE {self.query_name}  "
            f"[engine={self.engine}]  "
            f"total {_fmt_ms(self.wall_seconds)}"
        ]
        for root in self.collector.roots:
            _render_span(root, lines, indent=1)
        counters = self.collector.counters
        if counters:
            lines.append("counters:")
            width = max(len(name) for name in counters)
            for name in sorted(counters):
                lines.append(f"  {name.ljust(width)}  {counters[name]:,}")
        if self.governor is not None:
            lines.append(self.governor.report_line())
        if self.cost is not None:
            lines.append(f"cost (predicted, {self.cost['confidence']}):")
            for name, row in self.cost["metrics"].items():
                lo, hi = row["predicted"]
                hi_s = "inf" if hi is None else f"{hi:,}"
                verdict = "ok" if row["within"] else "OUTSIDE PREDICTION"
                lines.append(
                    f"  {name.ljust(14)}  predicted [{lo:,}, {hi_s}]  "
                    f"observed {row['observed']:,}  {verdict}"
                )
        return "\n".join(lines)


def profile_query(
    query: Any,
    graph: Any,
    mode: Optional[Any] = None,
    tables: Optional[Dict[str, Any]] = None,
    subqueries: Optional[Dict[str, Any]] = None,
    governor: Optional[Any] = None,
    **params: Any,
) -> ProfileReport:
    """Run ``query`` against ``graph`` with instrumentation on.

    Accepts the same arguments as :meth:`repro.core.query.Query.run`,
    plus an optional :class:`~repro.governor.ExecutionGovernor`: the run
    then executes under that governor's budget, a budget abort is caught
    (``report.result`` is None, the abort is on ``governor.aborted``),
    and the report gains a ``GovernorReport`` line / ``governor`` JSON
    field.  The run happens under a fresh :class:`Collector`; the
    returned report carries both the ordinary :class:`QueryResult` and
    the trace.  ``query`` may be a parsed
    :class:`~repro.core.query.Query` or a
    :class:`~repro.compile.CompiledQuery`.

    The report's predicted-vs-observed block compares against the
    query's cost certificate.  The parser stamps none (its first reader
    does), so a parsed query that still has none gets the structural one
    here, before the profiled run and outside its collector.
    """
    from ..errors import QueryAbortedError
    from ..governor import govern

    if (
        getattr(query, "cost_certificate", None) is None
        and getattr(query, "source", None) is not None
    ):
        from ..core.tractable import attach_cost_certificates

        attach_cost_certificates(getattr(query, "query", query))
    collector = Collector()
    start = time.perf_counter()
    result = None
    with collect(collector):
        with govern(governor):
            try:
                result = query.run(
                    graph, mode=mode, tables=tables, subqueries=subqueries,
                    **params,
                )
            except QueryAbortedError:
                if governor is None:
                    raise  # an outer governor's abort is not ours to eat
    wall = time.perf_counter() - start
    engine = _engine_label(mode)
    cert = getattr(query, "cost_certificate", None)
    cost = cost_comparison(cert, collector.counters) if cert is not None else None
    return ProfileReport(
        query.name, engine, wall, collector, result, governor=governor,
        cost=cost,
    )


#: CostCertificate metric -> the engine counter that observes it.
_COST_COUNTERS = (
    ("acc_executions", "block.acc_executions"),
    ("product_states", "sdmc.product_states"),
    ("paths", "enum.paths_emitted"),
)


def cost_comparison(cert: Any, counters: Dict[str, int]) -> Dict[str, Any]:
    """Predicted-vs-observed document for one profiled run.

    Pairs each :class:`~repro.core.tractable.CostCertificate` metric
    with the engine counter that observes it and records whether the
    observation fell inside the predicted interval (``within``) — the
    soundness check the calibration harness enforces corpus-wide.
    """
    metrics: Dict[str, Any] = {}
    for name, counter in _COST_COUNTERS:
        interval = getattr(cert, name)
        observed = counters.get(counter, 0)
        metrics[name] = {
            "predicted": interval.to_list(),
            "observed": observed,
            "within": interval.contains(observed),
        }
    return {
        "confidence": cert.confidence.value,
        "stats_fingerprint": cert.stats_fingerprint,
        "metrics": metrics,
    }


def _engine_label(mode: Optional[Any]) -> str:
    if mode is None:
        return "counting/all-shortest-paths"
    return f"{mode.kind}/{mode.semantics.value}"


# ----------------------------------------------------------------------
# Rendering helpers
# ----------------------------------------------------------------------

#: Attributes rendered inline after the span name, in display order.
_ATTR_ORDER = (
    "pattern",
    "darpe",
    "plan",
    "reversed",
    "rows_in",
    "rows_out",
    "multiplicity_out",
    "rows",
    "multiplicity",
    "acc_executions",
    "executions",
    "statements",
)


def _render_span(span: Span, lines: List[str], indent: int) -> None:
    pad = "  " * indent
    label = span.attrs.get("label") or span.name
    parts = [f"{pad}{label}"]
    detail = _format_attrs(span.attrs)
    if detail:
        parts.append(f"  [{detail}]")
    parts.append(f"  {_fmt_ms(span.duration)}")
    lines.append("".join(parts))
    for child in span.children:
        _render_span(child, lines, indent + 1)


def _format_attrs(attrs: Dict[str, Any]) -> str:
    shown = []
    for key in _ATTR_ORDER:
        if key in attrs:
            shown.append(f"{key}={_fmt_value(attrs[key])}")
    for key in sorted(attrs):
        if key not in _ATTR_ORDER and key != "label":
            shown.append(f"{key}={_fmt_value(attrs[key])}")
    return " ".join(shown)


def _fmt_value(value: Any) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def _fmt_ms(seconds: float) -> str:
    ms = seconds * 1000
    if ms < 10:
        return f"{ms:.2f}ms"
    if ms < 1000:
        return f"{ms:.0f}ms"
    return f"{seconds:.2f}s"


__all__ = ["ProfileReport", "profile_query", "cost_comparison"]
