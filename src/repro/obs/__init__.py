"""Runtime observability: counters, span traces, EXPLAIN ANALYZE.

``repro.obs`` is the zero-dependency metrics/tracing layer threaded
through both evaluation engines, the planner and the accumulator layer.
Instrumentation is off unless a :class:`Collector` is activated with
:func:`collect` (or via :func:`profile_query` / ``repro profile``), and
the off path is a single global check per engine call — see
``docs/observability.md`` for the metrics catalog and span schema.
"""

from .metrics import Collector, Span, active, collect, count
from .profile import ProfileReport, profile_query

__all__ = [
    "Collector",
    "Span",
    "active",
    "collect",
    "count",
    "ProfileReport",
    "profile_query",
]
