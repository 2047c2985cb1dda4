"""Runtime observability: counters, span traces, EXPLAIN ANALYZE.

``repro.obs`` is the zero-dependency metrics/tracing layer threaded
through both evaluation engines, the planner and the accumulator layer.
Instrumentation is off unless a :class:`Collector` is activated with
:func:`collect` (or via :func:`profile_query` / ``repro profile``), and
the off path is a single global check per engine call — see
``docs/observability.md`` for the metrics catalog and span schema.
"""

from .._lazy import exports as _exports

__all__ = [
    "Collector",
    "Span",
    "active",
    "collect",
    "count",
    "ProfileReport",
    "profile_query",
]

__getattr__, __dir__ = _exports(__name__, {
    ".metrics": ("Collector", "Span", "active", "collect", "count"),
    ".profile": ("ProfileReport", "profile_query"),
})
