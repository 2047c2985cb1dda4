"""Counters, timers and span trees — the observability substrate.

The paper's Section 7 argument is about *work*, not wall-clock: the
counting engine stays polynomial because the number of acc-executions
scales with the binding table's *size* (distinct bindings), not with the
path count it represents.  This module makes that work observable: a
:class:`Collector` gathers named monotonic counters and a tree of timed
spans while a query runs, and the engine modules (``core.pattern``,
``core.block``, ``paths.sdmc``, ``enumeration.engine``, ``accum.base``)
report into whichever collector is *active*.

Design constraints, in priority order:

1. **Instrumentation off must cost nothing measurable.**  The active
   collector is the ``col`` field of the calling context's
   :class:`repro._exec.ExecCtx`; every instrumented site reads that
   record once per *call* (never per row, per edge, or per product
   state) and skips all bookkeeping when the field is ``None``.
   Hot loops compute their tallies from state they maintain anyway
   (``len(visited)``, ``len(rows)``) and report them in one batched
   ``count`` after the loop — guarded by `benchmarks/check_overhead.py`.
2. **Zero dependencies.**  Plain dicts, lists and ``time.perf_counter``.
3. **Structured export.**  :meth:`Collector.to_dict` emits a stable
   JSON-serializable document (see ``docs/observability.md`` for the
   schema) consumable by ``repro profile --format json`` and the
   ``benchmarks/`` harnesses.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional

from .. import _exec


class Span:
    """One timed region of an execution, with attributes and children.

    A span is *open* from creation until :meth:`finish`; spans created
    while it is open (through the same collector) become its children.
    ``attrs`` carry plan-shaped annotations (rows in/out, DARPE text,
    whether the planner reversed the hop, ...) set via :meth:`set`.
    """

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Elapsed seconds; an unfinished span reads as elapsed-so-far."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) annotation attributes."""
        self.attrs.update(attrs)
        return self

    def finish(self) -> "Span":
        """Close the span (idempotent — the first call wins)."""
        if self.end is None:
            self.end = time.perf_counter()
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "duration_ms": round(self.duration * 1000, 4),
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name}, {self.duration * 1000:.2f}ms, {self.attrs})"


class Collector:
    """A sink for one profiled run: named counters plus a span forest.

    Counters are monotonic sums keyed by dotted names
    (``block.acc_executions``, ``sdmc.product_states``, ...); the full
    catalog lives in ``docs/observability.md``.  Spans nest through an
    internal stack: :meth:`span` parents the new span under the deepest
    open one, so engine layers need no knowledge of each other.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- counters ------------------------------------------------------
    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to counter ``name`` (creating it at 0)."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def record_max(self, name: str, value: int) -> None:
        """Keep the maximum seen for ``name`` (peak gauges, e.g. the
        widest BFS frontier)."""
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Open a child span of the deepest open span (or a new root).

        The caller must :meth:`close` (or ``finish`` via :meth:`close`)
        it; engine code pairs the two in ``try``/``finally``.
        """
        sp = Span(name, attrs)
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, span: Span) -> None:
        """Finish ``span`` and pop it (and anything opened under it that
        was left open) off the stack."""
        span.finish()
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            top.finish()

    def spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first across all roots."""
        for root in self.roots:
            yield from root.walk()

    # -- export --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The trace document: schema described in docs/observability.md."""
        return {
            "schema": "repro.obs/1",
            "counters": dict(sorted(self.counters.items())),
            "spans": [root.to_dict() for root in self.roots],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Collector({len(self.counters)} counters, {len(self.roots)} roots)"


def active() -> Optional[Collector]:
    """The calling context's collector, or None when instrumentation is
    off."""
    return _exec.current().col


def count(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` on the calling context's
    collector; nothing when instrumentation is off."""
    col = _exec.current().col
    if col is not None:
        col.count(name, value)


class collect:
    """Context manager activating a collector for the dynamic extent.

    ::

        with collect() as col:
            query.run(graph)
        col.counter("block.acc_executions")

    Nesting is allowed; the inner collector shadows the outer one and the
    outer is restored on exit (exception-safe).  The binding is
    per-context (:mod:`repro._exec`): another thread or event-loop task
    activating its own collector neither sees nor disturbs this one.
    """

    def __init__(self, collector: Optional[Collector] = None):
        self.collector = collector if collector is not None else Collector()
        self._token: Any = None

    def __enter__(self) -> Collector:
        self._token = _exec.bind(col=self.collector)
        return self.collector

    def __exit__(self, *exc_info: Any) -> None:
        _exec.reset(self._token)


__all__ = ["Span", "Collector", "active", "collect", "count"]
