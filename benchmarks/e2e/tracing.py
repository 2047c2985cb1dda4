"""A span recorder owned by the benchmark.

Spans are recorded around calls into each layer's public functions from
the benchmark's own files (spans inside the program are a later change).
A span is (id, name, start, end, parent, request): spans of one request
share its identifier, nesting gives the parent.  Everything stays in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, parent: Optional["Span"],
                 request: Any, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.id = len(tracer.spans) + 1
        self.name = name
        self.parent = parent.id if parent is not None else None
        if request is None and parent is not None:
            request = parent.request
        self.request = request
        self.attrs = attrs
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end = time.perf_counter()
        self._tracer._close(self)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, request: Any = None, **attrs: Any) -> Span:
        span = Span(self, name, self._stack[-1] if self._stack else None, request, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        while self._stack and self._stack.pop() is not span:
            pass

    def adopt(self, name: str, start: float, end: float, parent: Span) -> None:
        """Record a span measured elsewhere on the same clock (the
        program's own ``repro.obs`` tree) under ``parent``."""
        span = Span(self, name, parent, None, {})
        span.start, span.end = start, end
        self.spans.append(span)

    def named(self, name: str) -> Iterator[Span]:
        return (s for s in self.spans if s.name == name)

    @staticmethod
    def cost_per_span(samples: int = 20000) -> float:
        """Seconds one recorded span costs, calibrated on a scratch
        tracer: what every span adds to the time of the span around it."""
        scratch = Tracer()
        started = time.perf_counter()
        for _ in range(samples):
            with scratch.span("calibration"):
                pass
        return (time.perf_counter() - started) / samples

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                [
                    {
                        "id": s.id, "name": s.name, "parent": s.parent,
                        "request": s.request,
                        "start_ms": (s.start - origin) * 1000,
                        "end_ms": (s.end - origin) * 1000,
                        **({"attrs": s.attrs} if s.attrs else {}),
                    }
                    for s in self.spans
                ],
                fh,
            )
