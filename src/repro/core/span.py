"""Source spans: where an AST node came from in the query text.

The GSQL lexer records each token's offsets; the parser turns the
offsets of a node's first and last token into a span (line and column
resolved from the text's line table) on every AST node it builds, so
that diagnostics (``repro.analysis``) can point at the exact source
range and render caret-underlined excerpts.  Programmatically built
queries carry no spans — every consumer treats a missing span as
"location unknown".
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional


class Span(NamedTuple):
    """A half-open source range ``[start, end)`` with 1-based line/column
    coordinates for both endpoints (``end_column`` is the column just
    past the last character)."""

    line: int
    column: int
    end_line: int
    end_column: int
    start: int
    end: int

    @classmethod
    def at(cls, line: int, column: int, width: int = 1) -> "Span":
        """A synthetic span for positions known only by line/column
        (e.g. re-wrapped syntax errors)."""
        return cls(line, column, line, column + width, -1, -1)

    def merge(self, other: Optional["Span"]) -> "Span":
        """The smallest span covering both ``self`` and ``other``."""
        if other is None:
            return self
        lo, hi = (self, other) if self.start <= other.start else (other, self)
        return Span(lo.line, lo.column, hi.end_line, hi.end_column, lo.start, hi.end)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def span_of(node: Any) -> Optional[Span]:
    """The node's source span, or None for programmatically built nodes."""
    return getattr(node, "span", None)


__all__ = ["Span", "span_of"]
