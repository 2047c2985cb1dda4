"""GSQL surface syntax: lexer and parser/compiler for the subset used in
the paper (Figures 1-4, the Qn family, the Appendix B queries)."""

from .._lazy import exports as _exports

__all__ = ["tokenize", "parse_query", "parse_queries", "print_query", "expr_text"]

__getattr__, __dir__ = _exports(__name__, {
    ".lexer": ("tokenize",),
    ".parser": ("parse_queries", "parse_query"),
    ".printer": ("expr_text", "print_query"),
})
