"""GSQL surface syntax: lexer and parser/compiler for the subset used in
the paper (Figures 1-4, the Qn family, the Appendix B queries)."""

from .lexer import tokenize
from .parser import parse_queries, parse_query
from .printer import expr_text, print_query

__all__ = ["tokenize", "parse_query", "parse_queries", "print_query", "expr_text"]
