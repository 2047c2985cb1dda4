"""Direction-Aware Regular Path Expressions (DARPEs).

Parsing (:func:`parse_darpe`), static analysis (length ranges,
fixed-unique-length detection) and compilation to automata
(:class:`CompiledDarpe`), per Section 2 of the paper.
"""

from .._lazy import exports as _exports

__all__ = [
    "Alt",
    "Concat",
    "DarpeNode",
    "Epsilon",
    "Repeat",
    "Star",
    "Symbol",
    "contains_kleene",
    "fixed_unique_length",
    "length_range",
    "normalize",
    "symbols",
    "NFA",
    "AdornedSymbol",
    "CompiledDarpe",
    "LazyDFA",
    "compile_nfa",
    "parse_darpe",
]

__getattr__, __dir__ = _exports(__name__, {
    ".ast": (
        "Alt", "Concat", "DarpeNode", "Epsilon", "Repeat", "Star", "Symbol",
        "contains_kleene", "fixed_unique_length", "length_range", "normalize",
        "symbols",
    ),
    ".automaton": (
        "NFA", "AdornedSymbol", "CompiledDarpe", "LazyDFA", "compile_nfa",
    ),
    ".parser": ("parse_darpe",),
})
