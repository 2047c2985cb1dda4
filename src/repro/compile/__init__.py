"""Compiled execution: closure-compiled plans behind an LRU plan cache.

The lowering pass (:mod:`repro.compile.lowering`) turns an analyzed
:class:`~repro.core.query.Query` into a :class:`CompiledQuery` of
specialized closures — compiled expressions, fused ACCUM map kernels
with pre-resolved combines and a lowering-time filter pushdown — the
one form the engine executes (``Query.run`` lowers on first use).
The plan cache (:mod:`repro.compile.cache`) makes repeat executions of
the same text skip parse/analyze/lowering entirely.

See ``docs/compilation.md`` for the pipeline, cache keying rules and
the kernel catalog.
"""

from .._lazy import exports as _exports

__all__ = [
    "CompileStats",
    "CompiledBlock",
    "CompiledExpr",
    "CompiledQuery",
    "DEFAULT_CAPACITY",
    "PlanCache",
    "compile_block",
    "compile_expr",
    "compile_query",
    "compile_query_text",
    "plan_cache",
    "reset_plan_cache",
]

__getattr__, __dir__ = _exports(__name__, {
    ".cache": (
        "DEFAULT_CAPACITY", "PlanCache", "compile_query_text", "plan_cache",
        "reset_plan_cache",
    ),
    ".exprc": ("CompiledExpr", "CompileStats", "compile_expr"),
    ".lowering": (
        "CompiledBlock", "CompiledQuery", "compile_block", "compile_query",
    ),
})
