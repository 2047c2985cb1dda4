"""repro — accumulator-based aggregation for graph analytics.

A faithful, laptop-scale reproduction of *Aggregation Support for Modern
Graph Analytics in TigerGraph* (Deutsch, Xu, Wu, Lee — SIGMOD 2020):

* a mixed-kind property graph (:mod:`repro.graph`);
* DARPEs — direction-aware regular path expressions (:mod:`repro.darpe`);
* polynomial all-shortest-path match counting (:mod:`repro.paths`);
* exponential enumeration baselines (:mod:`repro.enumeration`);
* the accumulator library (:mod:`repro.accum`);
* a GSQL-subset query engine with snapshot ACCUM semantics
  (:mod:`repro.core`, :mod:`repro.gsql`);
* SQL-style aggregation baselines (:mod:`repro.sqlstyle`);
* an LDBC-SNB-like workload substrate (:mod:`repro.ldbc`);
* graph algorithms written in GSQL (:mod:`repro.algorithms`);
* an execution governor with budgets, cancellation and deterministic
  fault injection (:mod:`repro.governor`);
* compiled execution: closure-lowered plans behind an LRU plan cache
  (:mod:`repro.compile`).

Every name below is resolved on first use (see :mod:`repro._lazy`), so
``import repro`` imports none of the subpackages.
"""

from ._lazy import exports as _exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "accum",
    "algorithms",
    "bench",
    "compile",
    "CompiledQuery",
    "compile_query",
    "compile_query_text",
    "plan_cache",
    "core",
    "darpe",
    "enumeration",
    "governor",
    "graph",
    "gsql",
    "ldbc",
    "paths",
    "sqlstyle",
    "Graph",
    "GraphSchema",
    "PathSemantics",
    "ReproError",
    "SchemaError",
    "GraphError",
    "DarpeSyntaxError",
    "GSQLSyntaxError",
    "QueryCompileError",
    "QueryRuntimeError",
    "QueryAbortedError",
    "AccumulatorError",
    "TractabilityError",
    "EvaluationBudgetExceeded",
    "InjectedFault",
]

__getattr__, __dir__ = _exports(__name__, {
    ".compile": (
        "CompiledQuery", "compile_query", "compile_query_text", "plan_cache",
    ),
    ".errors": (
        "AccumulatorError", "DarpeSyntaxError", "EvaluationBudgetExceeded",
        "GraphError", "GSQLSyntaxError", "InjectedFault", "QueryAbortedError",
        "QueryCompileError", "QueryRuntimeError", "ReproError", "SchemaError",
        "TractabilityError",
    ),
    ".graph": ("Graph", "GraphSchema"),
    ".paths": ("PathSemantics",),
})
