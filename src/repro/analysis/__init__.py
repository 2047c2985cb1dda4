"""Rule-based static analysis for the GSQL subset.

The subsystem behind ``repro lint``: a pluggable rule registry
(:mod:`~repro.analysis.rules`), accumulator-lattice type inference
(:mod:`~repro.analysis.types`), and span-carrying diagnostics with
caret-underlined source excerpts (:mod:`~repro.analysis.diagnostics`),
all driven off a single-pass fact model of the query
(:mod:`~repro.analysis.model`).

This package imports only from :mod:`repro.core` (never from
:mod:`repro.gsql`), so the parser can keep stamping spans and type
descriptors without an import cycle.
"""

from .._lazy import exports as _exports

__all__ = [
    "analyze",
    "run_rules",
    "error_count",
    "Diagnostic",
    "Severity",
    "apply_suppressions",
    "caret_excerpt",
    "QueryModel",
    "build_model",
    "cached_model",
    "CFG",
    "CFGNode",
    "build_cfg",
    "DataflowResult",
    "analyze_dataflow",
    "block_certificates",
    "AccumEffect",
    "ReadEffect",
    "EffectSummary",
    "EffectsResult",
    "analyze_effects",
    "block_effects",
    "Rule",
    "all_rules",
    "register",
    "rule_catalog",
    "catalog_codes",
    "TypeEnv",
    "infer_type",
]

__getattr__, __dir__ = _exports(__name__, {
    ".analyzer": ("analyze", "error_count", "run_rules"),
    ".cfg": ("CFG", "CFGNode", "build_cfg"),
    ".dataflow": ("DataflowResult", "analyze_dataflow", "block_certificates"),
    ".effects": (
        "AccumEffect", "EffectsResult", "EffectSummary", "ReadEffect",
        "analyze_effects", "block_effects",
    ),
    ".diagnostics": (
        "Diagnostic", "Severity", "apply_suppressions", "caret_excerpt",
    ),
    ".model": ("QueryModel", "build_model", "cached_model"),
    ".rules": (
        "Rule", "all_rules", "catalog_codes", "register", "rule_catalog",
    ),
    ".types": ("TypeEnv", "infer_type"),
})
