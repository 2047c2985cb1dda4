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

from .analyzer import analyze, error_count, run_rules
from .cfg import CFG, CFGNode, build_cfg
from .dataflow import DataflowResult, analyze_dataflow, block_certificates
from .effects import (
    AccumEffect,
    EffectsResult,
    EffectSummary,
    ReadEffect,
    analyze_effects,
    block_effects,
)
from .diagnostics import (
    Diagnostic,
    Severity,
    apply_suppressions,
    caret_excerpt,
)
from .model import QueryModel, build_model, cached_model
from .rules import (
    Rule,
    all_rules,
    catalog_codes,
    register,
    rule_catalog,
)
from .types import TypeEnv, infer_type

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
