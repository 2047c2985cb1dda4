"""The analyzer entry point: run every rule over a compiled query.

:func:`analyze` is the programmatic API (the ``repro lint``,
``validate`` and ``explain`` commands all sit on top of it)::

    from repro.analysis import analyze
    diagnostics = analyze(query, schema=schema)
    for diag in diagnostics:
        print(diag.render(query.source))

Inline suppressions in the query text (``// lint: disable=GSQL-W012``)
are honored automatically when the query carries its source (the GSQL
parser sets ``query.source``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .diagnostics import Diagnostic, apply_suppressions
from .model import QueryModel, cached_model
from .rules import Rule, all_rules


def run_rules(
    model: QueryModel, rules: Optional[Sequence[Rule]] = None
) -> List[Diagnostic]:
    """All diagnostics from ``rules`` (default: the full registry) over a
    prebuilt model, unsorted and unsuppressed.  Each diagnostic's ``seq``
    is the source-order sequence of the fact it anchors to, so sorting by
    ``seq`` reproduces walk order (``repro validate`` prints in it).
    """
    diagnostics: List[Diagnostic] = []
    for rule in rules if rules is not None else all_rules():
        diagnostics.extend(rule.check(model))
    return diagnostics


def analyze(
    query,
    schema=None,
    source: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
    stats=None,
) -> List[Diagnostic]:
    """Analyze a compiled :class:`~repro.core.query.Query`.

    Returns diagnostics sorted for display (by source position, then
    code), with the source text's inline suppressions applied.  Pass
    ``source`` explicitly for queries whose ``.source`` is unset.
    ``stats`` (a :class:`~repro.graph.stats.GraphStatsSnapshot`) gives
    the cost rules (W050-W052) closed-form predictions instead of
    structural bounds.
    """
    model = cached_model(query, schema)
    model.lint_stats = stats
    diagnostics = run_rules(model, rules)
    text = source if source is not None else model.source
    diagnostics = apply_suppressions(diagnostics, text)
    diagnostics.sort(key=lambda d: d.sort_key())
    return diagnostics


def error_count(diagnostics: Sequence[Diagnostic]) -> int:
    return sum(1 for d in diagnostics if d.is_error)


__all__ = ["analyze", "run_rules", "error_count"]
