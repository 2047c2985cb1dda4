"""EXPLAIN: a human-readable account of how a query will be evaluated.

Reports, per SELECT block: the pattern chains with each hop's kind
(adjacency expansion vs. path-engine) and DARPE analysis (fixed length?
Kleene?), the pushed-down filters, the accumulator inputs with their
multiplicity handling, and the tractability classification — the pieces
of Section 7's argument, made inspectable.
"""

from __future__ import annotations

from typing import List

from ..darpe.ast import contains_kleene, fixed_unique_length, length_range
from .block import SelectBlock
from .exprs import Scope
from .pattern import _semijoin_hop
from .planner import push_down_filters
from .query import (
    DeclareAccum,
    GlobalAccumUpdate,
    If,
    Parameter,
    Print,
    Query,
    Return,
    RunBlock,
    SetAssign,
    Statement,
    While,
)
from .stmts import AccumUpdate, LocalAssign


def explain_query(query: Query) -> str:
    """A multi-line EXPLAIN report for a compiled query."""
    lines: List[str] = [f"QUERY {query.name}"]
    if query.params:
        params = ", ".join(f"{p.type_name} {p.name}" for p in query.params)
        lines.append(f"  parameters: {params}")
    # Imported lazily: repro.analysis imports core submodules.
    from ..analysis import run_rules
    from ..analysis.model import cached_model

    # Section 7's class definition: order-dependent declarations (W012)
    # first, then the blocks a Kleene pattern feeds them from (E013).
    violations = sorted(
        (
            d for d in run_rules(cached_model(query))
            if d.code in ("GSQL-W012", "GSQL-E013")
        ),
        key=lambda d: (d.code == "GSQL-E013", d.seq),
    )
    if violations:
        lines.append("  tractability: OUTSIDE the Section 7 class")
        for v in violations:
            lines.append(f"    - {v.rule_name}: {v.message}")
    else:
        lines.append("  tractability: tractable (polynomial counting evaluation)")
    _explain_statements(query.statements, lines, indent=1, params=query.params)
    return "\n".join(lines)


def _explain_statements(
    statements: List[Statement], lines: List[str], indent: int, params: List[Parameter]
) -> None:
    pad = "  " * indent
    for stmt in statements:
        if isinstance(stmt, DeclareAccum):
            probe = stmt.base_factory() if not getattr(
                stmt.base_factory, "takes_context", False
            ) else None
            type_name = probe.type_name if probe is not None else "HeapAccum"
            scope = "@@" if stmt.scope == "global" else "@"
            flags = []
            if probe is not None:
                if not probe.order_invariant:
                    flags.append("order-dependent")
                if not probe.multiplicity_sensitive:
                    flags.append("multiplicity-insensitive")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(f"{pad}DECLARE {scope}{stmt.name}: {type_name}{suffix}")
        elif isinstance(stmt, SetAssign):
            if isinstance(stmt.source, SelectBlock):
                lines.append(f"{pad}{stmt.name} = SELECT ...")
                _explain_block(stmt.source, lines, indent + 1, params)
            else:
                lines.append(f"{pad}{stmt.name} = {stmt.source}")
        elif isinstance(stmt, RunBlock):
            head = f"{stmt.assign_to} = SELECT" if stmt.assign_to else "SELECT"
            lines.append(f"{pad}{head} ...")
            _explain_block(stmt.block, lines, indent + 1, params)
        elif isinstance(stmt, GlobalAccumUpdate):
            lines.append(f"{pad}@@{stmt.name} {stmt.op} {stmt.expr!r}")
        elif isinstance(stmt, While):
            limit = f" LIMIT {stmt.limit!r}" if stmt.limit is not None else ""
            lines.append(f"{pad}WHILE {stmt.cond!r}{limit}")
            _explain_statements(stmt.body, lines, indent + 1, params)
        elif isinstance(stmt, If):
            lines.append(f"{pad}IF {stmt.cond!r}")
            _explain_statements(stmt.then, lines, indent + 1, params)
            if stmt.otherwise:
                lines.append(f"{pad}ELSE")
                _explain_statements(stmt.otherwise, lines, indent + 1, params)
        elif isinstance(stmt, Print):
            lines.append(f"{pad}PRINT ({len(stmt.items)} items)")
        elif isinstance(stmt, Return):
            lines.append(f"{pad}RETURN {stmt.expr!r}")
        else:
            # statement groups and extension statements
            inner = getattr(stmt, "statements", None)
            if inner is not None:
                _explain_statements(inner, lines, indent, params)
            else:
                lines.append(f"{pad}{type(stmt).__name__}")


def _explain_block(
    block: SelectBlock, lines: List[str], indent: int, params: List[Parameter]
) -> None:
    pad = "  " * indent
    cert = getattr(block, "certificate", None)
    if cert is not None:
        lines.append(f"{pad}CERTIFICATE {cert.status.value}")
        for witness in cert.witnesses:
            lines.append(f"{pad}  * {witness}")
    effect = getattr(block, "effect_certificate", None)
    if effect is not None:
        delta = " delta-maintainable" if effect.delta_maintainable else ""
        lines.append(f"{pad}EFFECTS {effect.status.value}{delta}")
        for witness in effect.witnesses:
            lines.append(f"{pad}  * {witness}")
    var_filters, residual = push_down_filters(
        block.where, set(block.pattern.variables())
    )
    for chain in block.pattern.chains:
        hops = getattr(chain, "hops", [])
        source = getattr(chain, "source", chain)
        lines.append(f"{pad}FROM {source!r}")
        for k, hop in enumerate(hops, 1):
            far = _semijoin_far_end(hops, k, var_filters, params)
            lines.append(f"{pad}  {_describe_hop(hop, far)}")
    for var, filters in sorted(var_filters.items()):
        for f in filters:
            lines.append(f"{pad}PUSHDOWN [{var}] {f!r}")
    for conjunct in residual:
        lines.append(f"{pad}WHERE {conjunct!r}")
    for stmt in block.accum:
        lines.append(f"{pad}ACCUM {_describe_acc(stmt)}")
    for stmt in block.post_accum:
        lines.append(f"{pad}POST_ACCUM {_describe_acc(stmt)}")
    if block.group_by:
        keys = ", ".join(repr(k) for k in block.group_by)
        lines.append(f"{pad}GROUP BY {keys}")
    if block.order_by:
        keys = ", ".join(
            f"{expr!r} {'DESC' if desc else 'ASC'}" for expr, desc in block.order_by
        )
        lines.append(f"{pad}ORDER BY {keys}")
    if block.limit is not None:
        lines.append(f"{pad}LIMIT {block.limit!r}")
    for fragment in block.fragments:
        lines.append(f"{pad}INTO {fragment.into} ({len(fragment.columns)} columns)")
    if block.select_var:
        lines.append(f"{pad}=> vertex set of {block.select_var!r}")


def _semijoin_far_end(hops, k: int, var_filters, params: List[Parameter]):
    """The far-end variable of the ``repro.core.pattern._semijoin_hop``
    after hop ``k`` (1-based) when the hop kernel may prune hop ``k``
    toward it: its far end is pinned to a vertex parameter or filtered
    by bound comparisons only.  A vertex-set far end and the candidate
    count are known at run time only."""
    far_hop = _semijoin_hop(hops, k, var_filters)
    if far_hop is None:
        return None
    far = far_hop.target.var
    filters = var_filters.get(far, [])
    pinned = any(p.name == far and p.vertex_type is not None for p in params)
    if not (filters or pinned):
        return None
    # Imported lazily: repro.compile imports core submodules.
    from ..compile.lowering import lower_pushed_filter

    scope = Scope((far,), (), [p.name for p in params])
    if all(lower_pushed_filter(f, None, scope).compare for f in filters):
        return far
    return None


def _describe_hop(hop, semijoin=None) -> str:
    ast = hop.darpe.ast
    lo, hi = length_range(ast)
    if hop.is_single_symbol:
        plan = "adjacency expansion"
        if semijoin is not None:
            plan += f", semi-join toward {semijoin}"
    elif contains_kleene(ast):
        plan = "path engine (Kleene: SDMC counting / enumeration)"
    else:
        plan = "path engine (bounded)"
    fixed = fixed_unique_length(ast)
    shape = (
        f"fixed-unique-length {fixed}"
        if fixed is not None
        else f"length {lo}..{'∞' if hi is None else hi}"
    )
    edge = f" AS {hop.edge_var}" if hop.edge_var else ""
    return f"-({hop.darpe.text}{edge})- {hop.target!r}   [{plan}; {shape}]"


def _describe_acc(stmt) -> str:
    if isinstance(stmt, LocalAssign):
        return f"{stmt.name} = {stmt.expr!r}  [local]"
    if isinstance(stmt, AccumUpdate):
        return f"{stmt.target!r} {stmt.op} {stmt.expr!r}"
    return repr(stmt)


__all__ = ["explain_query"]
