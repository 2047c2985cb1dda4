"""The dict-row pattern matcher the engine ran before binding rows became
slot tuples, kept as the oracle of ``test_core_pattern_differential.py``.

Rows here are ``(bindings dict, multiplicity)``: a hop extends a row by
copying its dict, a repeated variable is found by name, chains are joined
on the names their dicts share.  Pushed-down filters always run as their
closures (:func:`_bind_filters` below, the bind stage before it learned
to compare tagged conjuncts inline), and hop targets are admitted by the
memoising acceptor the shipped admission loop replaced
(``_ClosureAcceptor``, fed that closure-only bind stage).  A hop the
shipped matcher prunes by a semi-join toward the next hop
(:func:`_semijoin_applies` picks the same hops) is expanded in full
here, then keeps the rows that next hop extends — found by running the
next hop on each row alone.  Everything
else that is *not* the row representation — the per-hop counting
(``_hop_counts``), the obs touchpoints — is the shipped code, called at
the places the old loops called it, and adjacency is read through the
public ``Graph.steps`` (one :class:`Step` and one acceptor probe per
crossing), so a difference between the two matchers is a difference in
how rows are built, ordered or joined, or in what a filter decides.
"""

from repro import _exec
from repro.core.exprs import _BINARY_OPS, EvalEnv, Scope
from repro.core.pattern import (
    EngineMode,
    TableSource,
    _hop_counts,
    _is_table_conjunct,
    _join_key,
)
from repro.errors import QueryRuntimeError


def _bind_filters(ctx, var, filters):
    """Every conjunct's closure, in order, under one reused environment."""
    if not filters:
        return None
    scope = Scope((var,))
    fns = [f.closure(scope)[0] for f in filters]
    row = [None]
    env = EvalEnv(ctx, row)

    def passes(value):
        row[0] = value
        for fn in fns:
            if not fn(env):
                return False
        return True

    return passes


class _ClosureAcceptor(dict):
    """The memoising target acceptor the engine ran before admission was
    decided inline, with its filter test taken from the closure-only bind
    stage above: ``acceptor[vid]`` is the admissible target or None,
    decided once per distinct vertex, nothing stored when a filter
    raises."""

    def __init__(self, ctx, spec, filters):
        self._vertex = ctx.graph.vertex
        pinned = spec._pinned_vertex(ctx)
        self._pinned = None if pinned is None else pinned.vid
        self._type, self._vset = spec.restriction(ctx)
        self._passes = _bind_filters(ctx, spec.var, filters)

    def __missing__(self, vid):
        vertex = self._vertex(vid)
        if (
            (self._type is not None and vertex.type != self._type)
            or (self._pinned is not None and vid != self._pinned)
            or (self._vset is not None and vertex not in self._vset)
            or (self._passes is not None and not self._passes(vertex))
        ):
            vertex = None
        self[vid] = vertex
        return vertex


def evaluate_chain(ctx, chain, mode, var_filters=None):
    graph = ctx.graph
    var_filters = var_filters or {}
    col = _exec.current().col
    current_var = chain.source.var
    passes = _bind_filters(ctx, current_var, var_filters.get(current_var))
    rows = [
        ({current_var: v}, 1)
        for v in chain.source.seed(ctx)
        if passes is None or passes(v)
    ]
    if col is not None:
        col.count("pattern.seed_vertices", len(rows))
    for k, hop in enumerate(chain.hops, 1):
        far_hop = chain.hops[k] if k < len(chain.hops) else None
        pruned = far_hop is not None and _semijoin_applies(
            ctx, chain, hop, far_hop, rows, var_filters
        )
        if col is not None:
            hop_span = col.span(
                "hop",
                label=f"hop -({hop.darpe.text})- {hop.target!r}",
                rows_in=len(rows),
            )
        try:
            if pruned and col is not None:
                col.count("planner.hops_semijoin")
            new_rows, plan = _evaluate_hop(
                ctx, graph, hop, rows, mode, var_filters, current_var, col
            )
            if pruned:
                new_rows = [
                    row for row in new_rows
                    if _evaluate_hop(
                        ctx, graph, far_hop, [row], mode, var_filters,
                        hop.target.var, None,
                    )[0]
                ]
        finally:
            if col is not None:
                col.close(hop_span)
        if col is not None:
            hop_span.set(
                plan=plan,
                rows_out=len(new_rows),
                multiplicity_out=sum(m for _, m in new_rows),
            )
            if pruned:
                hop_span.set(semijoin=far_hop.target.var)
        rows = new_rows
        current_var = hop.target.var
    return rows


def _evaluate_hop(ctx, graph, hop, rows, mode, var_filters, current_var, col):
    new_rows = []
    append = new_rows.append
    target_var = hop.target.var
    if hop.is_single_symbol:
        plan = "adjacency"
        symbol = hop.darpe.ast
        acceptor = _ClosureAcceptor(ctx, hop.target, var_filters.get(target_var))
        edge_var = hop.edge_var
        edge_passes = (
            _bind_filters(ctx, edge_var, var_filters.get(edge_var))
            if edge_var is not None
            else None
        )
        direction, etype = symbol.direction, symbol.edge_type
        for bindings, multiplicity in rows:
            joined = bindings.get(target_var)
            for step in graph.steps(bindings[current_var].vid, direction, etype):
                target = acceptor[step.neighbor]
                if target is None:
                    continue
                if edge_passes is not None and not edge_passes(step.edge):
                    continue
                if joined is not None and joined.vid != target.vid:
                    continue
                extended = dict(bindings)
                extended[target_var] = target
                if edge_var is not None:
                    extended[edge_var] = step.edge
                append((extended, multiplicity))
        return new_rows, plan

    reverse_targets = _reverse_targets(
        ctx, hop, rows, mode, var_filters, current_var
    )
    if reverse_targets is not None:
        plan = f"{mode.kind}-reversed"
        if col is not None:
            col.count("planner.hops_reversed")
        counts_by_target = [
            (t, _hop_counts(graph, t.vid, hop, mode, reverse=True))
            for t in reverse_targets
        ]
        for bindings, multiplicity in rows:
            joined = bindings.get(target_var)
            source_vid = bindings[current_var].vid
            for target, counts in counts_by_target:
                mult = counts.get(source_vid, 0)
                if not mult:
                    continue
                if joined is not None and joined.vid != target.vid:
                    continue
                extended = dict(bindings)
                extended[target_var] = target
                append((extended, multiplicity * mult))
        return new_rows, plan

    plan = "sdmc-counting" if mode.kind == EngineMode.COUNTING else "enumeration"
    if col is not None:
        col.count("planner.hops_forward")
    acceptor = _ClosureAcceptor(ctx, hop.target, var_filters.get(target_var))
    cache = {}
    for bindings, multiplicity in rows:
        source_vid = bindings[current_var].vid
        admitted = cache.get(source_vid)
        if admitted is None:
            counts = _hop_counts(graph, source_vid, hop, mode)
            admitted = cache[source_vid] = [
                (target, mult)
                for vid, mult in counts.items()
                if (target := acceptor[vid]) is not None
            ]
        joined = bindings.get(target_var)
        for target, mult in admitted:
            if joined is not None and joined.vid != target.vid:
                continue
            extended = dict(bindings)
            extended[target_var] = target
            append((extended, multiplicity * mult))
    return new_rows, plan


def _reverse_targets(ctx, hop, rows, mode, var_filters, current_var):
    if mode.kind != EngineMode.ENUMERATION:
        return None
    passes = _bind_filters(ctx, hop.target.var, var_filters.get(hop.target.var))
    if passes is None or not rows:
        return None
    targets = [v for v in hop.target.seed(ctx) if passes(v)]
    distinct_sources = {bindings[current_var].vid for bindings, _ in rows}
    if len(targets) <= len(distinct_sources):
        return targets
    return None


def _semijoin_applies(ctx, chain, hop, far_hop, rows, var_filters):
    """Whether the shipped matcher prunes adjacency hop ``hop`` toward the
    adjacency hop ``far_hop`` after it: ``far_hop``'s edge carries no
    filter, its far end is a vertex variable restricted by a pin, a
    vertex set or bound comparisons only, it has no more candidates than
    ``rows``, and the comparisons decide every candidate without a
    missing attribute or a ``TypeError``."""
    if not (hop.is_single_symbol and far_hop.is_single_symbol):
        return False
    if far_hop.target.var in {h.edge_var for h in chain.hops}:
        return False
    if far_hop.edge_var is not None and var_filters.get(far_hop.edge_var):
        return False
    spec = far_hop.target
    filters = var_filters.get(spec.var) or []
    pinned = spec._pinned_vertex(ctx)
    vtype, vset = spec.restriction(ctx)
    if pinned is not None:
        candidates = [pinned]
    elif vset is not None:
        candidates = list(vset)
    elif filters:
        candidates = list(ctx.graph.vertices(vtype))
    else:
        return False
    if not rows or len(candidates) > len(rows):
        return False
    env = EvalEnv(ctx, [None])
    tests = []
    for f in filters:
        tag = getattr(f, "compare", None)
        if tag is None:
            return False
        attr, op, operand_fn = tag
        try:
            operand = operand_fn(env)
        except QueryRuntimeError:
            return False
        if type(operand) not in (int, float, str):
            return False
        tests.append((attr, _BINARY_OPS[op], operand))
    for candidate in candidates:
        if candidate.vid not in ctx.graph:
            continue
        vertex = ctx.graph.vertex(candidate.vid)
        if (vtype is not None and vertex.type != vtype) or (
            vset is not None and vertex not in vset
        ):
            continue
        for attr, compare, operand in tests:
            if attr not in vertex.attrs:
                return False
            try:
                if not compare(vertex.attrs[attr], operand):
                    break
            except TypeError:
                return False
    return True


def _join(left, right):
    if not left or not right:
        return []
    shared = sorted(set(left[0][0]) & set(right[0][0]))

    def key(bindings):
        return tuple(_join_key(bindings[name]) for name in shared)

    buckets = {}
    for row in right:
        buckets.setdefault(key(row[0]), []).append(row)
    out = []
    for bindings, multiplicity in left:
        for right_bindings, right_multiplicity in buckets.get(key(bindings), ()):
            joined = dict(bindings)
            joined.update(right_bindings)
            out.append((joined, multiplicity * right_multiplicity))
    return out


def evaluate_pattern(ctx, pattern, mode, var_filters=None):
    """``(pattern.variables(), rows)`` with dict rows."""
    rows = None
    filters = var_filters or {}
    for chain in pattern.chains:
        if not isinstance(chain, TableSource) and _is_table_conjunct(ctx, chain):
            chain = TableSource(chain.source.name, chain.source.var)
        if isinstance(chain, TableSource):
            passes = _bind_filters(ctx, chain.var, filters.get(chain.var))
            chain_rows = [
                ({chain.var: row}, 1)
                for row in chain.rows(ctx)
                if passes is None or passes(row)
            ]
        else:
            chain_rows = evaluate_chain(ctx, chain, mode, filters)
        rows = chain_rows if rows is None else _join(rows, chain_rows)
    assert rows is not None
    return pattern.variables(), rows
