"""Static cost & cardinality analysis — interval abstract interpretation.

This is the third static analysis stacked on the PR 3 CFG (after
dataflow/tractability and effects/determinism): an abstract
interpretation that propagates **cardinality intervals** through each
query — frontier sizes, SDMC product states, materialized paths, ACCUM
executions, accumulator bytes — and stamps every SELECT block (and the
whole query) with a :class:`~repro.core.tractable.CostCertificate`.

The abstract domain is :class:`~repro.core.tractable.Interval`:
``[lo, hi]`` with ``hi=None`` meaning +inf.  Soundness contract: every
interval **brackets** the corresponding runtime obs counter
(``block.acc_executions``, ``sdmc.product_states``,
``enum.paths_emitted``, governor byte estimates) — ``tests/test_golden.py``
enforces this and pins every bound against the golden
``tests/golden/cost.json``, so the estimator cannot silently drift
optimistic.

Two modes:

* **structural** (``stats=None``, what a reader without a graph
  stamps — the parser stamps no cost certificate): bounds that
  depend only on the query shape.  Graph-dependent quantities stay open
  (``hi=None``) and the certificate's confidence is UNBOUNDED (or
  ESTIMATED when loop caps still bound the work).
* **statistics-aware** (``stats=`` a :class:`~repro.graph.stats.
  GraphStatsSnapshot`): per-type vertex/edge counts, degree maxima and
  attribute value frequencies close the bounds.  This is where Theorem
  7.1 becomes visible *statically*: on the Qn diamond chain, the
  predicted ACCUM-execution interval is linear in n (seeds are pinned
  to 1 by the ``name`` equality filter, and a counting run touches each
  of the 3n+1 reachable vertices at most once) while the predicted path
  interval grows as 2^Θ(n) (per-level fan-out compounds through the
  Kleene hop).

Confidence tiers (weakest-wins across blocks):

* ``CLOSED_FORM`` — every upper bound derives from exact snapshot
  counts (type cardinalities, degree maxima, attribute frequencies, NFA
  sizes) with no heuristic fallback;
* ``ESTIMATED`` — bounded, but some component used a fallback (unknown
  table size, non-constant LIMIT, widened loop);
* ``UNBOUNDED`` — a core metric (frontier / product states / ACCUM
  executions / accumulator bytes) has no finite upper bound.

The analysis is memoised on the model per stats fingerprint
(``model._cost``), so ``repro check --cost``, the planner, the
governor and the worker's cost screen share one pass; the
PlanCache additionally persists the certificate across parses keyed by
the same fingerprint.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .. import _exec
from ..core.query import (
    Foreach,
    GOVERNED_WHILE_CAP,
    If,
    RunBlock,
    SetAssign,
    While,
)
from ..core.tractable import (
    COST_CAP,
    CostCertificate,
    CostConfidence,
    Interval,
)
from .cfg import const_value
from .dataflow import AccKey, _decl_key, _fact_key, analyze_dataflow
from .model import BlockFact, DeclFact, QueryModel

#: Bytes charged for one accumulator instance's fixed state (scalars
#: stay at this size no matter how many inputs fold in).
ACCUM_BASE_BYTES = 64


class BlockCost:
    """Mutable scratch for one block's metric intervals + witnesses."""

    __slots__ = (
        "frontier", "product_states", "paths", "acc_executions",
        "accum_bytes", "witnesses", "estimated",
    )

    def __init__(self) -> None:
        self.frontier = Interval.exact(0)
        self.product_states = Interval.exact(0)
        self.paths = Interval.exact(0)
        self.acc_executions = Interval.exact(0)
        self.accum_bytes = Interval.exact(0)
        self.witnesses: List[str] = []
        self.estimated = False


class CostResult:
    """Everything one cost pass produced."""

    def __init__(self, stats=None) -> None:
        self.stats = stats
        #: (block fact, certificate) per SELECT block, in source order.
        self.blocks: List[Tuple[BlockFact, CostCertificate]] = []
        #: (While statement, predicted iteration interval) per loop.
        self.whiles: List[Tuple[Any, Interval]] = []
        self.query_certificate: Optional[CostCertificate] = None

    def certificate_for(self, block) -> Optional[CostCertificate]:
        for fact, cert in self.blocks:
            if fact.block is block:
                return cert
        return None


# ---------------------------------------------------------------------------
# helpers over the snapshot
# ---------------------------------------------------------------------------


def _type_count(stats, schema, name: str) -> Optional[int]:
    """Vertex count of a *type* position, None when unknowable."""
    if stats is None:
        return None
    if name in ("_", "ANY"):
        return stats.total_vertices
    if schema is not None and not schema.has_vertex_type(name):
        return None  # a set reference, resolved by the frontier env
    return stats.vertices_of(name)


def _is_type_position(schema, name: str) -> bool:
    if name in ("_", "ANY"):
        return True
    return schema is not None and schema.has_vertex_type(name)


def _geometric_sum(base: int, length: int) -> int:
    """sum_{l=0..length} base**l, clamped to COST_CAP."""
    if base <= 0:
        return 1
    if base == 1:
        return min(length + 1, COST_CAP)
    total = 0
    power = 1
    for _ in range(length + 1):
        total += power
        if total >= COST_CAP:
            return COST_CAP
        power *= base
    return total


def _equality_bounds(where, pattern_vars) -> Dict[str, str]:
    """var -> attribute pinned by a WHERE equality conjunct.

    Walks the top-level AND spine of the WHERE clause looking for
    ``var.attr == <expr>`` (either side) where ``<expr>`` references no
    pattern variable (a literal or parameter).  The snapshot's
    per-(type, attribute) maximum value frequency is then a sound bound
    on how many vertices any single comparison value can select.
    """
    if where is None:
        return {}
    from ..core.exprs import AttrRef, Binary, NameRef

    vars_ = set(pattern_vars)

    def conjuncts(expr):
        if isinstance(expr, Binary) and expr.op == "AND":
            yield from conjuncts(expr.left)
            yield from conjuncts(expr.right)
        else:
            yield expr

    def attr_of(expr):
        if isinstance(expr, AttrRef) and isinstance(expr.base, NameRef):
            if expr.base.name in vars_:
                return expr.base.name, expr.attr
        return None

    def mentions_pattern_var(expr) -> bool:
        if isinstance(expr, NameRef):
            return expr.name in vars_
        for slot in getattr(expr, "__slots__", ()):
            child = getattr(expr, slot, None)
            if isinstance(child, (list, tuple)):
                if any(
                    mentions_pattern_var(c)
                    for c in child
                    if hasattr(c, "__slots__")
                ):
                    return True
            elif hasattr(child, "__slots__") and mentions_pattern_var(child):
                return True
        return False

    bounds: Dict[str, str] = {}
    for conj in conjuncts(where):
        if not (isinstance(conj, Binary) and conj.op == "=="):
            continue
        for lhs, rhs in ((conj.left, conj.right), (conj.right, conj.left)):
            ref = attr_of(lhs)
            if ref is not None and not mentions_pattern_var(rhs):
                bounds[ref[0]] = ref[1]
                break
    return bounds


# ---------------------------------------------------------------------------
# the per-block walk
# ---------------------------------------------------------------------------


def _certify_block(
    block_fact: BlockFact,
    model: QueryModel,
    env: Dict[str, Interval],
    loop_factor: Interval,
    decls: Dict[AccKey, DeclFact],
    stats,
) -> Tuple[CostCertificate, Interval]:
    """One block's certificate plus the result-set frontier interval."""
    schema = model.schema
    block = block_fact.block
    cost = BlockCost()
    vertex_params = {
        p.name for p in model.query.params if p.vertex_type is not None
    }
    eq_attrs = _equality_bounds(block.where, block.pattern.variables())
    total_v = None if stats is None else stats.total_vertices

    def position_interval(name: str, var: str, seed: bool = False) -> Interval:
        """Admissible vertices at one pattern position.

        Equality-filter selectivity applies only at *seed* positions —
        that is where the engine pushes the filter down, and where the
        bound drives seeds-times-reachability products.
        """
        if var in vertex_params:
            # The ``Customer:c`` idiom — pinned to one parameter vertex.
            cost.witnesses.append(f"{var} pinned by vertex parameter")
            return Interval(0, 1)
        if _is_type_position(schema, name):
            count = _type_count(stats, schema, name)
            iv = Interval.upto(count)
            vtype = name if name not in ("_", "ANY") else None
            attr = eq_attrs.get(var) if seed else None
            if attr is not None and stats is not None and vtype is not None:
                freq = stats.max_value_frequency(vtype, attr)
                if freq is not None:
                    cost.witnesses.append(
                        f"{var}.{attr} equality selects <= {freq} "
                        f"{vtype} vertices (max value frequency)"
                    )
                    iv = iv.cap(freq)
            return iv
        # A set reference: the frontier environment's interval.
        iv = env.get(name)
        if iv is None:
            iv = Interval.upto(total_v)
            if stats is not None:
                cost.witnesses.append(
                    f"set {name!r} bounded by |V|={total_v}"
                )
        return iv

    result_frontier = Interval.exact(0)
    rows_total = Interval.exact(1)
    any_chain = False
    var_frontiers: Dict[str, Interval] = {}

    for chain in block.pattern.chains:
        source = getattr(chain, "source", None)
        if source is None:
            # A relational TableSource conjunct: size unknown to the
            # graph snapshot.
            cost.witnesses.append("table conjunct of unknown size")
            cost.estimated = True
            rows_total = rows_total.mul(Interval(0, None))
            continue
        any_chain = True
        frontier = position_interval(source.name, source.var, seed=True)
        var_frontiers[source.var] = frontier
        rows = frontier
        paths = frontier
        for hop in chain.hops:
            tgt = position_interval(hop.target.name, hop.target.var)
            nfa_states = hop.darpe.nfa.num_states
            if hop.is_single_symbol:
                sym = hop.darpe.ast
                fan_hi = (
                    None if stats is None
                    else stats.fan_out(sym.edge_type, sym.direction)
                )
                fan = Interval.upto(fan_hi)
                frontier = frontier.mul(fan).cap(tgt.hi)
                rows = rows.mul(fan).cap(
                    None if rows.hi is None or tgt.hi is None
                    else rows.hi * tgt.hi
                )
                paths = paths.mul(fan)
            else:
                # A DARPE hop runs SDMC per source: each run visits at
                # most |V| x nfa-states product states (Theorem 6.1).
                per_seed = (
                    None if total_v is None else total_v * nfa_states
                )
                cost.product_states = cost.product_states.add(
                    rows.mul(Interval.upto(per_seed))
                )
                if total_v is not None:
                    cost.witnesses.append(
                        f"DARPE {hop.darpe.text or '*'} visits <= "
                        f"|V|*{nfa_states}={per_seed} product states "
                        f"per seed"
                    )
                if stats is None:
                    fan_base = None
                else:
                    fan_base = max(
                        (
                            stats.fan_out(s.edge_type, s.direction)
                            for s in _symbols(hop.darpe.ast)
                        ),
                        default=0,
                    )
                if hop.has_kleene:
                    # Paths of every length up to |V| edges are
                    # admissible under all-shortest-paths semantics.
                    per_source_paths = (
                        None
                        if fan_base is None or total_v is None
                        else _geometric_sum(fan_base, total_v)
                    )
                else:
                    # Bounded repeat: path length capped by the NFA size.
                    per_source_paths = (
                        None
                        if fan_base is None
                        else _geometric_sum(fan_base, nfa_states)
                    )
                paths = paths.mul(Interval.upto(per_source_paths))
                # Each source resolves to at most |targets| rows in the
                # compressed binding table.
                rows = rows.mul(Interval.upto(tgt.hi))
                frontier = tgt
            var_frontiers[hop.target.var] = frontier
        rows_total = rows_total.mul(rows)
        cost.paths = cost.paths.add(paths)
        result_frontier = result_frontier.join(frontier)

    if not any_chain:
        rows_total = rows_total.mul(Interval(0, None))

    if block.select_var is not None and block.select_var in var_frontiers:
        result_frontier = var_frontiers[block.select_var]

    cost.frontier = result_frontier
    if block.accum:
        # One ACCUM execution per compressed binding row.
        cost.acc_executions = cost.acc_executions.add(rows_total)
    if block.post_accum:
        cost.acc_executions = cost.acc_executions.add(result_frontier)

    # Accumulator byte growth: algebra table's unit-bytes column.
    from ..accum.algebra import classify

    seen_accums = set()
    for write in block_fact.writes:
        key = _fact_key(write)
        if key is None or key in seen_accums:
            continue
        seen_accums.add(key)
        decl = decls.get(key)
        alg = classify(decl.type_info) if decl is not None else None
        unit = alg.unit_bytes if alg is not None else ACCUM_BASE_BYTES
        instances = Interval.exact(1) if write.is_global else cost.frontier
        growth = cost.acc_executions.mul(Interval.upto(unit)) if unit else (
            Interval.exact(0)
        )
        fixed = instances.mul(Interval.exact(ACCUM_BASE_BYTES))
        cost.accum_bytes = cost.accum_bytes.add(fixed).add(growth)
        if alg is not None and unit:
            cost.witnesses.append(
                f"@{'@' if write.is_global else ''}{write.name} grows "
                f"{unit} B per folded input ({alg.kind}, merge "
                f"{alg.merge_cost})"
            )

    # Loop context multiplies the per-execution work.
    if loop_factor != Interval.exact(1):
        cost.acc_executions = cost.acc_executions.mul(loop_factor)
        cost.product_states = cost.product_states.mul(loop_factor)
        cost.paths = cost.paths.mul(loop_factor)
        cost.accum_bytes = cost.accum_bytes.mul(loop_factor)
        cost.witnesses.append(
            f"inside loop: x{loop_factor.describe()} iterations"
        )
        if loop_factor.hi is None:
            cost.estimated = True

    core = (
        cost.frontier, cost.product_states, cost.acc_executions,
        cost.accum_bytes,
    )
    if any(iv.hi is None for iv in core):
        confidence = CostConfidence.UNBOUNDED
        if stats is None:
            cost.witnesses.append(
                "no statistics snapshot: graph-dependent bounds are open"
            )
    elif cost.estimated or cost.paths.hi is None:
        confidence = CostConfidence.ESTIMATED
    else:
        confidence = CostConfidence.CLOSED_FORM

    cert = CostCertificate(
        confidence=confidence,
        frontier=cost.frontier,
        product_states=cost.product_states,
        paths=cost.paths,
        acc_executions=cost.acc_executions,
        accum_bytes=cost.accum_bytes,
        witnesses=tuple(cost.witnesses),
        stats_fingerprint=None if stats is None else stats.fingerprint,
    )
    return cert, result_frontier


def _symbols(node):
    """Every direction-adorned edge symbol of a DARPE AST."""
    from ..darpe.ast import Symbol

    if isinstance(node, Symbol):
        yield node
        return
    for slot in getattr(node, "__slots__", ()):
        child = getattr(node, slot, None)
        if isinstance(child, (list, tuple)):
            for c in child:
                yield from _symbols(c)
        elif child is not None and hasattr(child, "__slots__"):
            yield from _symbols(child)


# ---------------------------------------------------------------------------
# the statement walk (frontier environment + loop factors)
# ---------------------------------------------------------------------------


def _loop_iterations(stmt) -> Interval:
    """Predicted iteration interval for a While statement."""
    if stmt.limit is not None:
        limit = const_value(stmt.limit)
        if isinstance(limit, (int, float)) and not isinstance(limit, bool):
            return Interval(0, max(int(limit), 0))
        return Interval(0, None)  # LIMIT from a parameter
    if getattr(stmt, "governed_cap", False):
        # E033 loops execute under the mandatory governed soft cap.
        return Interval(0, GOVERNED_WHILE_CAP)
    return Interval(0, None)


class _Walker:
    def __init__(self, model: QueryModel, decls, stats, result: CostResult):
        self.model = model
        self.decls = decls
        self.stats = stats
        self.result = result
        self.env: Dict[str, Interval] = {}
        self.facts_by_block = {id(bf.block): bf for bf in model.blocks}
        self.total_v = None if stats is None else stats.total_vertices

    def run(self) -> None:
        self.walk(self.model.query.statements, Interval.exact(1))

    def walk(self, statements, loop_factor: Interval) -> None:
        for stmt in statements:
            self.visit(stmt, loop_factor)

    def visit(self, stmt, loop_factor: Interval) -> None:
        if isinstance(stmt, RunBlock):
            self.visit_block(stmt.block, stmt.assign_to, loop_factor)
        elif isinstance(stmt, SetAssign):
            source = stmt.source
            if hasattr(source, "pattern"):
                self.visit_block(source, stmt.name, loop_factor)
            elif isinstance(source, str):
                self.env[stmt.name] = self.env.get(
                    source, Interval.upto(self.total_v)
                )
            else:  # a literal vertex-id list
                try:
                    self.env[stmt.name] = Interval(0, len(list(source)))
                except TypeError:
                    self.env[stmt.name] = Interval.upto(self.total_v)
        elif isinstance(stmt, While):
            iters = _loop_iterations(stmt)
            self.result.whiles.append((stmt, iters))
            factor = loop_factor.mul(iters)
            # Two passes propagate loop-carried set growth; sets
            # reassigned in the body are widened to the graph bound.
            before = dict(self.env)
            self.walk(stmt.body, factor)
            for name in set(self.env) - set(before):
                self.env[name] = Interval.upto(self.total_v)
            for name, iv in before.items():
                if self.env.get(name) != iv:
                    self.env[name] = Interval.upto(self.total_v)
            self.walk(stmt.body, factor)
        elif isinstance(stmt, Foreach):
            name = getattr(stmt.collection, "name", None)
            iters = self.env.get(name) if name is not None else None
            if iters is None:
                # A parameter list / literal collection: size unknown.
                iters = Interval(0, None)
            self.walk(stmt.body, loop_factor.mul(iters))
        elif isinstance(stmt, If):
            before = dict(self.env)
            self.walk(stmt.then, loop_factor)
            then_env = self.env
            self.env = before
            self.walk(stmt.otherwise, loop_factor)
            for name, iv in then_env.items():
                if name in self.env:
                    self.env[name] = iv.join(self.env[name])
                else:
                    self.env[name] = iv

    def visit_block(self, block, assign_to, loop_factor: Interval) -> None:
        block_fact = self.facts_by_block.get(id(block))
        if block_fact is None:
            return
        cert, frontier = _certify_block(
            block_fact, self.model, self.env, loop_factor, self.decls,
            self.stats,
        )
        self.result.blocks.append((block_fact, cert))
        if assign_to is not None:
            self.env[assign_to] = frontier


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def analyze_cost(model: QueryModel, stats=None) -> CostResult:
    """The cost analysis for a model, memoised per stats fingerprint.

    Shares the CFG with :func:`~repro.analysis.dataflow.analyze_dataflow`
    (loop regions come from there) and reuses the cached model, so one
    parse pays for at most one cost pass per distinct statistics
    snapshot.
    """
    fingerprint = None if stats is None else stats.fingerprint
    cache = getattr(model, "_cost", None)
    if cache is None:
        cache = {}
        model._cost = cache
    cached = cache.get(fingerprint)
    if cached is not None:
        return cached

    analyze_dataflow(model)  # stamps governed caps' prerequisite info
    decls: Dict[AccKey, DeclFact] = {}
    for d in model.decls:
        decls.setdefault(_decl_key(d), d)

    result = CostResult(stats=stats)
    walker = _Walker(model, decls, stats, result)
    walker.run()

    # Restore source order: the double loop pass may append a block
    # twice — keep the *last* (fixpoint) certificate per block.
    latest: Dict[int, Tuple[BlockFact, CostCertificate]] = {}
    for fact, cert in result.blocks:
        latest[id(fact)] = (fact, cert)
    result.blocks = sorted(latest.values(), key=lambda fc: fc[0].seq)

    confidence = CostConfidence.CLOSED_FORM
    frontier = Interval.exact(0)
    product_states = Interval.exact(0)
    paths = Interval.exact(0)
    acc_executions = Interval.exact(0)
    accum_bytes = Interval.exact(0)
    witnesses: List[str] = []
    for _fact, cert in result.blocks:
        confidence = confidence.meet(cert.confidence)
        frontier = frontier.join(cert.frontier)
        product_states = product_states.add(cert.product_states)
        paths = paths.add(cert.paths)
        acc_executions = acc_executions.add(cert.acc_executions)
        accum_bytes = accum_bytes.add(cert.accum_bytes)
    if stats is None and result.blocks:
        witnesses.append("structural bounds only (no statistics snapshot)")
    elif stats is not None:
        witnesses.append(
            f"statistics snapshot {stats.fingerprint} "
            f"(|V|={stats.total_vertices}, |E|={stats.total_edges})"
        )
    result.query_certificate = CostCertificate(
        confidence=confidence,
        frontier=frontier,
        product_states=product_states,
        paths=paths,
        acc_executions=acc_executions,
        accum_bytes=accum_bytes,
        witnesses=tuple(witnesses),
        stats_fingerprint=fingerprint,
    )

    cache[fingerprint] = result
    col = _exec.current().col
    if col is not None:
        col.count("cost.analyses")
        col.count("cost.blocks", len(result.blocks))
        for _fact, cert in result.blocks:
            col.count(f"cost.tier.{cert.confidence.value}")
    return result


def block_cost_certificates(
    model: QueryModel, stats=None
) -> List[Tuple[BlockFact, CostCertificate]]:
    """(block fact, cost certificate) pairs in source order."""
    return analyze_cost(model, stats=stats).blocks


#: Engine-mode names (CLI and server spellings) that *materialize*
#: paths, so a predicted path-count breach actually threatens them.
ENUMERATION_ENGINES = frozenset(
    {"nre", "nrv", "asp-enum", "enumeration", "asp", "enum"}
)


def budget_breaches(
    cert: CostCertificate,
    budget: Dict[str, Any],
    engine: Optional[str] = None,
) -> List[Tuple[str, int, int]]:
    """Which budget caps the *predicted* cost provably threatens.

    Returns ``(metric, predicted_hi, cap)`` triples for every finite
    predicted upper bound exceeding the corresponding budget limit.
    Path-count caps only apply to enumeration engines (``engine`` in
    :data:`ENUMERATION_ENGINES`): the counting engine never materializes
    paths, so its predicted path explosion is not a breach.
    """
    checks = [
        ("acc_executions", cert.acc_executions, "max_acc_executions"),
        ("product_states", cert.product_states, "max_product_states"),
        ("accum_bytes", cert.accum_bytes, "max_accum_bytes"),
    ]
    if engine in ENUMERATION_ENGINES:
        checks.append(("paths", cert.paths, "max_paths"))
    breaches = []
    for metric, interval, cap_name in checks:
        cap = budget.get(cap_name)
        if cap is None or interval.hi is None:
            continue
        if interval.hi > cap:
            breaches.append((metric, interval.hi, cap))
    return breaches


__all__ = [
    "ACCUM_BASE_BYTES",
    "ENUMERATION_ENGINES",
    "BlockCost",
    "CostResult",
    "analyze_cost",
    "block_cost_certificates",
    "budget_breaches",
]
