"""Worklist fixed-point dataflow over the accumulator def-use CFG.

Three passes over :func:`repro.analysis.cfg.build_cfg`'s graph:

* a **forward** may/must-written analysis per accumulator (the lattice
  is the pair ``(may_written, must_written)`` joined with or/and at
  merges, with ``WHILE`` back-edges re-queued until the fixed point);
* a **backward** liveness analysis where every accumulator is live at
  exit (an accumulator the query never reads may still be the query's
  *output* — ``repro run`` prints final accumulator values), ``=``
  kills and ``+=`` both generates and kills (it reads the old value);
* a **reachability** sweep using the constant-folded edges.

On top of the fixed points sit the finding primitives the flow-sensitive
rules (E030–W034 in :mod:`.rules`) report, and the per-SELECT-block
:class:`~repro.core.tractable.TractabilityCertificate` that the planner
uses to pick the counting engine under ``EngineMode.auto()``.

Everything is memoised on the model (`analyze_dataflow`), so five rules
plus certificate attachment cost one CFG build and one solve.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.exprs import NameRef
from ..core.query import Foreach, If, Statement, While
from ..core.stmts import AttributeUpdate, walk_acc_statements
from ..core.tractable import TractabilityCertificate, TractabilityStatus
from .cfg import CFG, CFGNode, DECL, READ, WRITE, build_cfg
from .model import (
    AccumReadFact,
    AccumWriteFact,
    BlockFact,
    DeclFact,
    QueryModel,
    WhileFact,
    _assigned_set_names,
    _block_exprs,
)

# An accumulator key: (is_global, name).  Vertex accumulators are
# summarised across all vertices — one abstract cell per declaration,
# which is sound for may/must reasoning.
AccKey = Tuple[bool, str]

# Abstract states reported per accumulator (ISSUE wording).
UNWRITTEN = "unwritten"
WRITTEN = "written"
READ_STATE = "read"
LOOP_CARRIED = "loop-carried"


def _decl_key(decl: DeclFact) -> AccKey:
    return (decl.scope == "global", decl.name)


def _fact_key(fact: Any) -> Optional[AccKey]:
    """The accumulator key of a read/write fact, or None if unresolved.

    Unresolved names (undeclared at that point — E001/E002's territory)
    stay out of the dataflow lattice entirely.
    """
    if isinstance(fact, (AccumReadFact, AccumWriteFact)):
        if fact.is_global:
            return (True, fact.name) if fact.declared_global else None
        return (False, fact.name) if fact.declared_vertex else None
    return None


class DataflowResult:
    """Fixed points plus the derived findings, memoised per model."""

    def __init__(self, cfg: CFG):
        self.cfg = cfg
        self.converged: bool = True
        self.iterations: int = 0
        self.keys: Set[AccKey] = set()
        # node id -> {key: (may_written, must_written)} at node *entry*.
        self.in_states: Dict[int, Dict[AccKey, Tuple[bool, bool]]] = {}
        # node id -> keys live at node *exit*.
        self.live_out: Dict[int, Set[AccKey]] = {}
        self.reachable: Set[int] = set()
        # Findings consumed by the registered rules.
        self.reads_before_write: List[AccumReadFact] = []
        self.dead_writes: List[AccumWriteFact] = []
        self.loop_invariant_blocks: List[Tuple[BlockFact, While]] = []
        self.nonterminating_whiles: List[WhileFact] = []
        self.unreachable_nodes: List[CFGNode] = []
        # key -> subset of {unwritten, written, read, loop-carried}.
        self.accum_states: Dict[AccKey, Set[str]] = {}

    def state_names(self, key: AccKey) -> List[str]:
        order = [UNWRITTEN, WRITTEN, READ_STATE, LOOP_CARRIED]
        states = self.accum_states.get(key, set())
        return [s for s in order if s in states]


# ----------------------------------------------------------------------
# Forward pass: may/must-written


def _join(states: List[Dict[AccKey, Tuple[bool, bool]]],
          keys: Set[AccKey]) -> Dict[AccKey, Tuple[bool, bool]]:
    if not states:
        return {}
    out: Dict[AccKey, Tuple[bool, bool]] = {}
    for key in keys:
        cells = [s.get(key, (False, False)) for s in states]
        out[key] = (
            any(may for may, _ in cells),
            all(must for _, must in cells),
        )
    return out


def _transfer_forward(node: CFGNode,
                      state: Dict[AccKey, Tuple[bool, bool]]
                      ) -> Dict[AccKey, Tuple[bool, bool]]:
    out = dict(state)
    for kind, fact in node.events:
        if kind == DECL:
            has_init = getattr(fact.node, "initial", None) is not None
            out[_decl_key(fact)] = (has_init, has_init)
        elif kind == WRITE:
            key = _fact_key(fact)
            if key is not None:
                out[key] = (True, True)
    return out


def _solve_forward(result: DataflowResult) -> None:
    cfg = result.cfg
    keys = result.keys
    in_states = result.in_states
    out_states: Dict[int, Dict[AccKey, Tuple[bool, bool]]] = {}
    in_states[cfg.entry.id] = {}
    worklist = [cfg.entry]
    queued = {cfg.entry.id}
    # Each node can be revisited once per lattice step of each key (two
    # boolean components) plus slack for join churn; far above any real
    # query yet a hard stop against a non-monotone bug.
    budget = max(64, 8 * len(cfg.nodes) * (len(keys) + 1))
    while worklist:
        result.iterations += 1
        if result.iterations > budget:
            result.converged = False
            break
        node = worklist.pop(0)
        queued.discard(node.id)
        preds = [p for p, _ in node.preds]
        if node is not cfg.entry:
            known = [
                out_states[p.id] for p in preds if p.id in out_states
            ]
            in_states[node.id] = _join(known, keys) if known else {}
        new_out = _transfer_forward(node, in_states.get(node.id, {}))
        if out_states.get(node.id) != new_out:
            out_states[node.id] = new_out
            for succ, _ in node.succs:
                if succ.id not in queued:
                    worklist.append(succ)
                    queued.add(succ.id)


# ----------------------------------------------------------------------
# Backward pass: liveness


def _transfer_backward(node: CFGNode, live: Set[AccKey]) -> Set[AccKey]:
    out = set(live)
    for kind, fact in reversed(node.events):
        if kind == WRITE:
            key = _fact_key(fact)
            if key is None:
                continue
            if fact.op == "=":
                out.discard(key)
            else:
                out.add(key)  # += reads the old value
        elif kind == READ:
            key = _fact_key(fact)
            if key is not None:
                out.add(key)
        elif kind == DECL:
            out.discard(_decl_key(fact))
    return out


def _solve_backward(result: DataflowResult) -> None:
    cfg = result.cfg
    all_keys = set(result.keys)
    live_out = result.live_out
    live_in: Dict[int, Set[AccKey]] = {}
    live_out[cfg.exit.id] = set(all_keys)
    worklist = [cfg.exit]
    queued = {cfg.exit.id}
    budget = max(64, 8 * len(cfg.nodes) * (len(all_keys) + 1))
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > budget:
            result.converged = False
            break
        node = worklist.pop(0)
        queued.discard(node.id)
        if node is not cfg.exit:
            live_out[node.id] = set()
            for succ, _ in node.succs:
                live_out[node.id] |= live_in.get(succ.id, set())
            if not node.succs:
                # Dangling node (e.g. tail of an unreachable region):
                # assume everything live, never report against it.
                live_out[node.id] = set(all_keys)
        new_in = _transfer_backward(node, live_out[node.id])
        if live_in.get(node.id) != new_in:
            live_in[node.id] = new_in
            for pred, _ in node.preds:
                if pred.id not in queued:
                    worklist.append(pred)
                    queued.add(pred.id)
    result.iterations += iterations


# ----------------------------------------------------------------------
# Findings


def _collect_findings(result: DataflowResult, model: QueryModel) -> None:
    cfg = result.cfg
    result.reachable = cfg.reachable()
    keys_written_anywhere: Set[AccKey] = set()
    keys_init: Set[AccKey] = set()
    for node in cfg.nodes:
        for kind, fact in node.events:
            if kind == WRITE:
                key = _fact_key(fact)
                if key is not None:
                    keys_written_anywhere.add(key)
            elif kind == DECL and getattr(fact.node, "initial", None) is not None:
                keys_init.add(_decl_key(fact))

    for node in cfg.nodes:
        if node.id not in result.reachable:
            continue
        # E030: walk the node forward from its entry state.
        state = dict(result.in_states.get(node.id, {}))
        for kind, fact in node.events:
            if kind == READ:
                key = _fact_key(fact)
                if (
                    key is not None
                    and not fact.primed
                    and key in keys_written_anywhere
                    and key not in keys_init
                    and not state.get(key, (False, False))[0]
                ):
                    result.reads_before_write.append(fact)
            elif kind == WRITE:
                key = _fact_key(fact)
                if key is not None:
                    state[key] = (True, True)
            elif kind == DECL:
                has_init = getattr(fact.node, "initial", None) is not None
                state[_decl_key(fact)] = (has_init, has_init)
        # W031: walk the node backward from its exit liveness.
        live = set(result.live_out.get(node.id, result.keys))
        for kind, fact in reversed(node.events):
            if kind == WRITE:
                key = _fact_key(fact)
                if key is None:
                    continue
                if key not in live:
                    result.dead_writes.append(fact)
                if fact.op == "=":
                    live.discard(key)
                else:
                    live.add(key)
            elif kind == READ:
                key = _fact_key(fact)
                if key is not None:
                    live.add(key)
        # Keep findings in source order regardless of walk order.
    result.reads_before_write.sort(key=lambda f: f.seq)
    result.dead_writes.sort(key=lambda f: f.seq)

    # W034: region entries only — an unreachable node whose predecessors
    # are all reachable (or that has none: a branch the builder proved
    # dead), so nested statements do not cascade one diagnostic each.
    for node in cfg.nodes:
        if node.kind in ("entry", "exit") or node.id in result.reachable:
            continue
        preds = [p for p, _ in node.preds]
        if not preds or any(p.id in result.reachable for p in preds):
            result.unreachable_nodes.append(node)

    _collect_loop_findings(result, model)
    _summarise_states(result)


def _stmts_in(statements: List[Statement]) -> Set[int]:
    """ids of every statement nested anywhere under ``statements``."""
    found: Set[int] = set()
    for stmt in statements:
        found.add(id(stmt))
        if isinstance(stmt, While):
            found |= _stmts_in(stmt.body)
        elif isinstance(stmt, Foreach):
            found |= _stmts_in(stmt.body)
        elif isinstance(stmt, If):
            found |= _stmts_in(stmt.then)
            found |= _stmts_in(stmt.otherwise)
        else:
            inner = getattr(stmt, "statements", None)
            if inner is not None:
                found |= _stmts_in(inner)
    return found


def _block_name_refs(block) -> Set[str]:
    """Every bare identifier a SELECT block's expressions mention."""
    names: Set[str] = set()

    def scan(expr) -> None:
        for node in expr.walk():
            if isinstance(node, NameRef):
                names.add(node.name)

    for expr in _block_exprs(block):
        scan(expr)
    for acc in walk_acc_statements(list(block.accum) + list(block.post_accum)):
        for attr in ("expr", "cond", "collection"):
            sub = getattr(acc, attr, None)
            if sub is not None:
                scan(sub)
    return names


def _block_source_sets(block) -> Set[str]:
    from ..core.pattern import TableSource

    names: Set[str] = set()
    for chain in block.pattern.chains:
        if isinstance(chain, TableSource):
            continue
        for spec in [chain.source] + [hop.target for hop in chain.hops]:
            names.add(spec.name)
    return names


def _collect_loop_findings(result: DataflowResult, model: QueryModel) -> None:
    writes_by_owner: Dict[int, List[AccumWriteFact]] = {}
    for w in model.writes:
        if w.owner is not None:
            writes_by_owner.setdefault(id(w.owner), []).append(w)
    blocks_by_owner = {id(b.owner): b for b in model.blocks if b.owner is not None}
    whiles_by_owner = {id(wf.owner): wf for wf in model.whiles if wf.owner is not None}

    def loop_written_keys(body: List[Statement]) -> Set[AccKey]:
        body_ids = _stmts_in(body)
        keys: Set[AccKey] = set()
        for owner_id, facts in writes_by_owner.items():
            if owner_id in body_ids:
                for w in facts:
                    key = _fact_key(w)
                    if key is not None:
                        keys.add(key)
        return keys

    def body_has_attribute_update(body: List[Statement]) -> bool:
        body_ids = _stmts_in(body)
        for block_fact in model.blocks:
            if block_fact.owner is None or id(block_fact.owner) not in body_ids:
                continue
            block = block_fact.block
            for acc in walk_acc_statements(
                list(block.accum) + list(block.post_accum)
            ):
                if isinstance(acc, AttributeUpdate):
                    return True
        return False

    # --- E033: WHILE whose condition can never change -----------------
    for wf in model.whiles:
        stmt = wf.node
        if wf.has_limit:
            continue
        cond_keys: Set[AccKey] = set()
        for read in model.reads:
            if read.owner is stmt and read.context == "cond":
                key = _fact_key(read)
                if key is not None:
                    cond_keys.add(key)
        if not cond_keys:
            continue  # W020's territory (no accumulator in the condition)
        if wf.cond_set_names & wf.body_assigned_sets:
            continue  # set-driven convergence can still terminate it
        if cond_keys & loop_written_keys(stmt.body):
            continue
        result.nonterminating_whiles.append(wf)

    # --- W032: loop-invariant SELECT block ----------------------------
    def visit(statements: List[Statement], while_stack: List[While],
              foreach_vars: Set[str]) -> None:
        for stmt in statements:
            if isinstance(stmt, While):
                visit(stmt.body, while_stack + [stmt], foreach_vars)
            elif isinstance(stmt, Foreach):
                visit(stmt.body, while_stack, foreach_vars | {stmt.var})
            elif isinstance(stmt, If):
                visit(stmt.then, while_stack, foreach_vars)
                visit(stmt.otherwise, while_stack, foreach_vars)
            elif id(stmt) in blocks_by_owner and while_stack:
                _check_invariant(
                    blocks_by_owner[id(stmt)], while_stack[-1], foreach_vars
                )
            else:
                inner = getattr(stmt, "statements", None)
                if inner is not None:
                    visit(inner, while_stack, foreach_vars)

    def _check_invariant(block_fact: BlockFact, loop: While,
                         foreach_vars: Set[str]) -> None:
        block = block_fact.block
        if body_has_attribute_update(loop.body):
            return  # graph mutation: nothing is invariant
        for write in block_fact.writes:
            if write.op != "=":
                return  # += side effects accumulate across iterations
        written = loop_written_keys(loop.body)
        for read in block_fact.reads:
            key = _fact_key(read)
            if key is None or key in written:
                return
        loop_sets = _assigned_set_names(loop.body)
        if _block_source_sets(block) & loop_sets:
            return
        if _block_name_refs(block) & foreach_vars:
            return  # varies with an enclosing FOREACH variable
        result.loop_invariant_blocks.append((block_fact, loop))

    visit(model.query.statements, [], set())


def _summarise_states(result: DataflowResult) -> None:
    cfg = result.cfg
    loop_nodes: Set[int] = set()
    for loop in cfg.loops:
        for node in loop.body_nodes:
            loop_nodes.add(node.id)
        loop_nodes.add(loop.head.id)
    for key in result.keys:
        states: Set[str] = set()
        for node in cfg.nodes:
            if node.id not in result.reachable:
                continue
            in_state = result.in_states.get(node.id, {})
            may, _must = in_state.get(key, (False, False))
            for kind, fact in node.events:
                if _fact_key(fact) != key and (
                    kind != DECL or _decl_key(fact) != key
                ):
                    continue
                if kind == READ:
                    states.add(READ_STATE)
                    if not may:
                        states.add(UNWRITTEN)
                elif kind == WRITE:
                    states.add(WRITTEN)
                    if node.id in loop_nodes:
                        states.add(LOOP_CARRIED)
        result.accum_states[key] = states


# ----------------------------------------------------------------------
# Certificates


def block_certificates(
    model: QueryModel,
) -> List[Tuple[BlockFact, TractabilityCertificate]]:
    """One :class:`TractabilityCertificate` per SELECT block.

    The classification mirrors the runtime guard in
    ``CompiledBlock._check_tractability``: only ACCUM-clause writes see
    per-path multiplicities, so only they can make a Kleene-starred
    pattern intractable (POST_ACCUM runs once per distinct vertex).
    """
    decls: Dict[AccKey, DeclFact] = {}
    for d in model.decls:
        decls.setdefault(_decl_key(d), d)

    out: List[Tuple[BlockFact, TractabilityCertificate]] = []
    for block_fact in model.blocks:
        out.append((block_fact, _certify_block(block_fact, decls)))
    return out


def _certify_block(
    block_fact: BlockFact, decls: Dict[AccKey, DeclFact]
) -> TractabilityCertificate:
    if not block_fact.has_kleene:
        return TractabilityCertificate(
            TractabilityStatus.TRACTABLE,
            ("FROM pattern has no Kleene star: the binding table is "
             "bounded by the graph, not the path count",),
        )
    accum_writes = [
        w for w in block_fact.writes if w.context == "accum"
    ]
    if not accum_writes:
        return TractabilityCertificate(
            TractabilityStatus.TRACTABLE,
            ("Kleene-starred pattern feeds no ACCUM-clause accumulator: "
             "multiplicities are never materialised per path",),
        )
    witnesses: List[str] = []
    for write in accum_writes:
        key = _fact_key(write)
        sigil = "@@" if write.is_global else "@"
        if key is None:
            return TractabilityCertificate(
                TractabilityStatus.UNKNOWN,
                (f"{sigil}{write.name} is not declared; its combine "
                 f"order cannot be classified",),
            )
        decl = decls.get(key)
        if decl is None:
            return TractabilityCertificate(
                TractabilityStatus.UNKNOWN,
                (f"{sigil}{write.name} has no visible declaration",),
            )
        if decl.order_dependent is None:
            return TractabilityCertificate(
                TractabilityStatus.UNKNOWN,
                (f"{sigil}{write.name}: {decl.type_text} could not be "
                 f"probed for order-invariance",),
            )
        if decl.order_dependent:
            return TractabilityCertificate(
                TractabilityStatus.ENUMERATION_REQUIRED,
                (f"order-dependent accumulator {sigil}{write.name} "
                 f"({decl.type_text}) accumulates across a Kleene star — "
                 f"outside the Section 7 tractable class",),
            )
        witnesses.append(
            f"{sigil}{write.name} ({decl.type_text}) is order-invariant"
        )
    return TractabilityCertificate(
        TractabilityStatus.TRACTABLE,
        tuple(witnesses) + (
            "every accumulator fed by the Kleene star commutes, so the "
            "compressed binding table suffices",
        ),
    )


# ----------------------------------------------------------------------
# Entry point


def analyze_dataflow(model: QueryModel) -> DataflowResult:
    """The full dataflow result for a model, memoised on the model."""
    cached = getattr(model, "_dataflow", None)
    if cached is not None:
        return cached
    cfg = build_cfg(model)
    result = DataflowResult(cfg)
    result.keys = {_decl_key(d) for d in model.decls}
    _solve_forward(result)
    _solve_backward(result)
    _collect_findings(result, model)
    model._dataflow = result
    return result


__all__ = [
    "AccKey",
    "DataflowResult",
    "analyze_dataflow",
    "block_certificates",
    "UNWRITTEN",
    "WRITTEN",
    "READ_STATE",
    "LOOP_CARRIED",
]
