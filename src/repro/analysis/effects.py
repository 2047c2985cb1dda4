"""Flow-sensitive accumulator effect & commutativity analysis.

For every SELECT block this pass computes an :class:`EffectSummary` —
which accumulators the ACCUM/POST_ACCUM clauses read and write (global
vs vertex-attached, per-target vs cross-target), which combine operators
are applied, and what the update algebra of each write is, looked up in
the declarative op-algebra table (:mod:`repro.accum.algebra`) that the
runtime property tests check against the live accumulator classes.

The summary is stamped as a :class:`~repro.core.tractable.
DeterminismCertificate` next to the PR 3 tractability certificate:

``COMMUTATIVE``
    Every update commutes — binding rows may be folded in any order,
    across any partitioning, with identical results.  This is the
    licence :func:`repro.core.parallel.parallel_accum` requires.
``ORDER_DEPENDENT``
    Some update observes input order (ListAccum append, SumAccum<STRING>
    concatenation, last-write-wins ``=`` over unordered rows).  Parallel
    or partitioned execution would be nondeterministic.
``UNKNOWN``
    An update could not be classified (undeclared accumulator,
    unprobeable factory, user type outside the algebra table).

COMMUTATIVE summaries whose writes are all *monotone* (Sum/Min/Max/Or/
Set-style semilattice inserts) with no accumulator reads are
additionally flagged ``delta_maintainable`` — the precondition for the
ROADMAP's incremental evaluation (item 4a): a new input can be folded
into the previous result without recomputation.

The pass is flow-sensitive where it matters: per-target ``=`` writes
whose right-hand side depends only on the target vertex are recognised
as idempotent (connected-components ``v.@cc = v.id()``), and blocks
inside WHILE/FOREACH loops are annotated via the PR 3 CFG's loop
regions.  Everything is memoised on the model, sharing the CFG and
fixed points with :mod:`.dataflow`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .. import _exec
from ..core.exprs import GlobalAccumRef, Literal, NameRef, VertexAccumRef
from ..core.tractable import DeterminismCertificate, DeterminismStatus
from .dataflow import AccKey, _decl_key, _fact_key, analyze_dataflow
from .model import (
    AccumReadFact,
    AccumWriteFact,
    BlockFact,
    DeclFact,
    QueryModel,
)


class AccumEffect(NamedTuple):
    """One accumulator write, with its resolved update algebra."""

    name: str
    is_global: bool
    context: str  # "accum" | "post_accum"
    op: str  # "+=" | "="
    type_text: str
    target_var: Optional[str]  # pattern variable for vertex targets
    commutative: Optional[bool]  # None = unknown
    idempotent: bool
    monotone: bool
    mergeable: bool


class ReadEffect(NamedTuple):
    """One accumulator read inside an ACCUM/POST_ACCUM clause."""

    name: str
    is_global: bool
    primed: bool
    context: str
    target_var: Optional[str]


class EffectSummary(NamedTuple):
    """Per-block effect footprint: what is read, what is written, how."""

    writes: Tuple[AccumEffect, ...]
    reads: Tuple[ReadEffect, ...]
    #: Vertex accumulators updated through more than one pattern variable
    #: in the same ACCUM clause (cross-target writes).
    cross_target: Tuple[str, ...]
    in_loop: bool

    @property
    def written_keys(self) -> Set[AccKey]:
        return {(e.is_global, e.name) for e in self.writes}

    @property
    def read_keys(self) -> Set[AccKey]:
        return {(r.is_global, r.name) for r in self.reads}


class Interference(NamedTuple):
    """A W042 finding: an unprimed ACCUM-clause read of a vertex
    accumulator the same clause writes through a *different* variable."""

    read: AccumReadFact
    name: str
    read_var: Optional[str]
    write_vars: Tuple[str, ...]


class EffectsResult:
    """All per-block summaries and certificates, memoised per model."""

    def __init__(self) -> None:
        self.blocks: List[
            Tuple[BlockFact, EffectSummary, DeterminismCertificate]
        ] = []
        #: E040: plain '=' into a global accumulator from an ACCUM clause
        #: with a row-dependent right-hand side.
        self.unsafe_writes: List[AccumWriteFact] = []
        #: W042 findings.
        self.interference: List[Interference] = []

    def certificate_for(self, block) -> Optional[DeterminismCertificate]:
        for block_fact, _summary, cert in self.blocks:
            if block_fact.block is block:
                return cert
        return None


def _sigil(is_global: bool) -> str:
    return "@@" if is_global else "@"


def _target_var(write: AccumWriteFact) -> Optional[str]:
    base = getattr(write.node.target, "base", None)
    return base.name if isinstance(base, NameRef) else None


def _read_var(read: AccumReadFact) -> Optional[str]:
    base = getattr(read.node, "base", None)
    return base.name if isinstance(base, NameRef) else None


def _expr_names(expr) -> Set[str]:
    return {n.name for n in expr.walk() if isinstance(n, NameRef)}


def _expr_reads_accum(expr) -> bool:
    return any(
        isinstance(n, (GlobalAccumRef, VertexAccumRef)) for n in expr.walk()
    )


def _decl_kind(decl: DeclFact) -> Tuple[str, Optional[str]]:
    """(kind, element) of a declaration, via the parsed type when
    available, else the probe's type name recorded in ``type_text``."""
    info = decl.type_info
    if info is not None:
        return info.kind, info.element
    return decl.type_text.split("<", 1)[0], None


def _write_algebra(
    write: AccumWriteFact, decl: Optional[DeclFact]
) -> Tuple[Optional[bool], bool, bool, bool, str, Optional[str]]:
    """(commutative, idempotent, monotone, mergeable, type_text, caveat)
    for a ``+=`` write.  ``commutative=None`` means unclassifiable."""
    from ..accum.algebra import algebra_for, classify

    if decl is None:
        return None, False, False, False, "?", "no visible declaration"
    if decl.order_dependent is None:
        return (None, False, False, False, decl.type_text,
                f"{decl.type_text} could not be probed")
    if decl.order_dependent:
        return (False, False, False, False, decl.type_text,
                "fold order is observable")
    info = decl.type_info
    alg = classify(info) if info is not None else None
    if alg is None:
        kind, element = _decl_kind(decl)
        alg = algebra_for(kind, element=element)
    if alg is None:
        # A user-registered type outside the table: trust the probed
        # order-invariance flag, claim nothing stronger.
        return (True, False, False, False, decl.type_text,
                "user-registered type declares order-invariance")
    return (alg.commutative, alg.idempotent, alg.monotone, alg.mergeable,
            decl.type_text, None)


def _certify_block(
    block_fact: BlockFact,
    decls: Dict[AccKey, DeclFact],
    in_loop: bool,
    result: EffectsResult,
) -> Tuple[EffectSummary, DeterminismCertificate]:
    effects: List[AccumEffect] = []
    witnesses: List[str] = []
    order_witnesses: List[str] = []
    unknown_witnesses: List[str] = []

    for write in block_fact.writes:
        key = _fact_key(write)
        decl = decls.get(key) if key is not None else None
        sigil = _sigil(write.is_global)
        target_var = None if write.is_global else _target_var(write)
        type_text = decl.type_text if decl is not None else "?"

        if write.op == "=":
            if write.context == "post_accum" and not write.is_global:
                commutative, idempotent = True, True
                witnesses.append(
                    f"{sigil}{write.name} = … in POST_ACCUM executes once "
                    f"per selected vertex"
                )
            elif isinstance(write.expr, Literal):
                commutative, idempotent = True, True
                witnesses.append(
                    f"{sigil}{write.name} = constant: every row writes the "
                    f"same value, last-write-wins is idempotent"
                )
            elif (
                target_var is not None
                and _expr_names(write.expr) <= {target_var}
                and not _expr_reads_accum(write.expr)
            ):
                commutative, idempotent = True, True
                witnesses.append(
                    f"{target_var}.{sigil}{write.name} = … depends only on "
                    f"the target vertex: each target receives one value"
                )
            else:
                commutative, idempotent = False, False
                order_witnesses.append(
                    f"{sigil}{write.name} = … in {write.context.upper()} is "
                    f"last-write-wins over unordered rows"
                )
                if write.is_global and write.context == "accum":
                    result.unsafe_writes.append(write)
            effects.append(AccumEffect(
                write.name, write.is_global, write.context, write.op,
                type_text, target_var, commutative, idempotent,
                monotone=False, mergeable=False,
            ))
            continue

        commutative, idempotent, monotone, mergeable, type_text, caveat = (
            _write_algebra(write, decl)
        )
        effects.append(AccumEffect(
            write.name, write.is_global, write.context, write.op,
            type_text, target_var, commutative, idempotent, monotone,
            mergeable,
        ))
        if commutative is None:
            unknown_witnesses.append(
                f"{sigil}{write.name}: {caveat}"
            )
        elif not commutative:
            order_witnesses.append(
                f"{sigil}{write.name} ({type_text}): {caveat}"
            )
        else:
            note = f" ({caveat})" if caveat else ""
            witnesses.append(
                f"{sigil}{write.name} += over {type_text} commutes{note}"
            )

    reads: List[ReadEffect] = []
    for read in block_fact.reads:
        if read.context not in ("accum", "post_accum"):
            continue
        reads.append(ReadEffect(
            read.name, read.is_global, read.primed, read.context,
            None if read.is_global else _read_var(read),
        ))

    # Cross-target writes + W042 cross-variable read/write interference.
    vertex_write_vars: Dict[str, Set[Optional[str]]] = {}
    for effect in effects:
        if not effect.is_global and effect.context == "accum":
            vertex_write_vars.setdefault(effect.name, set()).add(
                effect.target_var
            )
    cross_target = tuple(sorted(
        name for name, vars_ in vertex_write_vars.items() if len(vars_) > 1
    ))
    for read in block_fact.reads:
        if read.context != "accum" or read.primed or read.is_global:
            continue
        write_vars = vertex_write_vars.get(read.name)
        if not write_vars:
            continue
        var = _read_var(read)
        others = {v for v in write_vars if v is not None and v != var}
        if others and var not in write_vars:
            result.interference.append(Interference(
                read, read.name, var, tuple(sorted(others))
            ))

    summary = EffectSummary(tuple(effects), tuple(reads), cross_target, in_loop)

    if order_witnesses:
        status = DeterminismStatus.ORDER_DEPENDENT
        body = order_witnesses
    elif unknown_witnesses:
        status = DeterminismStatus.UNKNOWN
        body = unknown_witnesses
    else:
        status = DeterminismStatus.COMMUTATIVE
        body = witnesses or [
            "the block updates no accumulator: any evaluation order "
            "produces the same (empty) effect"
        ]
    if in_loop and status is DeterminismStatus.COMMUTATIVE:
        body = body + [
            "block runs inside a loop: the certificate holds per iteration"
        ]

    accum_effects = [e for e in effects if e.context == "accum"]
    delta = bool(
        status is DeterminismStatus.COMMUTATIVE
        and accum_effects
        and all(e.op == "+=" and e.monotone for e in accum_effects)
        and not reads
    )
    if delta:
        body = body + [
            "all updates are monotone semilattice inserts with no "
            "accumulator reads: delta-maintainable (ROADMAP 4a)"
        ]
    return summary, DeterminismCertificate(status, tuple(body), delta)


def analyze_effects(model: QueryModel) -> EffectsResult:
    """The effect analysis for a model, memoised on the model.

    Shares the CFG (and therefore the cost of building it) with
    :func:`repro.analysis.dataflow.analyze_dataflow`.
    """
    cached = getattr(model, "_effects", None)
    if cached is not None:
        return cached

    dataflow = analyze_dataflow(model)
    loop_nodes: Set[int] = set()
    for loop in dataflow.cfg.loops:
        loop_nodes.add(loop.head.id)
        for node in loop.body_nodes:
            loop_nodes.add(node.id)
    block_in_loop: Dict[int, bool] = {}
    for node in dataflow.cfg.nodes:
        if node.block_fact is not None:
            block_in_loop[id(node.block_fact)] = node.id in loop_nodes

    decls: Dict[AccKey, DeclFact] = {}
    for d in model.decls:
        decls.setdefault(_decl_key(d), d)

    result = EffectsResult()
    for block_fact in model.blocks:
        summary, cert = _certify_block(
            block_fact, decls, block_in_loop.get(id(block_fact), False),
            result,
        )
        result.blocks.append((block_fact, summary, cert))

    col = _exec.current().col
    if col is not None:
        col.count("effects.analyses")
        col.count("effects.blocks", len(result.blocks))
        col.count("effects.commutative", sum(
            1 for _, _, c in result.blocks
            if c.status is DeterminismStatus.COMMUTATIVE
        ))
        col.count("effects.order_dependent", sum(
            1 for _, _, c in result.blocks
            if c.status is DeterminismStatus.ORDER_DEPENDENT
        ))
        col.count("effects.delta_maintainable", sum(
            1 for _, _, c in result.blocks if c.delta_maintainable
        ))

    model._effects = result
    return result


def block_effects(
    model: QueryModel,
) -> List[Tuple[BlockFact, EffectSummary, DeterminismCertificate]]:
    """(block fact, summary, certificate) per SELECT block of the model."""
    return list(analyze_effects(model).blocks)


__all__ = [
    "AccumEffect",
    "ReadEffect",
    "EffectSummary",
    "Interference",
    "EffectsResult",
    "analyze_effects",
    "block_effects",
]
