"""The rule catalog: every check the analyzer knows, one class each.

A rule pattern-matches over the :class:`~repro.analysis.model.QueryModel`
fact stream and yields :class:`~repro.analysis.diagnostics.Diagnostic`
objects.  Rules carry a stable code (``GSQL-Exxx`` for errors,
``GSQL-Wxxx`` for warnings) that inline suppressions and the JSON output
key off; the codes never change meaning once assigned.

Error rules (wrong programs)
    E001 undeclared accumulator            E002 accumulator scope confusion
    E003 duplicate accumulator             E004 unknown vertex set
    E005 unknown vertex type               E006 unknown edge type
    E013 Kleene star feeds an order-dependent accumulator (Section 7)
    E101 accumulator input type mismatch   E102 map key/value type conflict
    E103 heap tuple arity/type mismatch

Warning rules (suspicious programs)
    W010 snapshot read hazard (Section 4.3)
    W012 order-dependent accumulator (Section 7 tractable class)
    W020 WHILE without LIMIT or convergent condition
    W021 unused accumulator                W022 unused vertex set
    W023 INTO shadows an existing name     W024 FOREACH shadows a name
    W025 unknown bare identifier

Flow-sensitive rules (over the :mod:`.dataflow` fixed point)
    E030 read before first write           W031 dead accumulator write
    W032 loop-invariant SELECT block       E033 WHILE that cannot converge
    W034 unreachable statement

Effect/commutativity rules (over the :mod:`.effects` certificates)
    E040 parallel-unsafe accumulator update
    W041 order-dependent block under parallelism
    W042 cross-accumulator read-write interference

Cost rules (over the :mod:`.cost` certificates)
    W050 predicted-intractable path enumeration
    W051 WHILE with unbounded predicted iterations
    W052 predicted accumulator memory over the bounded-class cap
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, Type

from ..core.exprs import NameRef
from .diagnostics import Diagnostic, Severity
from .effects import analyze_effects
from .model import (
    AccumReadFact,
    AccumWriteFact,
    QueryModel,
)
from .types import TypeEnv, check_accum_input

_REGISTRY: List[Type["Rule"]] = []


def register(cls: Type["Rule"]) -> Type["Rule"]:
    _REGISTRY.append(cls)
    return cls


def all_rules() -> List["Rule"]:
    """Fresh instances of every registered rule, in registration order."""
    return [cls() for cls in _REGISTRY]


def rule_catalog() -> List[Type["Rule"]]:
    return list(_REGISTRY)


def catalog_codes() -> List[str]:
    """Every diagnostic code the registry can emit, sub-codes included.

    The doc-drift golden test pins this list against the tables in
    ``docs/static_analysis.md``.
    """
    codes: Set[str] = set()
    for cls in _REGISTRY:
        codes.add(cls.code)
        for attr in ("SCOPE_CODE", "MAP_CODE", "HEAP_CODE"):
            sub = getattr(cls, attr, None)
            if sub:
                codes.add(sub)
    return sorted(codes)


class Rule:
    """Base rule. Subclasses set ``code``/``severity``/``name`` and
    implement :meth:`check`."""

    code: str = ""
    name: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(self, message: str, fact=None, span=None, seq=0) -> Diagnostic:
        if fact is not None:
            span = span if span is not None else fact.span
            seq = seq or fact.seq
        return Diagnostic(
            self.code, self.severity, message, span,
            rule_name=self.name, seq=seq,
        )


def _sigil(is_global: bool) -> str:
    return "@@" if is_global else "@"


# ======================================================================
# Name-resolution errors (E001-E006): what ``repro validate`` reports
# ======================================================================
@register
class DuplicateAccumulatorRule(Rule):
    code = "GSQL-E003"
    name = "duplicate-accumulator"
    severity = Severity.ERROR
    description = "An accumulator name is declared more than once."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for decl in model.decls:
            if decl.duplicate:
                yield self.diag(f"@{decl.name} declared twice", decl)


@register
class AccumulatorResolutionRule(Rule):
    """E001/E002 combined: every accumulator read and write must resolve
    to a declaration of the matching scope.  Iterates the unified fact
    stream so diagnostics come out in source order."""

    code = "GSQL-E001"
    name = "undeclared-accumulator"
    severity = Severity.ERROR
    description = "An accumulator is used but never declared (or used at the wrong scope)."

    SCOPE_CODE = "GSQL-E002"
    SCOPE_NAME = "accumulator-scope"

    def scope_diag(self, message: str, fact) -> Diagnostic:
        return Diagnostic(
            self.SCOPE_CODE, Severity.ERROR, message, fact.span,
            rule_name=self.SCOPE_NAME, seq=fact.seq,
        )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for fact in model.facts:
            if isinstance(fact, AccumWriteFact):
                yield from self._check_write(fact)
            elif isinstance(fact, AccumReadFact):
                yield from self._check_read(fact)

    def _check_write(self, fact: AccumWriteFact) -> Iterator[Diagnostic]:
        if fact.context == "top":
            if not fact.declared_global:
                yield self.diag(
                    f"@@{fact.name} updated but never declared", fact
                )
            return
        if fact.is_global and fact.declared_vertex and not fact.declared_global:
            yield self.scope_diag(
                f"@@{fact.name} used globally but declared as a vertex "
                f"accumulator",
                fact,
            )
        elif not fact.is_global and fact.declared_global and not fact.declared_vertex:
            yield self.scope_diag(
                f"@{fact.name} used per-vertex but declared as a global "
                f"accumulator",
                fact,
            )
        elif not (fact.declared_global or fact.declared_vertex):
            yield self.diag(
                f"@{fact.name} receives inputs but was never declared", fact
            )

    def _check_read(self, fact: AccumReadFact) -> Iterator[Diagnostic]:
        if fact.is_global:
            if not fact.declared_global:
                if fact.declared_vertex:
                    yield self.scope_diag(
                        f"@@{fact.name} read globally but declared per-vertex",
                        fact,
                    )
                else:
                    yield self.diag(
                        f"@@{fact.name} read but never declared", fact
                    )
        else:
            if not fact.declared_vertex:
                if fact.declared_global:
                    yield self.scope_diag(
                        f"@{fact.name} read per-vertex but declared globally",
                        fact,
                    )
                else:
                    yield self.diag(
                        f"@{fact.name} read but never declared", fact
                    )


@register
class UnknownVertexSetRule(Rule):
    code = "GSQL-E004"
    name = "unknown-vertex-set"
    severity = Severity.ERROR
    description = "A vertex set is read before any statement defines it."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for use in model.set_uses:
            if use.known:
                continue
            if use.context == "setop":
                yield self.diag(
                    f"set operation reads undefined set {use.name!r}", use
                )
            elif use.context == "print":
                yield self.diag(
                    f"PRINT projects undefined set {use.name!r}", use
                )
            elif use.context == "copy":
                yield self.diag(
                    f"assignment copies undefined set {use.name!r}", use
                )


@register
class UnknownVertexTypeRule(Rule):
    code = "GSQL-E005"
    name = "unknown-vertex-type"
    severity = Severity.ERROR
    description = "A pattern position names neither a vertex type nor a defined set."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        if model.schema is None:
            return
        for pos in model.pattern_positions:
            if not pos.is_set and not pos.schema_known:
                yield self.diag(
                    f"pattern position {pos.name!r} is neither a declared "
                    f"vertex type nor a known vertex set",
                    pos,
                )


@register
class UnknownEdgeTypeRule(Rule):
    code = "GSQL-E006"
    name = "unknown-edge-type"
    severity = Severity.ERROR
    description = "A DARPE names an edge type the schema does not declare."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for fact in model.edge_types:
            if not fact.known:
                yield self.diag(
                    f"DARPE {fact.darpe_text!r} names undeclared edge type "
                    f"{fact.edge_type!r}",
                    fact,
                )


# ======================================================================
# Section 7 tractability (W012/E013): what ``repro explain`` reports
# ======================================================================
@register
class OrderDependentAccumulatorRule(Rule):
    code = "GSQL-W012"
    name = "order-dependent-accumulator"
    severity = Severity.WARNING
    description = (
        "An order-dependent accumulator (ListAccum, ArrayAccum, "
        "SumAccum<STRING>) places the query outside the Section 7 "
        "tractable class."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for decl in model.decls:
            if decl.order_dependent:
                yield self.diag(
                    f"@{decl.name} has order-dependent type {decl.type_text}",
                    decl,
                )


@register
class KleeneFeedsOrderDependentRule(Rule):
    code = "GSQL-E013"
    name = "kleene-feeds-order-dependent"
    severity = Severity.ERROR
    description = (
        "A Kleene-starred pattern feeds an order-dependent accumulator; "
        "evaluation would require materializing every path."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        order_dependent = {d.name for d in model.decls if d.order_dependent}
        for block_fact in model.blocks:
            if not block_fact.has_kleene:
                continue
            for write in block_fact.writes:
                if write.context != "accum":
                    continue
                if write.name in order_dependent:
                    yield self.diag(
                        f"@{write.name} receives inputs from a Kleene "
                        f"pattern ({block_fact.block.pattern!r}); evaluation "
                        f"would require per-path materialization",
                        write,
                    )


# ======================================================================
# Type inference over the accumulator lattice (E101-E103)
# ======================================================================
@register
class AccumulatorInputTypeRule(Rule):
    """E101/E102/E103: ``+=`` inputs (and declaration initializers) must
    match the declared accumulator type."""

    code = "GSQL-E101"
    name = "accum-input-type"
    severity = Severity.ERROR
    description = "An accumulator receives a value its declared type cannot fold."

    MAP_CODE = "GSQL-E102"
    MAP_NAME = "map-type-conflict"
    HEAP_CODE = "GSQL-E103"
    HEAP_NAME = "heap-input-shape"

    _NAMES = {"GSQL-E101": "accum-input-type",
              "GSQL-E102": "map-type-conflict",
              "GSQL-E103": "heap-input-shape"}

    def _emit(self, code: str, message: str, fact) -> Diagnostic:
        return Diagnostic(
            code, Severity.ERROR, message, fact.span,
            rule_name=self._NAMES[code], seq=fact.seq,
        )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        infos = model.accum_types()
        decl_env = TypeEnv(accums=infos, names=dict(model.params))
        for decl in model.decls:
            initial = getattr(decl.node, "initial", None)
            if decl.type_info is None or initial is None:
                continue
            found = check_accum_input(decl.type_info, initial, decl_env)
            if found:
                code, message = found
                yield self._emit(code, f"initializer mismatch: {message}", decl)
        for write in model.writes:
            if write.op != "+=":
                continue
            info = infos.get((write.is_global, write.name))
            found = check_accum_input(info, write.expr, write.env)
            if found:
                code, message = found
                yield self._emit(
                    code,
                    f"{_sigil(write.is_global)}{write.name} += : {message}",
                    write,
                )


# ======================================================================
# Paper-grounded warnings
# ======================================================================
@register
class SnapshotReadHazardRule(Rule):
    """W010: Section 4.3 — inside an ACCUM clause every accumulator read
    sees the snapshot taken *before* the clause.  Reading an accumulator
    the same clause updates (same target for vertex accumulators) is a
    classic source of off-by-one-superstep bugs."""

    code = "GSQL-W010"
    name = "snapshot-read-hazard"
    severity = Severity.WARNING
    description = (
        "An ACCUM clause reads an accumulator it also updates; the read "
        "sees the pre-clause snapshot (Section 4.3)."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for block_fact in model.blocks:
            global_writes: Set[str] = set()
            vertex_writes: Dict[str, Set[Optional[str]]] = {}
            for write in block_fact.writes:
                if write.context != "accum":
                    continue
                if write.is_global:
                    global_writes.add(write.name)
                else:
                    base = write.node.target.base
                    var = base.name if isinstance(base, NameRef) else None
                    vertex_writes.setdefault(write.name, set()).add(var)
            for read in block_fact.reads:
                if read.context != "accum" or read.primed:
                    continue
                if read.is_global:
                    hazard = read.name in global_writes
                else:
                    base = getattr(read.node, "base", None)
                    var = base.name if isinstance(base, NameRef) else None
                    hazard = var is not None and var in vertex_writes.get(
                        read.name, set()
                    )
                if hazard:
                    yield self.diag(
                        f"{_sigil(read.is_global)}{read.name} is read in the "
                        f"same ACCUM clause that updates it; the read sees "
                        f"the snapshot taken before the clause (move it to "
                        f"POST_ACCUM or read the primed value)",
                        read,
                    )


@register
class WhileWithoutLimitRule(Rule):
    code = "GSQL-W020"
    name = "while-without-limit"
    severity = Severity.WARNING
    description = (
        "A WHILE loop has no LIMIT and its condition depends on nothing "
        "the body can change."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for loop in model.whiles:
            if loop.has_limit or loop.cond_reads_accum:
                continue
            if loop.cond_set_names & loop.body_assigned_sets:
                continue
            yield self.diag(
                "WHILE has no LIMIT and its condition references no "
                "accumulator or reassigned vertex set; the loop may never "
                "terminate",
                loop,
            )


@register
class UnusedAccumulatorRule(Rule):
    code = "GSQL-W021"
    name = "unused-accumulator"
    severity = Severity.WARNING
    description = "An accumulator is declared but never read or updated."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        used: Set[Tuple[bool, str]] = set()
        for write in model.writes:
            used.add((write.is_global, write.name))
        for read in model.reads:
            used.add((read.is_global, read.name))
        for decl in model.decls:
            key = (decl.scope == "global", decl.name)
            if key not in used:
                yield self.diag(
                    f"{_sigil(key[0])}{decl.name} is declared but never used",
                    decl,
                )


@register
class UnusedVertexSetRule(Rule):
    code = "GSQL-W022"
    name = "unused-vertex-set"
    severity = Severity.WARNING
    description = "An explicitly assigned vertex set is never read."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        used = {use.name for use in model.set_uses}
        seen: Set[str] = set()
        for def_fact in model.set_defs:
            if def_fact.origin != "assign" or def_fact.name in seen:
                continue
            seen.add(def_fact.name)
            if def_fact.name not in used:
                yield self.diag(
                    f"vertex set {def_fact.name!r} is assigned but never "
                    f"used",
                    def_fact,
                )


@register
class ShadowedIntoRule(Rule):
    code = "GSQL-W023"
    name = "shadowed-into"
    severity = Severity.WARNING
    description = "An INTO table reuses the name of an existing set or table."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for into in model.intos:
            if into.shadows:
                yield self.diag(
                    f"INTO {into.name} shadows an existing {into.shadows}",
                    into,
                )


@register
class ForeachShadowRule(Rule):
    code = "GSQL-W024"
    name = "foreach-shadows-name"
    severity = Severity.WARNING
    description = "A FOREACH loop variable shadows a vertex set or parameter."

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for var in model.foreach_vars:
            if var.shadows:
                yield self.diag(
                    f"FOREACH variable {var.var!r} shadows a {var.shadows}",
                    var,
                )


@register
class UnknownNameRule(Rule):
    code = "GSQL-W025"
    name = "unknown-name"
    severity = Severity.WARNING
    description = (
        "A bare identifier outside any SELECT resolves to no parameter, "
        "set, table or loop variable."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for use in model.name_uses:
            if not use.known:
                yield self.diag(
                    f"{use.name!r} is not a parameter, vertex set, table or "
                    f"loop variable",
                    use,
                )


# ======================================================================
# Flow-sensitive rules (E030-W034) — thin reporters over the dataflow
# fixed point; all the graph reasoning lives in repro.analysis.dataflow.
# ======================================================================
@register
class ReadBeforeWriteRule(Rule):
    """E030: a read that *no* write can reach.

    Flow-sensitive: fires only when every CFG path from entry to the
    read is write-free **and** the accumulator is written somewhere
    later, so read-only accumulators (query inputs/outputs) and
    declarations with initializers stay clean."""

    code = "GSQL-E030"
    name = "read-before-write"
    severity = Severity.ERROR
    description = (
        "An accumulator is read before any path has written it; the "
        "read yields the type's default value."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .dataflow import analyze_dataflow

        for read in analyze_dataflow(model).reads_before_write:
            yield self.diag(
                f"{_sigil(read.is_global)}{read.name} is read before any "
                f"write can reach this point; its first write comes later, "
                f"so this read sees the type's default value",
                read,
            )


@register
class DeadWriteRule(Rule):
    """W031: a write that every path overwrites with ``=`` before any
    read.  Backward liveness with *all* accumulators live at exit, so a
    final write (the query's output) is never flagged."""

    code = "GSQL-W031"
    name = "dead-accumulator-write"
    severity = Severity.WARNING
    description = (
        "An accumulator write is overwritten by a plain '=' assignment "
        "on every path before anything reads it."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .dataflow import analyze_dataflow

        for write in analyze_dataflow(model).dead_writes:
            yield self.diag(
                f"this write to {_sigil(write.is_global)}{write.name} is "
                f"dead: every following path overwrites it with '=' before "
                f"any read",
                write,
            )


@register
class LoopInvariantSelectRule(Rule):
    """W032: a SELECT block inside a WHILE that reads nothing the loop
    changes — same result every iteration; hoist it out."""

    code = "GSQL-W032"
    name = "loop-invariant-select"
    severity = Severity.WARNING
    description = (
        "A SELECT block inside a WHILE loop depends on nothing the loop "
        "body changes; it recomputes the same result every iteration."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .dataflow import analyze_dataflow

        for block_fact, _loop in analyze_dataflow(model).loop_invariant_blocks:
            yield self.diag(
                "SELECT block is loop-invariant: it reads no accumulator "
                "or vertex set the enclosing WHILE body changes; hoist it "
                "out of the loop",
                block_fact,
            )


@register
class WhileNeverConvergesRule(Rule):
    """E033: a WHILE whose condition reads accumulators, none of which
    the body updates — the condition is frozen, the loop cannot
    terminate (W020 covers conditions that read *no* accumulator)."""

    code = "GSQL-E033"
    name = "while-never-converges"
    severity = Severity.ERROR
    description = (
        "A WHILE without LIMIT tests accumulators its body never "
        "updates; the condition can never change."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .dataflow import analyze_dataflow

        for loop in analyze_dataflow(model).nonterminating_whiles:
            yield self.diag(
                "WHILE has no LIMIT and none of the accumulators its "
                "condition reads is updated in the loop body; the "
                "condition can never change and the loop cannot terminate",
                loop,
            )


@register
class UnreachableStatementRule(Rule):
    """W034: a statement no CFG path reaches, because a statically
    constant IF/WHILE condition cuts it off.  One diagnostic per
    unreachable region (its entry node), not per statement."""

    code = "GSQL-W034"
    name = "unreachable-statement"
    severity = Severity.WARNING
    description = (
        "A statement is unreachable: a statically constant condition "
        "(e.g. IF FALSE) cuts off every path to it."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .dataflow import analyze_dataflow

        for node in analyze_dataflow(model).unreachable_nodes:
            seq = node.events[0][1].seq if node.events else node.id
            yield self.diag(
                "statement is unreachable: a statically constant "
                "condition cuts off every path to it",
                span=node.span,
                seq=seq,
            )


# ======================================================================
# Effect/commutativity rules (E040-W042) — thin reporters over the
# per-block DeterminismCertificates of repro.analysis.effects.
# ======================================================================
@register
class ParallelUnsafeUpdateRule(Rule):
    """E040: a plain ``=`` into a *global* accumulator from an ACCUM
    clause with a row-dependent right-hand side.  Whatever the schedule
    — serial, partitioned, threaded — the final value is whichever row
    happened to flush last; there is no order under which this is
    well-defined, so it is an error, not a style warning."""

    code = "GSQL-E040"
    name = "parallel-unsafe-update"
    severity = Severity.ERROR
    description = (
        "An ACCUM clause assigns a row-dependent value to a global "
        "accumulator with '='; the result is whichever row wins the "
        "last-write race."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for write in analyze_effects(model).unsafe_writes:
            yield self.diag(
                f"@@{write.name} = … inside ACCUM is last-write-wins over "
                f"unordered binding rows; no evaluation order makes this "
                f"well-defined (use += with a commutative accumulator, or "
                f"move the assignment to POST_ACCUM)",
                write,
            )


@register
class OrderDependentBlockRule(Rule):
    """W041: the block's effect certificate is ORDER_DEPENDENT — some
    update observes input order, so partitioned/threaded execution (and
    any future plan that reorders rows) is nondeterministic.  Kleene-fed
    cases are already E013 errors; this rule covers the bounded-pattern
    remainder, per *block* rather than per declaration (W012)."""

    code = "GSQL-W041"
    name = "order-dependent-under-parallelism"
    severity = Severity.WARNING
    description = (
        "A SELECT block's accumulator updates are order-dependent; "
        "parallel or partitioned execution would be nondeterministic."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from ..core.tractable import DeterminismStatus

        for block_fact, _summary, cert in analyze_effects(model).blocks:
            if cert.status is not DeterminismStatus.ORDER_DEPENDENT:
                continue
            if block_fact.has_kleene:
                continue  # E013 already rejects the Kleene-fed cases
            reasons = "; ".join(cert.witnesses)
            yield self.diag(
                f"block is order-dependent under parallelism: {reasons}",
                block_fact,
            )


@register
class CrossAccumInterferenceRule(Rule):
    """W042: an ACCUM clause reads a vertex accumulator through one
    pattern variable while updating the same accumulator through a
    *different* variable.  Snapshot semantics keep a single serial block
    deterministic, but the read-set and write-set overlap across rows,
    which defeats delta maintenance and in-place partitioned execution
    (W010 covers the same-variable case)."""

    code = "GSQL-W042"
    name = "cross-accumulator-interference"
    severity = Severity.WARNING
    description = (
        "An ACCUM clause reads an accumulator it also writes through a "
        "different pattern variable; the read and write sets interfere "
        "across rows."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        for finding in analyze_effects(model).interference:
            via = finding.read_var or "?"
            writers = ", ".join(
                f"{w}.@{finding.name}" for w in finding.write_vars
            )
            yield self.diag(
                f"{via}.@{finding.name} is read while the same ACCUM "
                f"clause updates {writers}; reads and writes of "
                f"@{finding.name} interfere across rows (certified "
                f"non-delta-maintainable)",
                finding.read,
            )


# ======================================================================
# Cost rules (W050-W052) — thin reporters over the per-block
# CostCertificates of repro.analysis.cost.  Without graph statistics
# (``model.lint_stats``) the certificates are structural, so the rules
# stay conservative: they fire only on what is *provable* either way —
# an unbounded prediction (W050/W051) or a finite bound already over a
# cap (W052).
# ======================================================================

#: Path-count threshold above which a predicted enumeration is reported
#: as intractable — the stock "interactive" budget class's max_paths
#: (see repro.server.admission.default_classes).
PREDICTED_PATHS_WARN = 1_000_000

#: Accumulator-memory threshold for W052 — the stock "bounded" budget
#: class's max_accum_bytes cap (64 MiB).
PREDICTED_ACCUM_BYTES_WARN = 64 * 1024 * 1024


@register
class PredictedIntractableEnumerationRule(Rule):
    """W050: a block *must* run the enumeration engine (its tractability
    certificate says ENUMERATION_REQUIRED), and the cost certificate
    predicts an unbounded or enormous number of materialized paths.
    Unlike E013 (which rejects the order-dependent + Kleene combination
    outright), this fires on queries that are legal but whose predicted
    path count says the run will not finish at interactive scale."""

    code = "GSQL-W050"
    name = "predicted-intractable-enumeration"
    severity = Severity.WARNING
    description = (
        "A block requires path enumeration and its cost certificate "
        "predicts an unbounded or enormous path count."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from ..core.tractable import TractabilityStatus
        from .cost import analyze_cost
        from .dataflow import block_certificates

        cost = analyze_cost(model, stats=getattr(model, "lint_stats", None))
        by_block = {id(bf): cert for bf, cert in cost.blocks}
        for block_fact, cert in block_certificates(model):
            if cert.status is not TractabilityStatus.ENUMERATION_REQUIRED:
                continue
            cc = by_block.get(id(block_fact))
            if cc is None:
                continue
            if cc.paths.hi is not None and cc.paths.hi <= PREDICTED_PATHS_WARN:
                continue
            predicted = (
                "unbounded" if cc.paths.hi is None else f"<= {cc.paths.hi:,}"
            )
            yield self.diag(
                f"block requires the enumeration engine and its predicted "
                f"path count is {predicted}; the run is predicted "
                f"intractable — bound the pattern, or run governed with "
                f"--max-paths",
                block_fact,
            )


@register
class UnboundedPredictedIterationsRule(Rule):
    """W051: a WHILE loop whose predicted iteration count is unbounded —
    no constant LIMIT and no governed cap (E033's degraded-execution
    flag) — so every cost interval inside it is unbounded too.  W020
    covers the narrower "condition can never change" case; this covers
    loops that *do* converge dynamically but give static analysis no
    bound to certify, which in turn makes auto-budgets and admission
    prediction useless for the whole query."""

    code = "GSQL-W051"
    name = "unbounded-predicted-iterations"
    severity = Severity.WARNING
    description = (
        "A WHILE loop has no statically bounded iteration count (no "
        "LIMIT, no governed cap); the query's cost prediction is "
        "unbounded."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .cost import analyze_cost

        cost = analyze_cost(model, stats=getattr(model, "lint_stats", None))
        facts_by_node = {id(fact.node): fact for fact in model.whiles}
        for loop_node, iterations in cost.whiles:
            if iterations.hi is not None:
                continue
            loop_fact = facts_by_node.get(id(loop_node))
            if loop_fact is None:
                continue
            if loop_fact.has_limit or loop_fact.cond_reads_accum:
                # A LIMIT bounds it; a convergence condition (reads an
                # accumulator) is the idiomatic dynamic bound — W020/E033
                # police the pathological subcases.
                continue
            if not (loop_fact.cond_set_names & loop_fact.body_assigned_sets):
                continue  # W020 already reports the never-changing case
            yield self.diag(
                "WHILE iterations cannot be bounded statically; every "
                "cost prediction inside the loop is unbounded — add a "
                "LIMIT to restore a certifiable budget",
                loop_fact,
            )


@register
class PredictedAccumMemoryRule(Rule):
    """W052: the query's predicted accumulator memory — container growth
    per certified acc-execution, from the op-algebra table's unit-bytes
    column — exceeds the stock bounded budget class's 64 MiB cap.  A
    *finite* prediction over the cap is a proof the query cannot run in
    that class; with structural (statistics-free) certificates container
    growth is unbounded, not finite, so the rule stays silent."""

    code = "GSQL-W052"
    name = "predicted-accumulator-memory"
    severity = Severity.WARNING
    description = (
        "The query's predicted accumulator memory exceeds the bounded "
        "budget class's 64 MiB cap."
    )

    def check(self, model: QueryModel) -> Iterator[Diagnostic]:
        from .cost import analyze_cost

        cost = analyze_cost(model, stats=getattr(model, "lint_stats", None))
        cert = cost.query_certificate
        hi = cert.accum_bytes.hi
        if hi is None or hi <= PREDICTED_ACCUM_BYTES_WARN:
            return
        mib = hi / (1024 * 1024)
        yield self.diag(
            f"predicted accumulator memory is up to {mib:,.0f} MiB, over "
            f"the bounded budget class's 64 MiB cap; the query cannot be "
            f"admitted there (shrink the container accumulators or use a "
            f"roomier class)",
            span=None,
            seq=0,
        )


__all__ = [
    "Rule",
    "register",
    "all_rules",
    "rule_catalog",
    "catalog_codes",
]
