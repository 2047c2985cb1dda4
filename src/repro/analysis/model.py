"""The analyzer's view of a compiled query: an ordered stream of facts.

:func:`build_model` walks a :class:`~repro.core.query.Query` exactly
once, in source order, resolving names against the *sequential* scope a
GSQL query builds up (declarations bind from their statement onward) and
recording what it sees as flat fact records.  Rules never walk the AST
themselves — they pattern-match over these facts, which keeps each rule
a few lines and guarantees all rules agree on scoping.

Every fact carries its source-order sequence number (``seq``), so
sorting diagnostics by it reproduces walk order; the walk recurses into
``IF``/``FOREACH`` statements nested inside ACCUM and POST_ACCUM clauses
(:class:`~repro.core.stmts.AccumIf` and
:class:`~repro.core.stmts.AccumForeach`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from .. import _exec
from ..core.acctypes import AccumTypeInfo
from ..core.block import SelectBlock
from ..core.exprs import Expr, GlobalAccumRef, NameRef, VertexAccumRef
from ..core.pattern import Pattern, TableSource
from ..core.query import (
    DeclareAccum,
    Foreach,
    GlobalAccumUpdate,
    If,
    Print,
    PrintSetProjection,
    Query,
    Return,
    RunBlock,
    SetAssign,
    SetOpAssign,
    Statement,
    While,
)
from ..core.span import Span, span_of
from ..core.stmts import (
    AccumForeach,
    AccumIf,
    AccumUpdate,
    AttributeUpdate,
    LocalAssign,
)
from ..darpe.ast import symbols
from .types import TypeEnv


class _Fact:
    """Base record: every fact knows its AST node and source span.

    ``owner`` is the innermost *statement* being walked when the fact was
    recorded (None for top-level walks) — the unit the control-flow graph
    of :mod:`repro.analysis.cfg` is built over, so the flow-sensitive
    rules can group facts per CFG node.
    """

    __slots__ = ("node", "span", "seq", "owner")

    def __init__(self, node: Any, span: Optional[Span], seq: int):
        self.node = node
        self.span = span
        self.seq = seq
        self.owner: Any = None


class DeclFact(_Fact):
    __slots__ = ("name", "scope", "type_info", "duplicate", "order_dependent",
                 "type_text")

    def __init__(self, node, span, seq, name, scope, type_info, duplicate,
                 order_dependent, type_text):
        super().__init__(node, span, seq)
        self.name = name
        self.scope = scope  # "global" | "vertex"
        self.type_info = type_info
        self.duplicate = duplicate
        self.order_dependent = order_dependent
        self.type_text = type_text


class AccumWriteFact(_Fact):
    """One ``+=``/``=`` into an accumulator.

    ``context`` is ``"accum"``, ``"post_accum"`` or ``"top"`` (a
    top-level ``@@x += ...`` statement); ``nested`` marks updates inside
    an ACCUM-clause IF/FOREACH body.
    """

    __slots__ = ("name", "is_global", "op", "expr", "context",
                 "declared_global", "declared_vertex", "block", "nested", "env")

    def __init__(self, node, span, seq, name, is_global, op, expr, context,
                 declared_global, declared_vertex, block, nested, env):
        super().__init__(node, span, seq)
        self.name = name
        self.is_global = is_global
        self.op = op
        self.expr = expr
        self.context = context
        self.declared_global = declared_global
        self.declared_vertex = declared_vertex
        self.block = block
        self.nested = nested
        self.env = env


class AccumReadFact(_Fact):
    __slots__ = ("name", "is_global", "primed", "context",
                 "declared_global", "declared_vertex", "block")

    def __init__(self, node, span, seq, name, is_global, primed, context,
                 declared_global, declared_vertex, block):
        super().__init__(node, span, seq)
        self.name = name
        self.is_global = is_global
        self.primed = primed
        self.context = context
        self.declared_global = declared_global
        self.declared_vertex = declared_vertex
        self.block = block


class SetDefFact(_Fact):
    __slots__ = ("name", "origin")

    def __init__(self, node, span, seq, name, origin):
        super().__init__(node, span, seq)
        self.name = name
        self.origin = origin  # "assign" | "select" | "setop" | "into" | "alias"


class SetUseFact(_Fact):
    __slots__ = ("name", "context", "known")

    def __init__(self, node, span, seq, name, context, known):
        super().__init__(node, span, seq)
        self.name = name
        self.context = context  # "setop" | "print" | "from" | "copy"
        self.known = known


class PatternPosFact(_Fact):
    __slots__ = ("name", "is_set", "schema_known")

    def __init__(self, node, span, seq, name, is_set, schema_known):
        super().__init__(node, span, seq)
        self.name = name
        self.is_set = is_set
        self.schema_known = schema_known


class EdgeTypeFact(_Fact):
    __slots__ = ("edge_type", "darpe_text", "known")

    def __init__(self, node, span, seq, edge_type, darpe_text, known):
        super().__init__(node, span, seq)
        self.edge_type = edge_type
        self.darpe_text = darpe_text
        self.known = known


class BlockFact(_Fact):
    __slots__ = ("block", "has_kleene", "writes", "reads")

    def __init__(self, node, span, seq, block, has_kleene):
        super().__init__(node, span, seq)
        self.block = block
        self.has_kleene = has_kleene
        self.writes: List[AccumWriteFact] = []
        self.reads: List[AccumReadFact] = []


class WhileFact(_Fact):
    __slots__ = ("has_limit", "cond_reads_accum", "cond_set_names",
                 "body_assigned_sets")

    def __init__(self, node, span, seq, has_limit, cond_reads_accum,
                 cond_set_names, body_assigned_sets):
        super().__init__(node, span, seq)
        self.has_limit = has_limit
        self.cond_reads_accum = cond_reads_accum
        self.cond_set_names = cond_set_names
        self.body_assigned_sets = body_assigned_sets


class ForeachVarFact(_Fact):
    __slots__ = ("var", "shadows")

    def __init__(self, node, span, seq, var, shadows):
        super().__init__(node, span, seq)
        self.var = var
        self.shadows = shadows  # None | "vertex set" | "parameter"


class IntoFact(_Fact):
    __slots__ = ("name", "shadows")

    def __init__(self, node, span, seq, name, shadows):
        super().__init__(node, span, seq)
        self.name = name
        self.shadows = shadows  # None | "vertex set" | "table"


class NameUseFact(_Fact):
    """A bare top-level identifier (PRINT/RETURN/conditions), resolved
    against parameters, sets, tables and loop variables."""

    __slots__ = ("name", "context", "known")

    def __init__(self, node, span, seq, name, context, known):
        super().__init__(node, span, seq)
        self.name = name
        self.context = context
        self.known = known


class QueryModel:
    """Everything the rules need, in one pass over the query."""

    def __init__(self, query: Query, schema=None):
        self.query = query
        self.schema = schema
        self.source: Optional[str] = getattr(query, "source", None)
        self.params: Dict[str, str] = {
            p.name: p.type_name for p in query.params
        }
        self.facts: List[_Fact] = []
        self.decls: List[DeclFact] = []
        self.writes: List[AccumWriteFact] = []
        self.reads: List[AccumReadFact] = []
        self.set_defs: List[SetDefFact] = []
        self.set_uses: List[SetUseFact] = []
        self.pattern_positions: List[PatternPosFact] = []
        self.edge_types: List[EdgeTypeFact] = []
        self.blocks: List[BlockFact] = []
        self.whiles: List[WhileFact] = []
        self.foreach_vars: List[ForeachVarFact] = []
        self.intos: List[IntoFact] = []
        self.name_uses: List[NameUseFact] = []

    def accum_types(self) -> Dict[Tuple[bool, str], AccumTypeInfo]:
        return {
            (d.scope == "global", d.name): d.type_info
            for d in self.decls
            if d.type_info is not None
        }


def _decl_order_dependence(decl: DeclareAccum) -> Tuple[Optional[bool], str]:
    """(order_dependent, type description) for a declaration.

    Prefers the parser-preserved :class:`AccumTypeInfo`; programmatic
    declarations are probed by instantiating the factory (guarding the
    parameter-dependent factories that need a runtime context).  When the
    probe itself fails the answer is ``None`` — *unknown* — so the
    tractability certificate can refuse to classify rather than guess
    (the flow-insensitive W012/E013 rules treat unknown as clean, which
    preserves their historical behaviour).
    """
    info = decl.type_info
    if info is not None:
        return info.order_dependent, info.describe()
    factory = decl.base_factory
    if getattr(factory, "takes_context", False):
        return False, "HeapAccum"
    try:
        probe = factory()
    except Exception:
        return None, type(factory).__name__
    return (not probe.order_invariant), probe.type_name


class _ModelBuilder:
    def __init__(self, query: Query, schema=None):
        self.model = QueryModel(query, schema)
        self.schema = schema
        self.seq = 0
        # Sequential scope, mirroring core.validate._Scope.
        self.global_accums: Set[str] = set()
        self.vertex_accums: Set[str] = set()
        self.vertex_sets: Set[str] = set()
        self.tables: Set[str] = set()
        self.loop_vars: List[str] = []
        self._owner_stack: List[Statement] = []

    # ------------------------------------------------------------------
    def _next(self) -> int:
        self.seq += 1
        return self.seq

    def _add(self, fact: _Fact, bucket: List) -> None:
        fact.owner = self._owner_stack[-1] if self._owner_stack else None
        self.model.facts.append(fact)
        bucket.append(fact)

    def _type_env(
        self,
        local_names: Optional[Dict[str, str]] = None,
        vertex_vars: Optional[Set[str]] = None,
    ) -> TypeEnv:
        names = dict(self.model.params)
        if local_names:
            names.update(local_names)
        return TypeEnv(
            accums=self.model.accum_types(),
            names=names,
            vertex_vars=vertex_vars or set(),
        )

    # ------------------------------------------------------------------
    def build(self) -> QueryModel:
        self._walk_statements(self.model.query.statements)
        return self.model

    def _walk_statements(self, statements: List[Statement]) -> None:
        for stmt in statements:
            self._walk_statement(stmt)

    def _walk_statement(self, stmt: Statement) -> None:
        self._owner_stack.append(stmt)
        try:
            self._dispatch_statement(stmt)
        finally:
            self._owner_stack.pop()

    def _dispatch_statement(self, stmt: Statement) -> None:
        model = self.model
        if isinstance(stmt, DeclareAccum):
            duplicate = stmt.name in self.global_accums | self.vertex_accums
            order_dep, type_text = _decl_order_dependence(stmt)
            fact = DeclFact(
                stmt, span_of(stmt), self._next(), stmt.name, stmt.scope,
                stmt.type_info, duplicate, order_dep, type_text,
            )
            self._add(fact, model.decls)
            target = (
                self.global_accums if stmt.scope == "global"
                else self.vertex_accums
            )
            target.add(stmt.name)
        elif isinstance(stmt, SetAssign):
            if isinstance(stmt.source, SelectBlock):
                self._walk_block(stmt.source, stmt)
            elif isinstance(stmt.source, str):
                known = (
                    stmt.source in self.vertex_sets
                    or stmt.source in self.model.params
                )
                self._add(
                    SetUseFact(
                        stmt, span_of(stmt), self._next(), stmt.source,
                        "copy", known,
                    ),
                    model.set_uses,
                )
            self._add(
                SetDefFact(stmt, span_of(stmt), self._next(), stmt.name, "assign"),
                model.set_defs,
            )
            self.vertex_sets.add(stmt.name)
        elif isinstance(stmt, SetOpAssign):
            for operand in (stmt.left, stmt.right):
                self._add(
                    SetUseFact(
                        stmt, span_of(stmt), self._next(), operand, "setop",
                        operand in self.vertex_sets,
                    ),
                    model.set_uses,
                )
            self._add(
                SetDefFact(stmt, span_of(stmt), self._next(), stmt.name, "setop"),
                model.set_defs,
            )
            self.vertex_sets.add(stmt.name)
        elif isinstance(stmt, RunBlock):
            self._walk_block(stmt.block, stmt)
            if stmt.assign_to:
                self._add(
                    SetDefFact(
                        stmt, span_of(stmt), self._next(), stmt.assign_to,
                        "select",
                    ),
                    model.set_defs,
                )
                self.vertex_sets.add(stmt.assign_to)
            for fragment in stmt.block.fragments:
                shadows = None
                if fragment.into in self.vertex_sets and fragment.into != stmt.assign_to:
                    shadows = "vertex set"
                elif fragment.into in self.tables:
                    shadows = "table"
                self._add(
                    IntoFact(
                        fragment, span_of(fragment) or span_of(stmt),
                        self._next(), fragment.into, shadows,
                    ),
                    model.intos,
                )
                self.tables.add(fragment.into)
                # INTO names double as FROM-able sets (Figure 3 idiom).
                self.vertex_sets.add(fragment.into)
        elif isinstance(stmt, GlobalAccumUpdate):
            env = self._type_env()
            fact = AccumWriteFact(
                stmt, span_of(stmt), self._next(), stmt.name, True, stmt.op,
                stmt.expr, "top", stmt.name in self.global_accums,
                stmt.name in self.vertex_accums, None, False, env,
            )
            self._add(fact, model.writes)
            self._walk_expr(stmt.expr, "top", None, fallback_span=span_of(stmt))
        elif isinstance(stmt, While):
            cond_reads_accum = any(
                isinstance(node, (GlobalAccumRef, VertexAccumRef))
                for node in stmt.cond.walk()
            )
            cond_set_names = {
                node.name
                for node in stmt.cond.walk()
                if isinstance(node, NameRef) and node.name in self.vertex_sets
            }
            body_assigned = _assigned_set_names(stmt.body)
            self._add(
                WhileFact(
                    stmt, span_of(stmt), self._next(),
                    stmt.limit is not None, cond_reads_accum,
                    cond_set_names, body_assigned,
                ),
                model.whiles,
            )
            self._walk_expr(stmt.cond, "cond", None, fallback_span=span_of(stmt))
            self._walk_statements(stmt.body)
        elif isinstance(stmt, Foreach):
            shadows = None
            if stmt.var in self.vertex_sets:
                shadows = "vertex set"
            elif stmt.var in self.model.params:
                shadows = "parameter"
            self._add(
                ForeachVarFact(
                    stmt, span_of(stmt), self._next(), stmt.var, shadows
                ),
                model.foreach_vars,
            )
            self._walk_expr(
                stmt.collection, "cond", None, fallback_span=span_of(stmt)
            )
            self.loop_vars.append(stmt.var)
            try:
                self._walk_statements(stmt.body)
            finally:
                self.loop_vars.pop()
        elif isinstance(stmt, If):
            self._walk_expr(stmt.cond, "cond", None, fallback_span=span_of(stmt))
            self._walk_statements(stmt.then)
            self._walk_statements(stmt.otherwise)
        elif isinstance(stmt, Print):
            for item in stmt.items:
                if isinstance(item, PrintSetProjection):
                    self._add(
                        SetUseFact(
                            item, span_of(stmt), self._next(), item.set_name,
                            "print", item.set_name in self.vertex_sets,
                        ),
                        model.set_uses,
                    )
                    for col in item.columns:
                        self._walk_expr(
                            col.expr, "print", None,
                            fallback_span=span_of(stmt),
                            extra_names={item.set_name},
                        )
                else:
                    self._walk_expr(
                        item.expr, "print", None, fallback_span=span_of(stmt)
                    )
        elif isinstance(stmt, Return):
            self._walk_expr(stmt.expr, "return", None, fallback_span=span_of(stmt))
        else:
            inner = getattr(stmt, "statements", None)
            if inner is not None:
                self._walk_statements(inner)

    # ------------------------------------------------------------------
    def _walk_block(self, block: SelectBlock, stmt: Statement) -> None:
        model = self.model
        block_fact = BlockFact(
            stmt, span_of(stmt), self._next(), block,
            block.pattern.has_kleene(),
        )
        self._add(block_fact, model.blocks)
        self._walk_pattern(block.pattern, stmt)
        pattern_vars = {v for v in block.pattern.variables() if v}
        for expr in _block_exprs(block):
            self._walk_expr(
                expr, "block", block_fact, fallback_span=span_of(stmt),
                extra_names=pattern_vars,
            )
        locals_types: Dict[str, str] = {}
        local_names: Set[str] = set()
        self._walk_acc_statements(
            block.accum, "accum", block_fact, stmt, pattern_vars,
            locals_types, local_names, nested=False,
        )
        locals_types = {}
        local_names = set()
        self._walk_acc_statements(
            block.post_accum, "post_accum", block_fact, stmt, pattern_vars,
            locals_types, local_names, nested=False,
        )

    def _walk_acc_statements(
        self,
        statements,
        context: str,
        block_fact: BlockFact,
        stmt: Statement,
        pattern_vars: Set[str],
        locals_types: Dict[str, str],
        local_names: Set[str],
        nested: bool,
    ) -> None:
        for acc in statements:
            if isinstance(acc, AccumUpdate):
                name = acc.target.name
                is_global = acc.target.is_global
                env = self._type_env(locals_types, pattern_vars)
                fact = AccumWriteFact(
                    acc, span_of(acc) or span_of(stmt), self._next(), name,
                    is_global, acc.op, acc.expr, context,
                    name in self.global_accums, name in self.vertex_accums,
                    block_fact.block, nested, env,
                )
                self._add(fact, self.model.writes)
                block_fact.writes.append(fact)
                self._walk_expr(
                    acc.expr, context, block_fact,
                    fallback_span=span_of(acc) or span_of(stmt),
                    extra_names=pattern_vars | local_names,
                )
            elif isinstance(acc, LocalAssign):
                self._walk_expr(
                    acc.expr, context, block_fact,
                    fallback_span=span_of(acc) or span_of(stmt),
                    extra_names=pattern_vars | local_names,
                )
                local_names.add(acc.name)
                if acc.type_name:
                    locals_types[acc.name] = acc.type_name
            elif isinstance(acc, AttributeUpdate):
                self._walk_expr(
                    acc.expr, context, block_fact,
                    fallback_span=span_of(acc) or span_of(stmt),
                    extra_names=pattern_vars | local_names,
                )
            elif isinstance(acc, AccumIf):
                self._walk_expr(
                    acc.cond, context, block_fact,
                    fallback_span=span_of(acc) or span_of(stmt),
                    extra_names=pattern_vars | local_names,
                )
                for branch in (acc.then, acc.otherwise):
                    self._walk_acc_statements(
                        branch, context, block_fact, stmt, pattern_vars,
                        locals_types, local_names, nested=True,
                    )
            elif isinstance(acc, AccumForeach):
                self._walk_expr(
                    acc.collection, context, block_fact,
                    fallback_span=span_of(acc) or span_of(stmt),
                    extra_names=pattern_vars | local_names,
                )
                local_names.add(acc.var)
                self._walk_acc_statements(
                    acc.body, context, block_fact, stmt, pattern_vars,
                    locals_types, local_names, nested=True,
                )

    def _walk_pattern(self, pattern: Pattern, stmt: Statement) -> None:
        model = self.model
        for chain in pattern.chains:
            if isinstance(chain, TableSource):
                continue
            positions = [chain.source] + [hop.target for hop in chain.hops]
            for spec in positions:
                if spec.name in ("_", "ANY"):
                    continue
                is_set = spec.name in self.vertex_sets
                if is_set:
                    self._add(
                        SetUseFact(
                            spec, span_of(spec) or span_of(stmt),
                            self._next(), spec.name, "from", True,
                        ),
                        model.set_uses,
                    )
                    continue
                schema_known = (
                    self.schema is not None
                    and self.schema.has_vertex_type(spec.name)
                )
                self._add(
                    PatternPosFact(
                        spec, span_of(spec) or span_of(stmt), self._next(),
                        spec.name, False, schema_known,
                    ),
                    model.pattern_positions,
                )
            if self.schema is not None:
                for hop in chain.hops:
                    for symbol in symbols(hop.darpe.ast):
                        if symbol.edge_type is None:
                            continue
                        self._add(
                            EdgeTypeFact(
                                hop, span_of(hop) or span_of(stmt),
                                self._next(), symbol.edge_type,
                                hop.darpe.text,
                                self.schema.has_edge_type(symbol.edge_type),
                            ),
                            model.edge_types,
                        )

    # ------------------------------------------------------------------
    def _walk_expr(
        self,
        expr: Expr,
        context: str,
        block_fact: Optional[BlockFact],
        fallback_span: Optional[Span] = None,
        extra_names: Optional[Set[str]] = None,
    ) -> None:
        """Record accumulator reads, and — at top level — bare name uses."""
        model = self.model
        extra = extra_names or set()
        for node in expr.walk():
            if isinstance(node, GlobalAccumRef):
                fact = AccumReadFact(
                    node, span_of(node) or fallback_span, self._next(),
                    node.name, True, node.primed, context,
                    node.name in self.global_accums,
                    node.name in self.vertex_accums,
                    block_fact.block if block_fact else None,
                )
                self._add(fact, model.reads)
                if block_fact is not None:
                    block_fact.reads.append(fact)
            elif isinstance(node, VertexAccumRef):
                fact = AccumReadFact(
                    node, span_of(node) or fallback_span, self._next(),
                    node.name, False, node.primed, context,
                    node.name in self.global_accums,
                    node.name in self.vertex_accums,
                    block_fact.block if block_fact else None,
                )
                self._add(fact, model.reads)
                if block_fact is not None:
                    block_fact.reads.append(fact)
            elif isinstance(node, NameRef) and context in (
                "top", "cond", "print", "return"
            ):
                known = (
                    node.name in self.model.params
                    or node.name in self.vertex_sets
                    or node.name in self.tables
                    or node.name in self.loop_vars
                    or node.name in extra
                )
                self._add(
                    NameUseFact(
                        node, span_of(node) or fallback_span, self._next(),
                        node.name, context, known,
                    ),
                    model.name_uses,
                )


def _block_exprs(block: SelectBlock):
    if block.where is not None:
        yield block.where
    for fragment in block.fragments:
        for col in fragment.columns:
            yield col.expr
    yield from block.group_by
    if block.having is not None:
        yield block.having
    for expr, _ in block.order_by:
        yield expr
    if block.limit is not None:
        yield block.limit


def _assigned_set_names(statements: List[Statement]) -> Set[str]:
    """Vertex-set names (re)assigned anywhere in a statement list."""
    names: Set[str] = set()
    for stmt in statements:
        if isinstance(stmt, (SetAssign, SetOpAssign)):
            names.add(stmt.name)
        elif isinstance(stmt, RunBlock):
            if stmt.assign_to:
                names.add(stmt.assign_to)
            for fragment in stmt.block.fragments:
                names.add(fragment.into)
        elif isinstance(stmt, While):
            names |= _assigned_set_names(stmt.body)
        elif isinstance(stmt, If):
            names |= _assigned_set_names(stmt.then)
            names |= _assigned_set_names(stmt.otherwise)
        elif isinstance(stmt, Foreach):
            names |= _assigned_set_names(stmt.body)
        else:
            inner = getattr(stmt, "statements", None)
            if inner is not None:
                names |= _assigned_set_names(inner)
    return names


def build_model(query: Query, schema=None) -> QueryModel:
    """One analysis model for ``query`` (see module docstring)."""
    return _ModelBuilder(query, schema).build()


def cached_model(query: Query, schema=None) -> QueryModel:
    """The model for ``query``, cached on the query object.

    Certificate attachment, ``repro validate``/``explain`` and
    ``repro lint``/``repro check`` all want the same model; building it
    once per (query, schema) pair keeps a CLI invocation at one walk
    instead of three.  The cache keeps the two most recent schemas, so
    the schema-free model the parser certifies from (and the worker
    lints) and the schema-carrying one a plan is lowered under do not
    evict each other.  ``Query.invalidate_analysis`` drops the cache
    after a recompile.
    """
    cache = getattr(query, "_analysis_cache", None) or ()
    for cached_schema, model in cache:
        if cached_schema is schema:
            return model
    col = _exec.current().col
    if col is not None:
        # The plan-cache acceptance contract reads this: a warm cache
        # hit must execute with zero analysis re-entry, i.e. this
        # counter stays absent from the request's counter snapshot.
        col.count("analysis.model_builds")
    model = build_model(query, schema)
    try:
        query._analysis_cache = ((schema, model),) + cache[:1]
    except AttributeError:
        pass  # exotic Query subclasses with __slots__ stay uncached
    return model


__all__ = [
    "QueryModel",
    "build_model",
    "cached_model",
    "DeclFact",
    "AccumWriteFact",
    "AccumReadFact",
    "SetDefFact",
    "SetUseFact",
    "PatternPosFact",
    "EdgeTypeFact",
    "BlockFact",
    "WhileFact",
    "ForeachVarFact",
    "IntoFact",
    "NameUseFact",
]
