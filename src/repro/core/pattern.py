"""FROM-clause patterns and binding-table evaluation.

A pattern is a comma-separated list of *chains*; each chain alternates
vertex specs and DARPE hops::

    Customer:c -(Likes>)- Product:t -(<Likes)- Customer:o

Evaluating a pattern produces the *binding table* of Section 4.1 — one row
per binding of the pattern variables — in the **compressed representation**
of Appendix A: each distinct binding is stored once together with its
multiplicity (the number of legal paths witnessing it).  Keeping the table
compressed is what makes the Theorem 7.1 evaluation polynomial even when
exponentially many paths match.

Two evaluation engines share this module:

* the **counting engine** (GSQL/TigerGraph semantics) computes hop
  multiplicities with the polynomial SDMC algorithm under
  all-shortest-paths semantics;
* the **enumeration engine** (the Neo4j-style baseline) computes them by
  materializing every legal path under the configured semantics, with its
  inherent exponential worst case.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .. import _exec
from ..darpe.ast import Symbol, contains_kleene
from ..darpe.automaton import CompiledDarpe
from ..darpe.parser import parse_darpe
from ..errors import QueryCompileError, QueryRuntimeError
from ..graph.elements import Vertex
from ..paths.sdmc import single_source_sdmc
from ..paths.semantics import PathSemantics
from ..enumeration.engine import match_counts
from .context import QueryContext
from .exprs import EvalEnv

_hidden_counter = itertools.count()


def hidden_var() -> str:
    """A fresh name for an unnamed pattern position."""
    return f"__v{next(_hidden_counter)}"


class EngineMode:
    """How a SELECT block's pattern is evaluated.

    ``counting()`` is the paper's engine: compressed binding table +
    polynomial SDMC counting under all-shortest-paths semantics.
    ``enumeration(semantics)`` materializes paths under any legality
    flavor — the baseline the experiments compare against.
    """

    COUNTING = "counting"
    ENUMERATION = "enumeration"
    AUTO = "auto"

    def __init__(
        self,
        kind: str,
        semantics: PathSemantics,
        budget: Optional[int] = None,
        max_length: Optional[int] = None,
    ):
        self.kind = kind
        self.semantics = semantics
        self.budget = budget
        self.max_length = max_length

    @classmethod
    def counting(
        cls,
        max_length: Optional[int] = None,
        semantics: PathSemantics = PathSemantics.ALL_SHORTEST,
    ) -> "EngineMode":
        """The polynomial engine.  ``semantics`` may also be
        :data:`PathSemantics.EXISTENCE` (SparQL-style multiplicity-1
        matching, equally tractable)."""
        if semantics not in (PathSemantics.ALL_SHORTEST, PathSemantics.EXISTENCE):
            raise QueryCompileError(
                f"the counting engine supports all-shortest-paths and "
                f"existence semantics, not {semantics.value} (use the "
                f"enumeration engine)"
            )
        return cls(cls.COUNTING, semantics, max_length=max_length)

    def for_semantics(self, semantics: PathSemantics) -> "EngineMode":
        """This mode's configuration re-targeted at another matching
        semantics — the per-block ``USING SEMANTICS`` override."""
        if semantics in (PathSemantics.ALL_SHORTEST, PathSemantics.EXISTENCE):
            return EngineMode(
                self.COUNTING, semantics, max_length=self.max_length
            )
        return EngineMode(
            self.ENUMERATION, semantics, budget=self.budget, max_length=self.max_length
        )

    @classmethod
    def enumeration(
        cls,
        semantics: PathSemantics = PathSemantics.NO_REPEATED_EDGE,
        budget: Optional[int] = None,
        max_length: Optional[int] = None,
    ) -> "EngineMode":
        return cls(cls.ENUMERATION, semantics, budget, max_length)

    @classmethod
    def auto(
        cls,
        max_length: Optional[int] = None,
        budget: Optional[int] = None,
        semantics: PathSemantics = PathSemantics.ALL_SHORTEST,
    ) -> "EngineMode":
        """Engine selection deferred to the planner, per SELECT block.

        Each block resolves to the counting engine when its static
        :class:`~repro.core.tractable.TractabilityCertificate` proves it
        tractable (falling back to a runtime probe of the declarations
        when no certificate is attached), and to the enumeration engine
        under the same all-shortest-paths semantics otherwise — see
        :func:`repro.core.planner.select_engine`.
        """
        return cls(cls.AUTO, semantics, budget=budget, max_length=max_length)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EngineMode({self.kind}, {self.semantics.value})"


class VertexSpec:
    """A vertex position in a pattern: a restricting *source name* plus an
    optional variable.

    ``name`` resolves, in order, to: a vertex-set variable in the context,
    a vertex type of the graph, or the wildcard ``_``/``ANY``.  If the
    *variable* coincides with a vertex-valued query parameter (the
    ``Customer:c`` idiom of Figure 3, where ``c`` is the parameter), the
    position is additionally pinned to that single vertex.
    """

    def __init__(self, name: str, var: Optional[str] = None):
        self.name = name
        self.var = var if var is not None else hidden_var()

    def seed(self, ctx: QueryContext) -> List[Vertex]:
        """The vertices this spec allows as a chain *source*."""
        pinned = self._pinned_vertex(ctx)
        if pinned is not None:
            member = self.membership(ctx)
            return [pinned] if member is None or member(pinned) else []
        return list(self._candidates(ctx))

    def membership(self, ctx: QueryContext) -> Optional[Callable[[Vertex], bool]]:
        """The position's vertex-set-or-type test, with ``name`` resolved
        once: a vertex -> bool callable, or None for the wildcard (every
        vertex is admissible).  The pin is separate — see
        :meth:`_pinned_vertex`."""
        name = self.name
        if name in ("_", "ANY"):
            return None
        vset = ctx.vertex_sets.get(name)
        if vset is not None:
            return vset.__contains__
        return lambda vertex: vertex.type == name

    def _pinned_vertex(self, ctx: QueryContext) -> Optional[Vertex]:
        value = ctx.params.get(self.var)
        return value if isinstance(value, Vertex) else None

    def _candidates(self, ctx: QueryContext) -> Iterable[Vertex]:
        if self.name in ("_", "ANY"):
            return ctx.graph.vertices()
        vset = ctx.vertex_sets.get(self.name)
        if vset is not None:
            return iter(vset)
        if ctx.graph.schema is not None and not ctx.graph.schema.has_vertex_type(
            self.name
        ):
            raise QueryRuntimeError(
                f"{self.name!r} is neither a vertex set nor a vertex type"
            )
        return ctx.graph.vertices(self.name)

    def candidates(self, ctx: QueryContext) -> List[Vertex]:
        """All vertices admissible in this position (pins applied)."""
        return self.seed(ctx)

    def __repr__(self) -> str:
        return f"{self.name}:{self.var}"


class Hop:
    """One DARPE edge-pattern between two vertex positions."""

    def __init__(
        self,
        darpe: CompiledDarpe,
        target: VertexSpec,
        edge_var: Optional[str] = None,
    ):
        self.darpe = darpe
        self.target = target
        self.edge_var = edge_var
        self.is_single_symbol = isinstance(darpe.ast, Symbol)
        if edge_var is not None and not self.is_single_symbol:
            raise QueryCompileError(
                f"edge variable {edge_var!r} requires a single-edge pattern; "
                f"{darpe.text!r} can match multi-edge paths (variables may "
                f"not bind inside repeated subpatterns — Section 7)"
            )
        self.has_kleene = contains_kleene(darpe.ast)
        self._reversed: Optional[CompiledDarpe] = None

    @property
    def reversed_darpe(self) -> CompiledDarpe:
        """The DARPE matching this hop's paths read target-to-source
        (compiled lazily; used by the target-side expansion plan)."""
        if self._reversed is None:
            from .planner import reverse_darpe

            ast = reverse_darpe(self.darpe.ast)
            self._reversed = CompiledDarpe(ast, f"reverse({self.darpe.text})")
        return self._reversed

    def __repr__(self) -> str:
        ev = f":{self.edge_var}" if self.edge_var else ""
        return f"-({self.darpe.text}{ev})- {self.target!r}"


class TableSource:
    """A relational-table conjunct in a FROM clause (Example 1 / Figure 1
    of the paper joins the Employee table with the LinkedIn graph).

    The variable binds to each row of the table (a dict-like object whose
    columns are read with the same ``var.column`` syntax as vertex
    attributes); joins with graph conjuncts happen through WHERE."""

    def __init__(self, table_name: str, var: Optional[str] = None):
        self.table_name = table_name
        self.var = var if var is not None else hidden_var()

    def rows(self, ctx: QueryContext) -> Iterable[dict]:
        table = ctx.tables.get(self.table_name)
        if table is None:
            raise QueryRuntimeError(
                f"{self.table_name!r} is not a registered table"
            )
        return table.dicts()

    def variables(self) -> List[str]:
        return [self.var]

    @property
    def hops(self) -> List["Hop"]:
        return []

    def __repr__(self) -> str:
        return f"{self.table_name}:{self.var}"


class Chain:
    """A linear pattern: source spec plus a sequence of hops."""

    def __init__(self, source: VertexSpec, hops: List[Hop]):
        self.source = source
        self.hops = hops

    def variables(self) -> List[str]:
        names = [self.source.var]
        for hop in self.hops:
            if hop.edge_var:
                names.append(hop.edge_var)
            names.append(hop.target.var)
        return names

    def __repr__(self) -> str:
        return f"{self.source!r} " + " ".join(repr(h) for h in self.hops)


class Pattern:
    """A full FROM-clause pattern: one or more chains joined on shared
    variables."""

    def __init__(self, chains: List[Chain]):
        if not chains:
            raise QueryCompileError("a pattern needs at least one chain")
        self.chains = chains

    def variables(self) -> List[str]:
        seen: List[str] = []
        for chain in self.chains:
            for name in chain.variables():
                if name not in seen:
                    seen.append(name)
        return seen

    def visible_variables(self) -> List[str]:
        return [v for v in self.variables() if not v.startswith("__v")]

    def has_kleene(self) -> bool:
        return any(hop.has_kleene for chain in self.chains for hop in chain.hops)

    def __repr__(self) -> str:
        return ", ".join(repr(c) for c in self.chains)


class BindingRow(NamedTuple):
    """One compressed binding-table row: variable bindings plus the count
    of legal paths witnessing them (Appendix A)."""

    bindings: Dict[str, Any]
    multiplicity: int


class BindingTable:
    """The (compressed) match table of Section 4.1."""

    def __init__(self, variables: List[str], rows: List[BindingRow]):
        self.variables = variables
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def total_multiplicity(self) -> int:
        """The conceptual (uncompressed) row count — may be astronomically
        large; this is the quantity Table 1's "path count" column reports."""
        return sum(row.multiplicity for row in self.rows)

    def __iter__(self):
        return iter(self.rows)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
# A hop runs as a two-stage kernel, like the ACCUM map kernel of
# ``repro.compile.lowering``: everything that cannot change while the hop
# executes — the pinned vertex, the vertex-set-or-type test, the
# pushed-down filters' closures and the one ``EvalEnv`` they run under —
# is resolved once by the bind stage (``_bind_filters``, ``_Acceptor``);
# the per-row loops then only look verdicts up and extend rows.

def _bind_filters(
    ctx: QueryContext, var: str, filters: Optional[List[Any]]
) -> Optional[Callable[[Any], bool]]:
    """Bind stage of one variable's pushed-down filters: ``passes(value)``
    for a vertex, an edge or a relational-table row, or None when the
    variable has no filters.

    Each filter's closure is taken once (lowered filters carry theirs
    prebuilt) and all of them run under one reused ``EvalEnv`` whose
    single binding is overwritten per call — a pushed-down conjunct reads
    no other variable.
    """
    if not filters:
        return None
    fns = [f.closure()[0] for f in filters]
    env = EvalEnv(ctx, {var: None})
    row = env.row

    def passes(value: Any) -> bool:
        row[var] = value
        for fn in fns:
            if not fn(env):
                return False
        return True

    return passes


class _Acceptor(dict):
    """Bind stage of a hop's target position: ``acceptor[vid]`` is the
    target :class:`Vertex` when it is admissible — the pin, the
    vertex-set-or-type test and the pushed-down filters all hold — and
    None otherwise, decided once per distinct vertex of one hop execution.

    Memoising is sound because a pushed-down conjunct reads only its own
    variable plus state that is fixed while the pattern is evaluated
    (attributes, parameters, accumulator values as of block entry), and
    pushdown already made *how often* a filter runs unobservable.  A
    filter that raises stores nothing: the error surfaces on the first
    encounter of its vertex.
    """

    __slots__ = ("_vertex", "_pinned", "_member", "_passes")

    def __init__(
        self, ctx: QueryContext, spec: VertexSpec, filters: Optional[List[Any]]
    ):
        self._vertex = ctx.graph.vertex
        pinned = spec._pinned_vertex(ctx)
        self._pinned = None if pinned is None else pinned.vid
        self._member = spec.membership(ctx)
        self._passes = _bind_filters(ctx, spec.var, filters)

    def __missing__(self, vid: Any) -> Optional[Vertex]:
        vertex: Optional[Vertex] = self._vertex(vid)
        if (
            (self._pinned is not None and vid != self._pinned)
            or (self._member is not None and not self._member(vertex))
            or (self._passes is not None and not self._passes(vertex))
        ):
            vertex = None
        self[vid] = vertex
        return vertex


def _hop_counts(
    graph, source_vid: Any, hop: Hop, mode: EngineMode, reverse: bool = False
) -> Dict[Any, int]:
    """target vid -> multiplicity for one (source vertex, hop).

    With ``reverse=True``, ``source_vid`` is the hop's *target* and the
    reversed DARPE is matched, so the returned keys are hop sources.
    """
    darpe = hop.reversed_darpe if reverse else hop.darpe
    if mode.kind == EngineMode.COUNTING:
        counts = {
            vid: res.count
            for vid, res in single_source_sdmc(
                graph, source_vid, darpe, max_length=mode.max_length
            ).items()
        }
        if mode.semantics is PathSemantics.EXISTENCE:
            # SparQL 1.1: reachability with multiplicity 1 (Section 6.1's
            # "tractable but aggregation-unfriendly" flavor).
            return {vid: 1 for vid in counts}
        return counts
    return match_counts(
        graph,
        source_vid,
        darpe,
        mode.semantics,
        max_length=mode.max_length,
        budget=mode.budget,
    )


def evaluate_chain(
    ctx: QueryContext,
    chain: Chain,
    mode: EngineMode,
    var_filters: Optional[Dict[str, List[Any]]] = None,
) -> List[BindingRow]:
    graph = ctx.graph
    var_filters = var_filters or {}
    col = _exec.current().col
    current_var = chain.source.var
    passes = _bind_filters(ctx, current_var, var_filters.get(current_var))
    rows: List[BindingRow] = [
        BindingRow({current_var: v}, 1)
        for v in chain.source.seed(ctx)
        if passes is None or passes(v)
    ]
    if col is not None:
        # Seed width after pushdown: the Qn query of Section 7.1 seeds
        # from 1 vertex instead of all 91 thanks to the planner.
        col.count("pattern.seed_vertices", len(rows))
    for hop in chain.hops:
        if col is not None:
            hop_span = col.span(
                "hop",
                label=f"hop -({hop.darpe.text})- {hop.target!r}",
                rows_in=len(rows),
            )
        try:
            new_rows, plan = _evaluate_hop(
                ctx, graph, hop, rows, mode, var_filters, current_var, col
            )
        finally:
            if col is not None:
                col.close(hop_span)
        if col is not None:
            hop_span.set(
                plan=plan,
                rows_out=len(new_rows),
                multiplicity_out=sum(r.multiplicity for r in new_rows),
            )
        rows = new_rows
        current_var = hop.target.var
    return rows


def _evaluate_hop(
    ctx: QueryContext,
    graph,
    hop: Hop,
    rows: List[BindingRow],
    mode: EngineMode,
    var_filters: Dict[str, List[Any]],
    current_var: str,
    col,
) -> Tuple[List[BindingRow], str]:
    """Expand one hop; returns (new rows, plan label for observability).

    Every plan extends a row the same way: the target (and edge) binding
    is added to a copy of the row's bindings, and a target variable the
    row already binds acts as a join condition — the new binding must be
    that same vertex or the extension is dropped.
    """
    new_rows: List[BindingRow] = []
    append = new_rows.append
    target_var = hop.target.var
    if hop.is_single_symbol:
        # One-edge hops read the adjacency bucket(s) of their symbol
        # directly and can bind an edge variable.
        plan = "adjacency"
        symbol = hop.darpe.ast
        acceptor = _Acceptor(ctx, hop.target, var_filters.get(target_var))
        edge_var = hop.edge_var
        # Edges are per-row bindings: their filters run per crossing.
        edge_passes = (
            _bind_filters(ctx, edge_var, var_filters.get(edge_var))
            if edge_var is not None
            else None
        )
        direction, etype = symbol.direction, symbol.edge_type
        for bindings, multiplicity in rows:
            joined = bindings.get(target_var)
            by_type = graph.buckets(bindings[current_var].vid)[direction]
            # the symbol's one bucket, or every bucket for the wildcard
            buckets = by_type.values() if etype is None else (by_type.get(etype, ()),)
            for bucket in buckets:
                for step in bucket:
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
                    append(BindingRow(extended, multiplicity))
        return new_rows, plan

    reverse_targets = _reverse_targets(
        ctx, hop, rows, mode, var_filters, current_var
    )
    if reverse_targets is not None:
        # Pinned-target hop: expand from the (smaller) target side
        # over the reversed DARPE — the plan shape whose cost the
        # paper's Table 1 measures on Neo4j.
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
                append(BindingRow(extended, multiplicity * mult))
        return new_rows, plan

    # Forward expansion; the per-source result — already restricted to
    # admissible targets — is cached since many rows share a source.
    plan = "sdmc-counting" if mode.kind == EngineMode.COUNTING else "enumeration"
    if col is not None:
        col.count("planner.hops_forward")
    acceptor = _Acceptor(ctx, hop.target, var_filters.get(target_var))
    cache: Dict[Any, List[Tuple[Vertex, int]]] = {}
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
            append(BindingRow(extended, multiplicity * mult))
    return new_rows, plan


def _reverse_targets(
    ctx: QueryContext,
    hop: Hop,
    rows: List[BindingRow],
    mode: EngineMode,
    var_filters: Dict[str, List[Any]],
    current_var: str,
) -> Optional[List[Vertex]]:
    """Decide whether to evaluate a multi-edge hop from the target side.

    Applies when the hop's target variable carries pushed-down filters
    that pin it to at most as many vertices as there are distinct hop
    sources.  Counting-engine hops stay forward (the BFS is cheap and the
    per-source cache already amortizes); enumeration hops reverse, which
    is what bounds the Table 1 enumeration cost by 2^n instead of 2^30.
    """
    if mode.kind != EngineMode.ENUMERATION:
        return None
    passes = _bind_filters(ctx, hop.target.var, var_filters.get(hop.target.var))
    if passes is None or not rows:
        return None
    targets = [v for v in hop.target.candidates(ctx) if passes(v)]
    distinct_sources = {row.bindings[current_var].vid for row in rows}
    if len(targets) <= len(distinct_sources):
        return targets
    return None


def _join(left: List[BindingRow], right: List[BindingRow]) -> List[BindingRow]:
    """Natural join of two chains' rows on their shared variables,
    multiplying multiplicities."""
    if not left or not right:
        return []
    shared = sorted(set(left[0].bindings) & set(right[0].bindings))

    def key(row: BindingRow) -> Tuple:
        return tuple(_join_key(row.bindings[name]) for name in shared)

    buckets: Dict[Tuple, List[BindingRow]] = {}
    for row in right:
        buckets.setdefault(key(row), []).append(row)
    out: List[BindingRow] = []
    for lrow in left:
        for rrow in buckets.get(key(lrow), ()):
            bindings = dict(lrow.bindings)
            bindings.update(rrow.bindings)
            out.append(BindingRow(bindings, lrow.multiplicity * rrow.multiplicity))
    return out


def _join_key(value: Any) -> Any:
    if isinstance(value, Vertex):
        return ("v", value.vid)
    if isinstance(value, dict):  # relational-table row binding
        return ("t", tuple(sorted((k, repr(v)) for k, v in value.items())))
    return ("e", getattr(value, "eid", value))


def evaluate_pattern(
    ctx: QueryContext,
    pattern: Pattern,
    mode: EngineMode,
    var_filters: Optional[Dict[str, List[Any]]] = None,
) -> BindingTable:
    """Evaluate a FROM-clause pattern to its compressed binding table.

    ``var_filters`` maps pattern variables to pushed-down single-variable
    WHERE conjuncts (see :mod:`repro.core.planner`); they are applied as
    each variable is bound.
    """
    rows: Optional[List[BindingRow]] = None
    filters = var_filters or {}
    for chain in pattern.chains:
        if not isinstance(chain, TableSource) and _is_table_conjunct(ctx, chain):
            # A hop-free conjunct naming a registered relational table
            # (and not a vertex set/type) scans that table — the paper's
            # Figure 1 "Employee" conjunct.
            chain = TableSource(chain.source.name, chain.source.var)
        if isinstance(chain, TableSource):
            passes = _bind_filters(ctx, chain.var, filters.get(chain.var))
            chain_rows = [
                BindingRow({chain.var: row}, 1)
                for row in chain.rows(ctx)
                if passes is None or passes(row)
            ]
        else:
            chain_rows = evaluate_chain(ctx, chain, mode, filters)
        rows = chain_rows if rows is None else _join(rows, chain_rows)
    assert rows is not None
    return BindingTable(pattern.variables(), rows)


def _is_table_conjunct(ctx: QueryContext, chain: Chain) -> bool:
    name = chain.source.name
    if chain.hops or name in ("_", "ANY"):
        return False
    if name in ctx.vertex_sets or name not in ctx.tables:
        return False
    schema = ctx.graph.schema
    if schema is not None and schema.has_vertex_type(name):
        return False
    return True


# ----------------------------------------------------------------------
# Construction helpers (used by the GSQL compiler and the Python API)
# ----------------------------------------------------------------------

def hop(
    darpe_text: str, target: str, target_var: Optional[str] = None, edge_var: Optional[str] = None
) -> Hop:
    """Build a hop from pattern text fragments."""
    compiled = CompiledDarpe(parse_darpe(darpe_text), darpe_text)
    return Hop(compiled, VertexSpec(target, target_var), edge_var)


def chain(source: str, source_var: Optional[str], *hops: Hop) -> Chain:
    return Chain(VertexSpec(source, source_var), list(hops))


__all__ = [
    "EngineMode",
    "VertexSpec",
    "Hop",
    "Chain",
    "Pattern",
    "BindingRow",
    "BindingTable",
    "evaluate_pattern",
    "evaluate_chain",
    "hop",
    "chain",
    "hidden_var",
]
