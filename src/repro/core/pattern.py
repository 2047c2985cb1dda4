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
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .. import _exec
from ..darpe.ast import Symbol, contains_kleene
from ..darpe.automaton import CompiledDarpe
from ..darpe.parser import parse_darpe
from ..errors import QueryCompileError, QueryRuntimeError
from ..graph.elements import FORWARD, REVERSE, UNDIRECTED, Vertex
from ..paths.sdmc import sdmc_search
from ..paths.semantics import PathSemantics
from ..enumeration.engine import match_counts
from .context import QueryContext
from .exprs import _BINARY_OPS, EvalEnv, Scope

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

    #: The engine names ``repro run --engine`` and a service request's
    #: ``"engine"`` accept, resolved by :meth:`named`.
    NAMES = ("asp-enum", "auto", "counting", "nre", "nrv")

    @classmethod
    def named(cls, name: str) -> "EngineMode":
        """The mode one of :data:`NAMES` stands for; ``ValueError``
        for any other name."""
        if name == "counting":
            return cls.counting()
        if name == "auto":
            return cls.auto()
        semantics = {
            "nre": PathSemantics.NO_REPEATED_EDGE,
            "nrv": PathSemantics.NO_REPEATED_VERTEX,
            "asp-enum": PathSemantics.ALL_SHORTEST,
        }.get(name)
        if semantics is None:
            raise ValueError(
                f"unknown engine {name!r}; known: {', '.join(cls.NAMES)}"
            )
        return cls.enumeration(semantics)

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
            vtype, vset = self.restriction(ctx)
            if (vtype is None or pinned.type == vtype) and (
                vset is None or pinned in vset
            ):
                return [pinned]
            return []
        return list(self._candidates(ctx))

    def restriction(self, ctx: QueryContext) -> Tuple[Optional[str], Any]:
        """The position's vertex-set-or-type test with ``name`` resolved
        once, as ``(vertex type, vertex set)``: at most one is set, and
        neither for the wildcard (every vertex is admissible).  The pin
        is separate — see :meth:`_pinned_vertex`."""
        name = self.name
        if name in ("_", "ANY"):
            return None, None
        vset = ctx.vertex_sets.get(name)
        if vset is not None:
            return None, vset
        return name, None

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


#: One compressed binding-table row: the values bound to the table's
#: variables — one per slot, in ``BindingTable.variables`` order — plus the
#: count of legal paths witnessing them (Appendix A).
BindingRow = Tuple[Tuple[Any, ...], int]


class BindingTable:
    """The (compressed) match table of Section 4.1: ``variables`` names
    the slots, each row is ``(values, multiplicity)``.  ``multiplicity``
    is the rows' multiplicity sum when whoever built the table already
    took it (the matcher does, for its last hop's span)."""

    def __init__(
        self,
        variables: List[str],
        rows: List[BindingRow],
        multiplicity: Optional[int] = None,
    ):
        self.variables = variables
        self.rows = rows
        self._multiplicity = multiplicity

    def slot(self, name: str) -> int:
        """The position of variable ``name`` in every row's values."""
        return self.variables.index(name)

    def __len__(self) -> int:
        return len(self.rows)

    def total_multiplicity(self) -> int:
        """The conceptual (uncompressed) row count — may be astronomically
        large; this is the quantity Table 1's "path count" column reports."""
        if self._multiplicity is not None:
            return self._multiplicity
        return sum(multiplicity for _, multiplicity in self.rows)

    def __iter__(self):
        return iter(self.rows)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
# A hop runs as a two-stage kernel, like the ACCUM map kernel of
# ``repro.compile.lowering``: everything that cannot change while the hop
# executes — the pinned vertex, the vertex-set-or-type test, the
# pushed-down filters' closures and the one ``EvalEnv`` they run under
# (or, for tagged comparisons, their operands), the slots the hop reads
# and writes — is resolved once by the bind stage (``_admission``,
# ``_inline_admission``, ``_bind_filters``, ``_bind_slot``); the per-row
# loops then only read verdicts, decide first sights, and extend rows, or
# (``_extend_plain``) test each target inline in one pass.

def _bind_filters(
    ctx: QueryContext, var: str, filters: Optional[List[Any]]
) -> Optional[Callable[[Any], bool]]:
    """Bind stage of one variable's pushed-down filters: ``passes(value)``
    for a vertex, an edge or a relational-table row, or None when the
    variable has no filters.

    A pushed-down conjunct reads no other variable, so it is lowered
    under a scope whose only slot is ``var``: each filter's closure is
    taken once (lowered filters carry theirs prebuilt) and all of them
    run under one reused ``EvalEnv`` whose one-slot row is overwritten
    per call.

    When lowering tagged every conjunct as a comparison ``var.attr <op>
    operand`` (:func:`_bind_comparisons`), ``passes`` compares
    ``value.attrs[attr]`` with the bound operands inline.  Whatever that
    test cannot decide cleanly — a missing or None attribute, a
    ``TypeError``, a binding without ``attrs`` (a table row) — goes to the
    closures, from the first conjunct: they give the verdict, or raise
    the error, they would have given alone.
    """
    if not filters:
        return None
    scope = Scope((var,))
    fns = [f.closure(scope)[0] for f in filters]
    row = [None]
    env = EvalEnv(ctx, row)

    def run_closures(value: Any) -> bool:
        row[0] = value
        for fn in fns:
            if not fn(env):
                return False
        return True

    tests = _bind_comparisons(env, filters)
    if tests is None:
        return run_closures

    def passes(value: Any) -> bool:
        try:
            attrs = value.attrs
            for attr, compare, operand in tests:
                if not compare(attrs[attr], operand):
                    return False
            return True
        except (AttributeError, KeyError, TypeError):
            pass
        return run_closures(value)

    return passes


def _bind_comparisons(
    env: EvalEnv, filters: List[Any]
) -> Optional[List[Tuple[str, Callable[[Any, Any], Any], Any]]]:
    """``[(attr, operator, operand value)]`` for conjuncts all tagged
    ``compare = (attr, op, operand closure)`` by lowering
    (``repro.compile.lowering.lower_pushed_filter``), each operand
    resolved once the way its closure resolves it; None when a conjunct
    is untagged or an operand does not resolve to a plain int, float or
    str (None, bool and everything else keep the closures)."""
    tests = []
    for f in filters:
        tag = getattr(f, "compare", None)
        if tag is None:
            return None
        attr, op, operand_fn = tag
        try:
            operand = operand_fn(env)
        except QueryRuntimeError:
            return None
        if type(operand) not in (int, float, str):
            return None
        tests.append((attr, _BINARY_OPS[op], operand))
    return tests


def _admission(
    ctx: QueryContext, spec: VertexSpec, filters: Optional[List[Any]], lookup
) -> Tuple[Callable[[Any], Any], Any, Optional[str]]:
    """Bind stage of a vertex position's admission (``lookup`` resolves a
    vertex id): ``(resolve, admit, only_type)`` for the loop of
    :func:`_admitted`.  With no pin, vertex set or filter a memo would only
    miss: ``resolve`` is ``lookup``, ``only_type`` the one test.  Otherwise
    ``resolve`` reads a plain dict of verdicts (vertex, or False) and
    ``admit(vid, bucket)``, the one admission routine, decides every
    first-seen id of the bucket in its loop — type, pin, vertex set, bound
    comparisons on ``value.attrs``, then what they cannot decide cleanly by
    ``passes`` — and returns ``vid``'s.  A filter that raises stores no
    verdict and ends the walk; the caller meets its error at that vertex,
    after the per-element work (an edge filter) before it."""
    pin = spec._pinned_vertex(ctx)
    pinned = None if pin is None else pin.vid
    vtype, vset = spec.restriction(ctx)
    if not filters and pinned is None and vset is None:
        return lookup, None, vtype
    passes = _bind_filters(ctx, spec.var, filters)
    tests = filters and _bind_comparisons(EvalEnv(ctx, [None]), filters)
    verdicts: Dict[Any, Any] = {}
    seen = verdicts.get
    raised: List[Exception] = []  # the error that ended a walk

    def admit(first: Any, ids: Iterable[Any]) -> Any:
        for vid in () if raised else ids:
            if seen(vid) is not None:
                continue
            value = lookup(vid)
            if (
                (vtype is not None and value.type != vtype)
                or (pinned is not None and vid != pinned)
                or (vset is not None and value not in vset)
            ):
                value = False
            elif passes is not None:
                decided = False
                if tests is not None:
                    try:
                        attrs = value.attrs
                        for attr, compare, operand in tests:
                            if not compare(attrs[attr], operand):
                                value = False
                                break
                        decided = True
                    except (AttributeError, KeyError, TypeError):
                        pass
                if not decided:
                    try:
                        if not passes(value):
                            value = False
                    except Exception as exc:
                        raised.append(exc)
                        break
            verdicts[vid] = value
        verdict = seen(first)
        if verdict is None:
            raise raised[0]
        return verdict

    return seen, admit, None


def _admitted(ids: Iterable[Any], resolve, admit, only_type) -> List[Vertex]:
    """The admissible vertices among ``ids``, in order (hops inline this)."""
    out = []
    for vid in ids:
        target = resolve(vid)
        if target is None:
            target = admit(vid, ids)
        if target is not False and (only_type is None or target.type == only_type):
            out.append(target)
    return out


def _inline_admission(
    ctx: QueryContext, spec: VertexSpec, filters: Optional[List[Any]]
) -> Optional[Tuple[Optional[str], List[Tuple[str, Callable[[Any, Any], Any], Any]]]]:
    """``(vertex type, bound comparisons)`` when a target position's
    admission is the type test plus :func:`_bind_comparisons`' tests
    alone — no pin, no vertex set, no filter they leave untagged — else
    None."""
    if spec._pinned_vertex(ctx) is not None:
        return None
    vtype, vset = spec.restriction(ctx)
    if vset is not None:
        return None
    if not filters:
        return vtype, []
    tests = _bind_comparisons(EvalEnv(ctx, [None]), filters)
    return None if tests is None else (vtype, tests)


def _targets_repeat(crossed: List[Tuple[BindingRow, Any]]) -> bool:
    """Whether the buckets a hop crosses repeat a target id within their
    first :data:`_REPEAT_WINDOW` incidences (a bucket at a time), which
    is where a verdict memo that pays for itself starts hitting: targets
    shared widely — a country per comment, a tag per post — repeat
    within a few buckets, and a hop whose first few dozen targets are
    all distinct would seldom hit.  Reading every bucket would cost a
    to-one hop as much as the memo it avoids."""
    seen: set = set()
    for _, bucket in crossed:
        if bucket is not None:
            ids = bucket[0]
            before = len(seen)
            seen.update(ids)
            if len(seen) - before != len(ids):
                return True
            if len(seen) >= _REPEAT_WINDOW:
                break
    return False


#: How many of a hop's first target incidences :func:`_targets_repeat`
#: reads.
_REPEAT_WINDOW = 64


def _extend_plain(
    crossed: List[Tuple[BindingRow, Any]],
    lookup: Callable[[Any], Vertex],
    vtype: Optional[str],
    tests: List[Tuple[str, Callable[[Any, Any], Any], Any]],
    prefilter: Optional[Callable[[Any], bool]],
    allowed: Optional[set],
) -> List[BindingRow]:
    """The rows a plain adjacency hop (no edge variable, no join, no pair
    semi-join) extends its ``(row, bucket)`` pairs to, in one pass: each
    target is tested inline — the type, the bound comparisons on its
    ``attrs``, then the semi-join's ``allowed`` ids — as the memoised
    loop decides it.  A target the comparisons cannot decide cleanly
    raises ``AttributeError``, ``KeyError`` or ``TypeError`` out of the
    pass; the caller then reruns the hop through :func:`_admission`."""
    if not tests:
        return [
            (values + (t,), multiplicity)
            for (values, multiplicity), bucket in crossed if bucket is not None
            for t in map(
                lookup, bucket[0] if prefilter is None else filter(prefilter, bucket[0])
            )
            if (vtype is None or t.type == vtype)
            and (allowed is None or t.vid in allowed)
        ]
    if len(tests) == 1:
        ((attr, compare, operand),) = tests
        return [
            (values + (t,), multiplicity)
            for (values, multiplicity), bucket in crossed if bucket is not None
            for t in map(lookup, bucket[0])
            if (vtype is None or t.type == vtype)
            and compare(t.attrs[attr], operand)
            and (allowed is None or t.vid in allowed)
        ]

    def passes(attrs: Dict[str, Any]) -> bool:
        for attr, compare, operand in tests:
            if not compare(attrs[attr], operand):
                return False
        return True

    return [
        (values + (t,), multiplicity)
        for (values, multiplicity), bucket in crossed if bucket is not None
        for t in map(lookup, bucket[0])
        if (vtype is None or t.type == vtype)
        and passes(t.attrs)
        and (allowed is None or t.vid in allowed)
    ]


def _hop_counts(
    graph, source_vid: Any, hop: Hop, mode: EngineMode, reverse: bool = False
) -> Dict[Any, int]:
    """target vid -> multiplicity for one (source vertex, hop).

    With ``reverse=True``, ``source_vid`` is the hop's *target* and the
    reversed DARPE is matched, so the returned keys are hop sources.
    """
    darpe = hop.reversed_darpe if reverse else hop.darpe
    if mode.kind == EngineMode.COUNTING:
        _, counts = sdmc_search(graph, source_vid, darpe, max_length=mode.max_length)
        if mode.semantics is PathSemantics.EXISTENCE:
            # SparQL 1.1: reachability with multiplicity 1 (Section 6.1's
            # "tractable but aggregation-unfriendly" flavor).
            return dict.fromkeys(counts, 1)
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
) -> BindingTable:
    """The chain's binding table, laid out over its distinct variables in
    order of first appearance."""
    graph = ctx.graph
    var_filters = var_filters or {}
    col = _exec.current().col
    current_var = chain.source.var
    passes = _bind_filters(ctx, current_var, var_filters.get(current_var))
    rows: List[BindingRow] = [
        ((v,), 1)
        for v in chain.source.seed(ctx)
        if passes is None or passes(v)
    ]
    layout = [current_var]
    multiplicity = None
    if col is not None:
        # Seed width after pushdown: the Qn query of Section 7.1 seeds
        # from 1 vertex instead of all 91 thanks to the planner.
        col.count("pattern.seed_vertices", len(rows))
    for k, hop in enumerate(chain.hops, 1):
        far_hop = _semijoin_hop(chain.hops, k, var_filters)
        if col is not None:
            hop_span = col.span(
                "hop",
                label=f"hop -({hop.darpe.text})- {hop.target!r}",
                rows_in=len(rows),
            )
        try:
            new_rows, plan, pruned = _evaluate_hop(
                ctx, graph, hop, rows, mode, var_filters, layout, current_var, col,
                far_hop,
            )
        finally:
            if col is not None:
                col.close(hop_span)
        if col is not None:
            multiplicity = sum([m for _, m in new_rows])
            hop_span.set(
                plan=plan, rows_out=len(new_rows), multiplicity_out=multiplicity
            )
            if pruned:
                hop_span.set(semijoin=far_hop.target.var)
        rows = new_rows
        current_var = hop.target.var
    return BindingTable(layout, rows, multiplicity)


def _bind_slot(layout: List[str], var: str) -> Optional[int]:
    """The slot ``layout`` already binds ``var`` in, or None after giving
    it the next one (the caller then appends its value to each row)."""
    if var in layout:
        return layout.index(var)
    layout.append(var)
    return None


def _evaluate_hop(
    ctx: QueryContext,
    graph,
    hop: Hop,
    rows: List[BindingRow],
    mode: EngineMode,
    var_filters: Dict[str, List[Any]],
    layout: List[str],
    current_var: str,
    col,
    far_hop: Optional[Hop] = None,
) -> Tuple[List[BindingRow], str, bool]:
    """Expand one hop over rows laid out as ``layout`` (advanced in
    place); returns (new rows, plan label for observability, whether a
    semi-join toward ``far_hop`` pruned them).

    Every plan extends a row the same way: a new variable's value is
    appended to the row's values (edge before target,
    ``Chain.variables()`` order), and a target variable the row already
    binds acts as a join condition — the new binding must be that same
    vertex, in the slot it already has, or the extension is dropped.

    An adjacency hop followed by the adjacency hop ``far_hop`` keeps
    only the rows ``far_hop`` extends (:func:`_semijoin`): the dropped
    rows are exactly those it would extend to nothing, so the rows after
    ``far_hop`` — their order, multiplicities and errors — are the same.
    """
    new_rows: List[BindingRow] = []
    append = new_rows.append
    target_var = hop.target.var
    current = layout.index(current_var)
    if hop.is_single_symbol:
        # One-edge hops read the adjacency column(s) of their symbol
        # directly and can bind an edge variable.
        plan = "adjacency"
        symbol = hop.darpe.ast
        filters = var_filters.get(target_var)
        lookup = graph.vertex_getter()
        edge_of = graph.edge
        edge_var = hop.edge_var
        # Edges are per-row bindings: their filters run per crossing.
        edge_passes = (
            _bind_filters(ctx, edge_var, var_filters.get(edge_var))
            if edge_var is not None
            else None
        )
        # An edge variable some earlier hop bound is re-bound in place.
        rebound = _bind_slot(layout, edge_var) if edge_var is not None else None
        joined = _bind_slot(layout, target_var)
        allowed = far = None
        if far_hop is not None:
            semijoin = _semijoin(ctx, graph, far_hop, len(rows), var_filters, layout)
            if semijoin is not None:
                allowed, far = semijoin
                if col is not None:
                    col.count("planner.hops_semijoin")
        plain = edge_var is None and joined is None and far is None
        prefilter = None
        if plain and allowed is not None and not filters:
            # No filter can raise on a target: drop a bucket's pruned
            # neighbours before admission meets them.
            prefilter, allowed = allowed.__contains__, None
        pruned = allowed is not None or prefilter is not None
        by_type = graph.columns(symbol.direction)
        if symbol.edge_type is None:  # the wildcard: every column, per row
            columns = list(by_type.values())
            crossed = [(row, c.get(row[0][current].vid)) for row in rows for c in columns]
        else:  # the symbol's one column
            get = by_type.get(symbol.edge_type, {}).get
            crossed = zip(rows, map(get, [values[current].vid for values, _ in rows]))
        inline = _inline_admission(ctx, hop.target, filters) if plain else None
        if inline is not None:
            crossed = [*crossed]  # a fallback crosses the buckets again
            if not inline[1] or not _targets_repeat(crossed):
                # Targets do not repeat (or admission has no verdict
                # worth keeping): test each inline, memoise nothing.
                try:
                    return (
                        _extend_plain(crossed, lookup, *inline, prefilter, allowed),
                        plan, pruned,
                    )
                except (AttributeError, KeyError, TypeError):
                    pass  # the memoised loop meets the same error at the same target
        resolve, admit, only_type = _admission(ctx, hop.target, filters, lookup)
        for (values, multiplicity), bucket in crossed:
            if bucket is None:
                continue
            neighbors, eids = bucket
            if plain:
                if prefilter is not None:
                    neighbors = [*filter(prefilter, neighbors)]
                for vid in neighbors:
                    target = resolve(vid)
                    if target is None:
                        target = admit(vid, neighbors)
                    if target is not False and (
                        only_type is None or target.type == only_type
                    ) and (allowed is None or vid in allowed):
                        append((values + (target,), multiplicity))
                continue
            for vid, eid in zip(neighbors, eids):
                target = resolve(vid)
                if target is None:
                    target = admit(vid, neighbors)
                if target is False or (
                    only_type is not None and target.type != only_type
                ):
                    continue
                if edge_var is not None:
                    edge = edge_of(eid)
                    if edge_passes is not None and not edge_passes(edge):
                        continue
                if joined is not None and values[joined].vid != target.vid:
                    continue
                if allowed is not None and (
                    vid if far is None
                    else (vid, values[far].vid if far < len(values) else vid)
                ) not in allowed:
                    continue
                extended = values
                if rebound is not None:
                    extended = values[:rebound] + (edge,) + values[rebound + 1:]
                elif edge_var is not None:
                    extended += (edge,)
                if joined is None:
                    extended += (target,)
                append((extended, multiplicity))
        return new_rows, plan, pruned

    reverse_targets = _reverse_targets(
        ctx, hop, rows, mode, var_filters, current
    )
    joined = _bind_slot(layout, target_var)
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
        for values, multiplicity in rows:
            source_vid = values[current].vid
            for target, counts in counts_by_target:
                mult = counts.get(source_vid, 0)
                if not mult:
                    continue
                if joined is None:
                    append((values + (target,), multiplicity * mult))
                elif values[joined].vid == target.vid:
                    append((values, multiplicity * mult))
        return new_rows, plan, False

    # Forward expansion; the per-source result — already restricted to
    # admissible targets — is cached since many rows share a source.
    plan = "sdmc-counting" if mode.kind == EngineMode.COUNTING else "enumeration"
    if col is not None:
        col.count("planner.hops_forward")
    resolve, admit, only_type = _admission(
        ctx, hop.target, var_filters.get(target_var), graph.vertex_getter()
    )
    cache: Dict[Any, List[Tuple[Vertex, int]]] = {}
    for values, multiplicity in rows:
        source_vid = values[current].vid
        admitted = cache.get(source_vid)
        if admitted is None:
            counts = _hop_counts(graph, source_vid, hop, mode)
            admitted = cache[source_vid] = [
                (target, counts[target.vid])
                for target in _admitted(counts, resolve, admit, only_type)
            ]
        for target, mult in admitted:
            if joined is None:
                append((values + (target,), multiplicity * mult))
            elif values[joined].vid == target.vid:
                append((values, multiplicity * mult))
    return new_rows, plan, False


def _semijoin_hop(
    hops: List[Hop], k: int, var_filters: Dict[str, List[Any]]
) -> Optional[Hop]:
    """``hops[k]`` when a semi-join may prune adjacency hop ``hops[k - 1]``
    toward it: it is an adjacency hop too, its far end a vertex variable
    (not one the chain binds to an edge) and its edge, if it binds one,
    unfiltered.  Whether the far end is selective is :func:`_semijoin`'s
    to decide, per execution."""
    if k >= len(hops) or not hops[k - 1].is_single_symbol:
        return None
    far_hop = hops[k]
    if not far_hop.is_single_symbol or far_hop.target.var in {h.edge_var for h in hops}:
        return None
    if far_hop.edge_var is not None and var_filters.get(far_hop.edge_var):
        return None
    return far_hop


def _semijoin(
    ctx: QueryContext,
    graph,
    hop: Hop,
    rows_in: int,
    var_filters: Dict[str, List[Any]],
    layout: List[str],
) -> Optional[Tuple[set, Optional[int]]]:
    """Bind stage of the semi-join that prunes the adjacency hop before
    ``hop``, an adjacency hop itself, to the rows ``hop`` extends:
    ``(allowed, far)``, or None when it does not apply.

    It applies to a :func:`_semijoin_hop` whose far end is selective —
    pinned, a vertex set, or filtered by conjuncts that are all bound
    comparisons (:func:`_bind_comparisons`) — with no more candidates
    (1, the set's size, or the type's vertex count) than the ``rows_in``
    rows entering the pruned hop.  Each candidate is admitted once, as
    ``_admission`` would (restriction, then the inline comparisons); a
    candidate they cannot decide cleanly abandons the semi-join, so the
    forward plan meets that vertex as before.  No closure runs and no
    statistic is read.

    ``allowed`` holds the neighbours of the admitted far ends over
    ``hop``'s reversed column(s): the targets ``hop`` can extend.  When
    ``layout`` already binds the far-end variable (slot ``far``), the
    extension must reach that vertex, so ``allowed`` holds
    ``(target id, far-end id)`` pairs instead.
    """
    spec = hop.target
    filters = var_filters.get(spec.var)
    pin = spec._pinned_vertex(ctx)
    vtype, vset = spec.restriction(ctx)
    if pin is not None:
        candidates, count = (pin,), 1
    elif vset is not None:
        candidates, count = vset, len(vset)
    elif filters:
        candidates, count = graph.vertices(vtype), graph.count_vertices(vtype)
    else:
        return None
    if not rows_in or count > rows_in:
        return None
    tests = _bind_comparisons(EvalEnv(ctx, [None]), filters) if filters else ()
    if tests is None:
        return None
    lookup = graph.vertex_getter()
    admitted = []
    for candidate in candidates:
        vid = candidate.vid
        if not graph.has_vertex(vid):
            continue
        value = lookup(vid)  # this version's vertex, as admission reads it
        if (vtype is not None and value.type != vtype) or (
            vset is not None and value not in vset
        ):
            continue
        try:
            attrs = value.attrs
            for attr, compare, operand in tests:
                if not compare(attrs[attr], operand):
                    break
            else:
                admitted.append(vid)
        except (AttributeError, KeyError, TypeError):
            return None
    symbol = hop.darpe.ast
    by_type = graph.columns(_REVERSED[symbol.direction])
    if symbol.edge_type is None:
        columns = list(by_type.values())
    else:
        columns = [by_type.get(symbol.edge_type, {})]
    far = layout.index(spec.var) if spec.var in layout else None
    allowed: set = set()
    for vid in admitted:
        for column in columns:
            bucket = column.get(vid)
            if bucket is None:
                continue
            if far is None:
                allowed.update(bucket[0])
            else:
                allowed.update([(target, vid) for target in bucket[0]])
    return allowed, far


#: The direction a symbol's adjacency is read back in.
_REVERSED = {FORWARD: REVERSE, REVERSE: FORWARD, UNDIRECTED: UNDIRECTED}


def _reverse_targets(
    ctx: QueryContext,
    hop: Hop,
    rows: List[BindingRow],
    mode: EngineMode,
    var_filters: Dict[str, List[Any]],
    current: int,
) -> Optional[List[Vertex]]:
    """Decide whether to evaluate a multi-edge hop from the target side
    (``current``: the slot holding each row's hop source).

    Applies when the hop's target variable carries pushed-down filters
    that pin it to at most as many vertices as there are distinct hop
    sources.  Counting-engine hops stay forward (the BFS is cheap and the
    per-source cache already amortizes); enumeration hops reverse, which
    is what bounds the Table 1 enumeration cost by 2^n instead of 2^30.
    """
    if mode.kind != EngineMode.ENUMERATION:
        return None
    filters = var_filters.get(hop.target.var)
    if not filters or not rows:
        return None
    admission = _admission(ctx, hop.target, filters, ctx.graph.vertex_getter())
    targets = _admitted([v.vid for v in hop.target.seed(ctx)], *admission)
    distinct_sources = {values[current].vid for values, _ in rows}
    if len(targets) <= len(distinct_sources):
        return targets
    return None


def _join(left: BindingTable, right: BindingTable) -> BindingTable:
    """Natural join of two chains' tables on their shared variables,
    multiplying multiplicities; laid out as the left variables followed
    by the right-only ones."""
    left_vars, right_vars = left.variables, right.variables
    added = [i for i, name in enumerate(right_vars) if name not in left_vars]
    variables = left_vars + [right_vars[i] for i in added]
    if not left.rows or not right.rows:
        return BindingTable(variables, [])
    shared = sorted(set(left_vars) & set(right_vars))
    left_key = [left_vars.index(name) for name in shared]
    right_key = [right_vars.index(name) for name in shared]

    buckets: Dict[Tuple, List[BindingRow]] = {}
    for values, multiplicity in right.rows:
        key = tuple([_join_key(values[i]) for i in right_key])
        extra = tuple([values[i] for i in added])
        buckets.setdefault(key, []).append((extra, multiplicity))
    out: List[BindingRow] = []
    for values, multiplicity in left.rows:
        key = tuple([_join_key(values[i]) for i in left_key])
        for extra, right_multiplicity in buckets.get(key, ()):
            out.append((values + extra, multiplicity * right_multiplicity))
    return BindingTable(variables, out)


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
    """Evaluate a FROM-clause pattern to its compressed binding table,
    laid out over ``pattern.variables()``.

    ``var_filters`` maps pattern variables to pushed-down single-variable
    WHERE conjuncts (see :mod:`repro.core.planner`); they are applied as
    each variable is bound.
    """
    table: Optional[BindingTable] = None
    filters = var_filters or {}
    for chain in pattern.chains:
        if not isinstance(chain, TableSource) and _is_table_conjunct(ctx, chain):
            # A hop-free conjunct naming a registered relational table
            # (and not a vertex set/type) scans that table — the paper's
            # Figure 1 "Employee" conjunct.
            chain = TableSource(chain.source.name, chain.source.var)
        if isinstance(chain, TableSource):
            passes = _bind_filters(ctx, chain.var, filters.get(chain.var))
            matched = BindingTable(
                [chain.var],
                [
                    ((row,), 1)
                    for row in chain.rows(ctx)
                    if passes is None or passes(row)
                ],
            )
        else:
            matched = evaluate_chain(ctx, chain, mode, filters)
        table = matched if table is None else _join(table, matched)
    assert table is not None
    return table


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
