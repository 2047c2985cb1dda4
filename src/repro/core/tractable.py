"""Static certificates — Section 7's "tractable class" and its kin.

A query is in the tractable class when:

* it binds no path variables (the engine's AST cannot express them, so
  this holds by construction — recorded here for completeness);
* no vertex/edge variable is bound inside the scope of a Kleene star
  (enforced at pattern-construction time: edge variables require
  single-edge DARPEs);
* it uses no order-dependent accumulators (ListAccum, ArrayAccum,
  SumAccum<string>) — these would need one entry per *path*, defeating
  the compressed binding table.

The checks themselves are rules GSQL-W012 and GSQL-E013 in
:mod:`repro.analysis`; this module holds the certificate types the
analyses stamp on SELECT blocks (tractability, determinism, cost) and
the ``attach_*`` functions that stamp them — the parser calls all but
:func:`attach_cost_certificates`, whose first reader stamps.  The engine
additionally refuses at runtime the genuinely dangerous combination
(order-dependent accumulator fed from a Kleene pattern) — see
:meth:`repro.compile.lowering.CompiledBlock._check_tractability`.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Tuple

from .query import Query


class TractabilityStatus(enum.Enum):
    """Per-SELECT-block verdict of the flow-sensitive analysis."""

    TRACTABLE = "tractable"
    ENUMERATION_REQUIRED = "enumeration-required"
    UNKNOWN = "unknown"


class TractabilityCertificate(NamedTuple):
    """A static, per-block proof object for Section 7's tractable class.

    ``status`` says whether the block's Kleene-starred pattern (if any)
    feeds only order-invariant accumulators; ``witnesses`` are the
    human-readable facts the verdict rests on.  The planner trusts a
    TRACTABLE certificate to run the counting engine without probing
    declarations at runtime, and an ENUMERATION_REQUIRED one to switch
    the block to enumeration under ``EngineMode.auto()``.
    """

    status: TractabilityStatus
    witnesses: Tuple[str, ...]

    @property
    def tractable(self) -> bool:
        return self.status is TractabilityStatus.TRACTABLE

    def describe(self) -> str:
        body = "; ".join(self.witnesses) if self.witnesses else "no witnesses"
        return f"{self.status.value} ({body})"


class DeterminismStatus(enum.Enum):
    """Per-SELECT-block verdict of the effect/commutativity analysis."""

    COMMUTATIVE = "commutative"
    ORDER_DEPENDENT = "order-dependent"
    UNKNOWN = "unknown"


class DeterminismCertificate(NamedTuple):
    """A static, per-block proof object for update commutativity.

    Stamped next to the tractability certificate by the effect analysis
    (:mod:`repro.analysis.effects`): ``status`` says whether every
    ACCUM/POST_ACCUM update of the block commutes (so rows may be folded
    in any order, across partitions and threads), ``witnesses`` carry
    the per-accumulator algebra facts the verdict rests on, and
    ``delta_maintainable`` marks monotone read-free summaries — the
    precondition for incremental re-evaluation (ROADMAP item 4a).
    ``parallel_accum`` refuses to run without a COMMUTATIVE certificate
    (or a successful declaration probe), and AccSan replays certified
    blocks under permuted schedules to cross-check the stamp.
    """

    status: DeterminismStatus
    witnesses: Tuple[str, ...]
    delta_maintainable: bool = False

    @property
    def commutative(self) -> bool:
        return self.status is DeterminismStatus.COMMUTATIVE

    def describe(self) -> str:
        body = "; ".join(self.witnesses) if self.witnesses else "no witnesses"
        delta = ", delta-maintainable" if self.delta_maintainable else ""
        return f"{self.status.value}{delta} ({body})"


#: Upper bounds above this ceiling are clamped — they stay finite (and
#: JSON-serializable) but are read as "astronomically large".
COST_CAP = 10**30


class Interval(NamedTuple):
    """A closed integer interval ``[lo, hi]``; ``hi=None`` means +inf.

    The abstract domain of the cost analysis: every predicted quantity
    (frontier rows, product states, paths, ACCUM executions, accumulator
    bytes) is an interval guaranteed to bracket the runtime value.
    """

    lo: int = 0
    hi: Optional[int] = None

    @classmethod
    def exact(cls, n: int) -> "Interval":
        return cls(n, n)

    @classmethod
    def upto(cls, hi: Optional[int]) -> "Interval":
        return cls(0, None if hi is None else min(hi, COST_CAP))

    @property
    def bounded(self) -> bool:
        return self.hi is not None

    def add(self, other: "Interval") -> "Interval":
        hi = None if self.hi is None or other.hi is None else min(
            self.hi + other.hi, COST_CAP
        )
        return Interval(self.lo + other.lo, hi)

    def mul(self, other: "Interval") -> "Interval":
        hi = None if self.hi is None or other.hi is None else min(
            self.hi * other.hi, COST_CAP
        )
        return Interval(self.lo * other.lo, hi)

    def join(self, other: "Interval") -> "Interval":
        """Union hull: the smallest interval covering both."""
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(min(self.lo, other.lo), hi)

    def cap(self, ceiling: Optional[int]) -> "Interval":
        """Intersect the upper bound with another known bound."""
        if ceiling is None:
            return self
        hi = ceiling if self.hi is None else min(self.hi, ceiling)
        return Interval(min(self.lo, hi), hi)

    def contains(self, value: int) -> bool:
        return value >= self.lo and (self.hi is None or value <= self.hi)

    def describe(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return f"[{self.lo}, {hi}]"

    def to_list(self) -> List[Optional[int]]:
        return [self.lo, self.hi]


class CostConfidence(enum.Enum):
    """How much to trust a cost interval's upper bound.

    Ordered lattice: CLOSED_FORM > ESTIMATED > UNBOUNDED; combining
    certificates takes the weakest tier.
    """

    CLOSED_FORM = "closed-form"
    ESTIMATED = "estimated"
    UNBOUNDED = "unbounded"

    @property
    def rank(self) -> int:
        return {"closed-form": 2, "estimated": 1, "unbounded": 0}[self.value]

    def meet(self, other: "CostConfidence") -> "CostConfidence":
        return self if self.rank <= other.rank else other


class CostCertificate(NamedTuple):
    """The third proof object: predicted cardinality/cost.

    Stamped beside the tractability and determinism certificates by
    :mod:`repro.analysis.cost` — by its first reader, not the parser.
    Each field is an :class:`Interval`
    bracketing the corresponding runtime obs counter; ``confidence``
    says how the upper bounds were derived (closed form from a
    :class:`~repro.graph.stats.GraphStatsSnapshot`, heuristic estimate,
    or structurally unbounded), and ``witnesses`` record the facts each
    bound rests on.  Consumers: ``planner.select_engine`` (tie-breaks),
    ``ExecutionGovernor.from_certificate`` (auto-budgets), server
    admission (predicted-over-budget 422), ``repro check --cost`` and
    ``explain`` (COST lines).
    """

    confidence: CostConfidence
    frontier: Interval
    product_states: Interval
    paths: Interval
    acc_executions: Interval
    accum_bytes: Interval
    witnesses: Tuple[str, ...] = ()
    #: fingerprint of the stats snapshot the bounds were computed from
    #: (None = structural, no statistics).
    stats_fingerprint: Optional[str] = None

    def describe(self) -> str:
        body = "; ".join(self.witnesses) if self.witnesses else "no witnesses"
        return (
            f"{self.confidence.value}"
            f" frontier={self.frontier.describe()}"
            f" product-states={self.product_states.describe()}"
            f" paths={self.paths.describe()}"
            f" acc-executions={self.acc_executions.describe()}"
            f" accum-bytes={self.accum_bytes.describe()}"
            f" ({body})"
        )

    def to_dict(self) -> dict:
        return {
            "confidence": self.confidence.value,
            "frontier": self.frontier.to_list(),
            "product_states": self.product_states.to_list(),
            "paths": self.paths.to_list(),
            "acc_executions": self.acc_executions.to_list(),
            "accum_bytes": self.accum_bytes.to_list(),
            "witnesses": list(self.witnesses),
            "stats_fingerprint": self.stats_fingerprint,
        }


def certify_query(query: Query, schema=None) -> List[Tuple[object, TractabilityCertificate]]:
    """(block fact, certificate) pairs for every SELECT block of ``query``.

    Thin wrapper over :func:`repro.analysis.dataflow.block_certificates`
    (lazy import — core must not depend on analysis at import time).
    """
    from ..analysis.dataflow import block_certificates
    from ..analysis.model import cached_model

    return block_certificates(cached_model(query, schema))


def attach_certificates(query: Query, schema=None) -> None:
    """Stamp each SELECT block with its static certificate.

    Called by the GSQL parser after compilation, so by the time a query
    runs, :meth:`CompiledBlock._check_tractability` and the AUTO engine
    planner can read ``block.certificate`` instead of re-probing
    accumulator declarations on every execution.
    """
    for block_fact, cert in certify_query(query, schema):
        block_fact.block.certificate = cert


def attach_effect_certificates(query: Query, schema=None) -> None:
    """Stamp each SELECT block with its effect/commutativity certificate.

    Called by the GSQL parser after compilation, next to
    :func:`attach_certificates`; shares the cached analysis model and
    CFG, so the extra pass costs one walk over the block facts.  At
    runtime :func:`repro.core.parallel.parallel_accum` consults
    ``block.effect_certificate`` before agreeing to partition an ACCUM
    clause, and AccSan (:mod:`repro.accsan`) validates the stamp
    dynamically under permuted schedules.
    """
    from ..analysis.effects import analyze_effects
    from ..analysis.model import cached_model

    for block_fact, _summary, cert in analyze_effects(
        cached_model(query, schema)
    ).blocks:
        block_fact.block.effect_certificate = cert


def attach_cost_certificates(query: Query, schema=None, stats=None) -> None:
    """Stamp each SELECT block (and the query) with its cost certificate.

    The parser does not call this: no execution reads a cost bound, so
    the certificate is stamped by its first reader.  With ``stats=None``
    the stamp is purely structural (graph-dependent bounds stay open /
    UNBOUNDED) — what :func:`repro.obs.profile_query` and
    :meth:`repro.compile.CompiledQuery.cost_for` stamp when nothing has.
    Consumers that hold a :class:`~repro.graph.stats.GraphStatsSnapshot`
    — ``repro check --cost --graph``, ``repro run --auto-budget``, the
    worker's cost screen, the calibration harness — stamp concrete
    closed-form intervals; the analysis memoises per (model, stats
    fingerprint), so re-stamping with the same snapshot is free.
    """
    from ..analysis.cost import analyze_cost
    from ..analysis.model import cached_model

    result = analyze_cost(cached_model(query, schema), stats=stats)
    for block_fact, cert in result.blocks:
        block_fact.block.cost_certificate = cert
    query.cost_certificate = result.query_certificate


def attach_governor_caps(query: Query, schema=None) -> None:
    """Flag E033 (non-terminating WHILE) loops for governed execution.

    Instead of rejecting a query whose WHILE condition provably cannot
    change, the dataflow verdict is recorded on the loop itself
    (``While.governed_cap = True``): under ``EngineMode.auto()`` or a
    governed run the loop executes with a mandatory soft iteration cap
    (:data:`repro.core.query.GOVERNED_WHILE_CAP`) and stops with a
    warning instead of spinning to the hard ceiling.  Shares the cached
    analysis model with :func:`attach_certificates` so the parser pays
    for one dataflow pass, not two.
    """
    from ..analysis.dataflow import analyze_dataflow
    from ..analysis.model import cached_model

    for wf in analyze_dataflow(cached_model(query, schema)).nonterminating_whiles:
        wf.node.governed_cap = True


__all__ = [
    "TractabilityStatus",
    "TractabilityCertificate",
    "DeterminismStatus",
    "DeterminismCertificate",
    "Interval",
    "CostConfidence",
    "CostCertificate",
    "COST_CAP",
    "certify_query",
    "attach_certificates",
    "attach_effect_certificates",
    "attach_cost_certificates",
    "attach_governor_caps",
]
