"""Deterministic, seedable fault injection for chaos testing.

The engine's hot loops expose named *injection sites* at the same
points where the observability layer opens spans or batches counters
(``docs/robustness.md`` carries the catalog).  A test arms a
:class:`FaultPlan` with ``plan.inject(site, at=k)`` and activates it
with :class:`inject_faults`; the k-th time execution reaches that site
the plan fires — raising :class:`~repro.errors.InjectedFault`, or
(action ``"deadline"``) forcing the active governor's deadline into the
past so the query aborts through the *real* deadline path at exactly
iteration k.

Determinism is the whole point: the same plan against the same query
fires at the same place every run, so chaos tests can assert invariants
after the failure — no partial accumulator state leaked into the
context, scratch partials released, ``Query.run`` re-runnable.  For
randomized sweeps, ``at=None`` draws the hit index from a seeded RNG
(``FaultPlan(seed=...)``), which is still reproducible per seed.

Unlike the collector, governor and sanitizer — per-query state, bound
per context in :mod:`repro._exec` — the plan is *process-wide* on
purpose: one thread arms it and every thread fires it (the service's
dispatcher sites fire in client threads; a chaos test arms one plan
around a hundred of them).  It is a module-global binding (``_PLAN``):
sites guard every call with a single global load + None check, so an
inactive harness costs nothing measurable.  Because the binding is
shared, only one thread at a time may own the armed plan
(:class:`_Owner`).
"""

from __future__ import annotations

import random
import threading as _threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from .. import _exec
from ..errors import InjectedFault, ReentrantActivationError

#: The injection-site catalog: name -> where in the engine it fires.
#: Sites fire at existing obs span points; one hit is one pass through
#: the corresponding loop body / phase boundary.
SITES: Dict[str, str] = {
    "parallel.worker": (
        "entry of one parallel ACCUM Map worker (repro.core.parallel."
        "_run_partition); a hit is one partition"
    ),
    "block.accum_map": (
        "one acc-execution of a SELECT block's Map phase (repro.core."
        "block); a hit is one binding row"
    ),
    "block.reduce": (
        "immediately before a SELECT block's Reduce fold (InputBuffer."
        "flush); a hit is one block with an ACCUM clause"
    ),
    "block.post_accum": (
        "immediately before a SELECT block's POST_ACCUM phase; a hit is "
        "one block with a POST_ACCUM clause"
    ),
    "while.iteration": (
        "top of one WHILE-loop iteration (repro.core.query.While); a "
        "hit is one iteration"
    ),
    "sdmc.level": (
        "after one BFS level of the SDMC product traversal (repro."
        "paths.sdmc); a hit is one level"
    ),
    "enum.expand": (
        "one expanded search node of the enumeration engine (repro."
        "enumeration.engine._Budget.charge); a hit is one node"
    ),
    # -- service-layer sites (repro.server) ---------------------------
    # These fire in the *server* process (admission / dispatch / result
    # wait), never inside a worker, so they are deterministic under both
    # pool modes; the pool interprets the InjectedFault as the site's
    # failure mode (shed, expired deadline, worker kill, straggler).
    "server.admission": (
        "one admission decision of the query service (repro.server."
        "admission); armed, the request is shed as queue-full"
    ),
    "server.dispatch": (
        "one job dispatch, after a worker is acquired but before the "
        "job is sent (repro.server.pool); armed, the request's deadline "
        "is treated as already expired at dispatch"
    ),
    "server.worker.crash": (
        "one dispatched job (repro.server.pool); armed, the worker is "
        "killed mid-query — the real crash-detection/respawn path runs"
    ),
    "server.worker.stall": (
        "one dispatched job (repro.server.pool); armed, the worker is "
        "treated as a straggler — the dispatcher stops waiting, kills "
        "and replaces it, and drains its stale reply"
    ),
    # -- write-path sites (repro.graph.wal / repro.graph.mutation) -----
    # These model a crash at each stage of a batch commit.  Sites before
    # the WAL sync leave log and memory consistent (the batch simply
    # never happened — safe to retry); a fault after the sync leaves the
    # record durable but unpublished, so the store poisons itself and
    # recovery must replay the log.
    "mutation.apply": (
        "entry of one GraphStore.apply batch commit, before validation "
        "and before any WAL bytes (repro.graph.mutation); a hit is one "
        "batch — armed, the batch is lost cleanly and retryable"
    ),
    "wal.append": (
        "one WAL record append, before the framed bytes are written "
        "(repro.graph.wal); a hit is one record — armed, the log is "
        "byte-identical to before the batch"
    ),
    "wal.rotate": (
        "one WAL segment rotation, before the old segment is closed "
        "(repro.graph.wal); a hit is one rotation — armed, the current "
        "segment stays open and consistent"
    ),
    "wal.fsync": (
        "one WAL commit fsync (repro.graph.wal); a hit is one commit — "
        "armed, the just-appended record is rolled off the file tail, "
        "modelling the worst-case durability outcome of a crashed sync"
    ),
    "epoch.publish": (
        "the in-memory epoch publish, after the WAL sync and before the "
        "new graph version becomes live (repro.graph.mutation); a hit "
        "is one commit — armed, the store is poisoned until recovery "
        "replays the durable-but-unpublished record"
    ),
}

#: Actions an armed injection can perform when it fires.
ACTIONS = ("raise", "deadline")


class _Arm(NamedTuple):
    at: int
    action: str
    every: bool = False


class FiredFault(NamedTuple):
    """Record of one injection that fired (for post-mortem assertions)."""

    site: str
    hit: int
    action: str


class FaultPlan:
    """One deterministic chaos scenario: armed sites plus hit counters.

    The plan counts every hit of every site whether or not the site is
    armed, so a dry run (no injections) doubles as a site-coverage
    census: run the workload under an empty plan, read ``plan.hits``,
    then parametrize real injections over {0, 1, mid, last}.
    """

    def __init__(self, seed: Optional[int] = None):
        self._rng = random.Random(seed)
        self.seed = seed
        self.armed: Dict[str, _Arm] = {}
        self.hits: Dict[str, int] = {}
        self.fired: List[FiredFault] = []
        # The query service fires server.* sites from concurrent
        # dispatcher threads; hit counting must stay exact under that.
        self._hit_lock = _threading.Lock()

    def inject(
        self,
        site: str,
        at: Optional[int] = 0,
        action: str = "raise",
        horizon: int = 16,
        every: bool = False,
    ) -> "FaultPlan":
        """Arm ``site`` to fire on its ``at``-th hit (0-based).

        ``at=None`` draws the index from the plan's seeded RNG over
        ``[0, horizon)`` — deterministic per seed.  ``action`` is
        ``"raise"`` (raise :class:`InjectedFault`) or ``"deadline"``
        (expire the active governor's deadline, so the abort flows
        through the genuine deadline path).  ``every=True`` keeps
        firing on every hit from ``at`` onward — the repeated-fault
        knob the service retry tests use to prove attempt caps hold.
        Returns ``self`` for chaining.
        """
        if site not in SITES:
            raise ValueError(
                f"unknown injection site {site!r}; known sites: "
                f"{', '.join(sorted(SITES))}"
            )
        if action not in ACTIONS:
            raise ValueError(
                f"unknown action {action!r}; known actions: "
                f"{', '.join(ACTIONS)}"
            )
        if at is None:
            at = self._rng.randrange(horizon)
        self.armed[site] = _Arm(at, action, every)
        return self

    def hit_count(self, site: str) -> int:
        return self.hits.get(site, 0)

    # -- firing (called via the module-level :func:`fire`) -------------
    def _fire(self, site: str) -> None:
        with self._hit_lock:
            hit = self.hits.get(site, 0)
            self.hits[site] = hit + 1
            arm = self.armed.get(site)
            if arm is None or (hit < arm.at if arm.every else hit != arm.at):
                return
            self.fired.append(FiredFault(site, hit, arm.action))
        if arm.action == "deadline":
            gov = _exec.current().gov
            if gov is not None:
                gov.expire_deadline()
                gov.tick()  # aborts through the real deadline path
                return  # pragma: no cover - tick always raises here
        raise InjectedFault(
            f"injected fault at site {site!r} (hit {hit})", site=site, hit=hit
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(seed={self.seed}, armed={dict(self.armed)})"


#: The active fault plan, or None (the default: no chaos).  Sites guard
#: with ``if _PLAN is not None`` — the entire inactive cost.
_PLAN: Optional[FaultPlan] = None


class _Owner:
    """Which thread armed the live plan, and how deeply it has nested.

    The plan binding is process-wide, so a second thread activating a
    plan while the first one's is live would swap the armed sites out
    from under a running chaos scenario: that raises
    :class:`~repro.errors.ReentrantActivationError` instead.  The owning
    thread nests freely.
    """

    def __init__(self) -> None:
        self._lock = _threading.Lock()
        self.owner: Optional[int] = None
        self._depth = 0

    def acquire(self) -> None:
        me = _threading.get_ident()
        with self._lock:
            if self._depth > 0 and self.owner != me:
                raise ReentrantActivationError(
                    "governor.faults", self.owner or 0, me
                )
            self.owner = me
            self._depth += 1

    def release(self) -> None:
        with self._lock:
            if self._depth > 0:
                self._depth -= 1
            if self._depth == 0:
                self.owner = None

    def reset(self) -> None:
        with self._lock:
            self.owner = None
            self._depth = 0


#: Single-owner check on plan activation (firing is thread-safe and
#: unguarded).
_GUARD = _Owner()


def active() -> Optional[FaultPlan]:
    return _PLAN


def fire(site: str) -> None:
    """Count a hit at ``site`` and fire its injection if armed.

    Call sites pre-guard with ``if _faults._PLAN is not None`` so the
    inactive path never enters this function.
    """
    plan = _PLAN
    if plan is not None:
        plan._fire(site)


class inject_faults:
    """Context manager activating a fault plan for the dynamic extent.

    ::

        plan = FaultPlan().inject("while.iteration", at=3)
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                query.run(graph)

    Exception-safe and nestable (inner plan shadows the outer one).
    Activating from a different thread while a plan is live raises
    :class:`~repro.errors.ReentrantActivationError` — sites *fire* from
    any thread, but only one thread may own the armed plan.
    """

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan if plan is not None else FaultPlan()
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        global _PLAN
        _GUARD.acquire()
        self._previous = _PLAN
        _PLAN = self.plan
        return self.plan

    def __exit__(self, *exc_info: Any) -> None:
        global _PLAN
        _PLAN = self._previous
        _GUARD.release()


def disarm() -> None:
    """Forget the plan and its owner: a forked worker inherits both from
    a parent thread that does not exist in it."""
    global _PLAN
    _PLAN = None
    _GUARD.reset()


def catalog() -> List[Tuple[str, str]]:
    """The (site, description) catalog, sorted — docs and the golden
    tests (``tests/test_golden.py``) read this."""
    return sorted(SITES.items())


__all__ = [
    "SITES",
    "ACTIONS",
    "FaultPlan",
    "FiredFault",
    "fire",
    "active",
    "inject_faults",
    "disarm",
    "catalog",
]
