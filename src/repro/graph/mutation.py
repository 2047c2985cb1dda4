"""Durable, transactional graph mutation: batches, the store, recovery.

The write path has three layers:

:class:`MutationBatch`
    An ordered list of operation documents — ``upsert_vertex``,
    ``upsert_edge``, ``delete_vertex``, ``delete_edge`` — in the exact
    JSON shape the WAL records and the ``POST /ingest`` endpoint accept.

:class:`GraphStore`
    One mutable graph behind a commit protocol.  ``apply(batch)`` is
    atomic: the batch is validated by applying it to a private
    copy-on-write clone (a conflict anywhere rejects the whole batch
    with nothing applied and nothing logged), the WAL record is
    committed (fsync), and only then is the clone *published* as the new
    live graph under a bumped epoch.  Readers never observe a partial
    batch: :meth:`GraphStore.pin` freezes the epoch current at call time
    and the pinned :class:`Graph` object is immutable from then on —
    a later commit publishes a new version that shares every element
    its batch did not change and holds private copies of the few it
    did (:meth:`Graph.clone`), so a commit costs what it changes.  That
    is the snapshot-isolation contract the query service relies on (pin
    at admission, run the job against ``view(epoch)``).  The statistics
    a version carries (:func:`~repro.graph.stats.stats_snapshot`) are
    advanced from the batch on the way, after the record is durable and
    in a way that cannot fail the commit.

:func:`recover_graph`
    Crash recovery: scan the WAL (healing a torn tail), replay every
    record whose epoch the base graph has not yet absorbed, and return
    the reconstructed graph plus a :class:`RecoveryReport`.  Replay is
    deterministic — records were validated against the same pre-state
    before they were committed — so a record that no longer applies
    means the base graph and the log diverged, which raises
    :class:`~repro.errors.MutationError` loudly rather than guessing.

Crash semantics (chaos sites, :mod:`repro.governor.faults`): a fault at
``mutation.apply``, ``wal.append``, ``wal.rotate`` or ``wal.fsync``
strikes *before* the record is durable — log and memory both look as if
the batch never happened, so the caller may retry.  A fault at
``epoch.publish`` strikes after durability but before visibility: the
store poisons itself (every later ``apply`` raises
:class:`~repro.errors.MutationError`) until :func:`recover_graph`
replays the durable-but-unpublished record.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Union

from ..obs import count as _count
from ..errors import (
    GraphError,
    MutationConflictError,
    MutationError,
    ReproError,
)
from ..governor import faults as _faults
from .graph import Graph
from .schema import GraphSchema
from .stats import CarriedStats
from .wal import DEFAULT_SEGMENT_MAX_BYTES, WriteAheadLog, scan_wal

PathLike = Union[str, Path]

#: The operation kinds a batch may contain, in documentation order.
OP_KINDS = ("upsert_vertex", "upsert_edge", "delete_vertex", "delete_edge")

#: op kind -> required fields of its document (beyond "op").
_REQUIRED_FIELDS = {
    "upsert_vertex": ("id",),
    "upsert_edge": ("source", "target", "type"),
    "delete_vertex": ("id",),
    "delete_edge": ("source", "target", "type"),
}


class MutationBatch:
    """An ordered, JSON-serializable list of mutation operations.

    Build fluently (each method returns the batch)::

        batch = (MutationBatch()
                 .upsert_vertex("ada", "Person", born=1815)
                 .upsert_edge("ada", "charles", "Knows", since=1833)
                 .delete_vertex("byron"))

    or from parsed JSON documents with :meth:`from_ops`, which checks
    structure (known kinds, required fields) so malformed input fails
    before it reaches a graph.
    """

    def __init__(self) -> None:
        self.ops: List[Dict[str, Any]] = []

    # -- builders ------------------------------------------------------
    def upsert_vertex(
        self, vid: Any, vtype: Optional[str] = None, **attrs: Any
    ) -> "MutationBatch":
        op: Dict[str, Any] = {"op": "upsert_vertex", "id": vid}
        if vtype is not None:
            op["type"] = vtype
        if attrs:
            op["attrs"] = attrs
        self.ops.append(op)
        return self

    def upsert_edge(
        self,
        source: Any,
        target: Any,
        etype: str,
        directed: Optional[bool] = None,
        **attrs: Any,
    ) -> "MutationBatch":
        op: Dict[str, Any] = {
            "op": "upsert_edge",
            "source": source,
            "target": target,
            "type": etype,
        }
        if directed is not None:
            op["directed"] = directed
        if attrs:
            op["attrs"] = attrs
        self.ops.append(op)
        return self

    def delete_vertex(self, vid: Any) -> "MutationBatch":
        self.ops.append({"op": "delete_vertex", "id": vid})
        return self

    def delete_edge(self, source: Any, target: Any, etype: str) -> "MutationBatch":
        self.ops.append(
            {"op": "delete_edge", "source": source, "target": target, "type": etype}
        )
        return self

    # -- structure -----------------------------------------------------
    @classmethod
    def from_ops(cls, ops: Iterable[Any]) -> "MutationBatch":
        """Wrap already-parsed operation documents, checking structure.

        Raises ``ValueError`` (not a graph error — nothing has touched a
        graph yet) naming the first offending op, so CLIs and the ingest
        endpoint can report it as bad input.
        """
        batch = cls()
        for index, op in enumerate(ops):
            if not isinstance(op, dict):
                raise ValueError(f"op {index}: not an object ({type(op).__name__})")
            kind = op.get("op")
            if kind not in _REQUIRED_FIELDS:
                raise ValueError(
                    f"op {index}: unknown kind {kind!r} (expected one of "
                    f"{', '.join(OP_KINDS)})"
                )
            for field in _REQUIRED_FIELDS[kind]:
                if field not in op:
                    raise ValueError(f"op {index}: {kind} needs a {field!r} field")
            attrs = op.get("attrs", {})
            if not isinstance(attrs, dict):
                raise ValueError(f"op {index}: 'attrs' must be an object")
            batch.ops.append(dict(op))
        return batch

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MutationBatch({len(self.ops)} ops)"


def _apply_one(graph: Graph, op: Dict[str, Any]) -> None:
    kind = op["op"]
    if kind == "upsert_vertex":
        graph.upsert_vertex(op["id"], op.get("type"), **op.get("attrs", {}))
    elif kind == "upsert_edge":
        graph.upsert_edge(
            op["source"],
            op["target"],
            op["type"],
            directed=op.get("directed"),
            **op.get("attrs", {}),
        )
    elif kind == "delete_vertex":
        graph.delete_vertex(op["id"])
    elif kind == "delete_edge":
        matches = graph.find_edges(op["source"], op["target"], op["type"])
        if not matches:
            raise GraphError(
                f"no {op['type']!r} edge between {op['source']!r} and "
                f"{op['target']!r}"
            )
        for edge in matches:
            graph.delete_edge(edge.eid)
    else:  # pragma: no cover - from_ops rejects unknown kinds
        raise GraphError(f"unknown op kind {kind!r}")


def apply_ops(graph: Graph, ops: Iterable[Dict[str, Any]]) -> int:
    """Apply operation documents to ``graph`` in order.

    The first failing operation raises
    :class:`~repro.errors.MutationConflictError` carrying its index and
    document; earlier operations *have been applied* — callers wanting
    atomicity apply to a clone (what :meth:`GraphStore.apply` and
    :func:`validate_batch` do).  Returns the number of ops applied.
    """
    count = 0
    for index, op in enumerate(ops):
        try:
            _apply_one(graph, op)
        except MutationError:
            raise
        except ReproError as exc:
            raise MutationConflictError(
                f"op {index} ({op.get('op')}) conflicts: {exc}", index=index, op=op
            ) from exc
        count += 1
    return count


def validate_batch(graph: Graph, batch: Union[MutationBatch, Iterable[Dict[str, Any]]]) -> int:
    """Check that the whole batch would apply cleanly against ``graph``.

    Exact by construction: the ops run against a throwaway clone, so
    every conflict the real apply could hit — including cascades from
    ``delete_vertex`` interacting with later ops — is caught.  Raises
    :class:`~repro.errors.MutationConflictError` on the first conflict;
    ``graph`` itself is never touched.  Returns the op count.
    """
    ops = batch.ops if isinstance(batch, MutationBatch) else list(batch)
    return apply_ops(graph.clone(), ops)


def _carry_stats(base: Graph, new: Graph) -> None:
    """Hand the statistics ``base`` carries on to ``new``, the version
    a commit is about to publish over it, advanced by exactly what the
    batch changed (``new``'s ownership record names the ids; the
    elements are diffed base against new).  ``base`` keeps its
    immutable snapshot.  Runs after the WAL commit and must not fail
    it: counts that turn out not to describe ``base`` are dropped, and
    the next :func:`~repro.graph.stats.stats_snapshot` rebuilds them."""
    carried = base._stats
    if carried is None or carried.counts is None:
        return
    counts = carried.counts
    base._stats = carried._replace(counts=None)
    try:
        counts.advance(base, new, new._own.vertices, new._own.edges)
        new._stats = CarriedStats(counts.snapshot(), counts)
    except Exception:  # noqa: BLE001 - statistics never fail a commit
        new._stats = None
        _count("mutation.stats_dropped")


class CommitResult(NamedTuple):
    """What one :meth:`GraphStore.apply` commit produced."""

    epoch: int
    ops: int
    #: True when the commit was WAL-backed (False for an in-memory store).
    durable: bool


class Pin:
    """A reader's hold on one epoch's graph (snapshot isolation).

    Context manager::

        with store.pin() as pin:
            run_query(pin.graph)   # immutable — commits publish new versions

    ``release()`` (or context exit) drops the hold; the store frees the
    retained version once its last pin is gone.
    """

    def __init__(self, store: "GraphStore", epoch: int, graph: Graph):
        self._store = store
        self.epoch = epoch
        self.graph = graph
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._store._release(self.epoch)

    def __enter__(self) -> "Pin":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Pin(epoch={self.epoch}, released={self._released})"


class GraphStore:
    """One graph behind the durable commit protocol.

    ``wal=None`` gives an in-memory store with the same atomicity and
    snapshot isolation but no durability (used when serving without
    ``--wal-dir``).  Use :meth:`GraphStore.open` to recover-and-open a
    WAL directory in one step.

    Thread-safe: commits serialize on an internal lock; readers pin and
    traverse published (immutable) graph versions without locking.
    """

    def __init__(self, graph: Graph, wal: Optional[WriteAheadLog] = None):
        self._live = graph
        self._wal = wal
        self._lock = threading.Lock()
        self._pins: Dict[int, int] = {}
        self._versions: Dict[int, Graph] = {}
        self._failed: Optional[str] = None
        #: RecoveryReport when the store was built by :meth:`open`.
        self.recovery: Optional["RecoveryReport"] = None
        if wal is not None and graph.epoch < wal.last_epoch:
            raise MutationError(
                f"graph is at epoch {graph.epoch} but the WAL has committed "
                f"records up to epoch {wal.last_epoch}; run recover_graph "
                f"before opening the store"
            )

    @classmethod
    def open(
        cls,
        wal_dir: PathLike,
        base: Optional[Graph] = None,
        schema: Optional[GraphSchema] = None,
        name: Optional[str] = None,
        fsync: bool = True,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
    ) -> "GraphStore":
        """Recover whatever the WAL directory holds and open a store on
        it.  ``base`` seeds the graph the log is replayed over (e.g. a
        snapshot loaded from JSON); with no base, the graph is rebuilt
        from the log alone."""
        graph, report = recover_graph(wal_dir, base=base, schema=schema, name=name)
        wal = WriteAheadLog(
            wal_dir, segment_max_bytes=segment_max_bytes, fsync=fsync
        )
        store = cls(graph, wal=wal)
        store.recovery = report
        return store

    # -- reading -------------------------------------------------------
    @property
    def live(self) -> Graph:
        """The currently published graph version."""
        return self._live

    @property
    def epoch(self) -> int:
        return self._live.epoch

    @property
    def durable(self) -> bool:
        """True when commits are WAL-backed."""
        return self._wal is not None

    @property
    def poisoned(self) -> Optional[str]:
        """Why the store refuses writes (``None`` when healthy)."""
        return self._failed

    def pin(self) -> Pin:
        """Freeze the current epoch for a reader."""
        with self._lock:
            graph = self._live
            epoch = graph.epoch
            self._pins[epoch] = self._pins.get(epoch, 0) + 1
            self._versions.setdefault(epoch, graph)
            return Pin(self, epoch, graph)

    def view(self, epoch: Optional[int] = None) -> Graph:
        """The graph at ``epoch`` (must be live or pinned); ``None`` for
        the live version."""
        with self._lock:
            if epoch is None or epoch == self._live.epoch:
                return self._live
            graph = self._versions.get(epoch)
            if graph is None:
                raise MutationError(
                    f"epoch {epoch} is not retained (live epoch is "
                    f"{self._live.epoch}; pinned: {sorted(self._pins) or 'none'})"
                )
            return graph

    def _release(self, epoch: int) -> None:
        with self._lock:
            remaining = self._pins.get(epoch, 0) - 1
            if remaining > 0:
                self._pins[epoch] = remaining
                return
            self._pins.pop(epoch, None)
            if epoch != self._live.epoch:
                self._versions.pop(epoch, None)
            elif self._versions.get(epoch) is self._live:
                # The live version needs no retention entry once unpinned.
                self._versions.pop(epoch, None)

    # -- writing -------------------------------------------------------
    def apply(
        self, batch: Union[MutationBatch, Iterable[Dict[str, Any]]]
    ) -> CommitResult:
        """Commit one batch atomically; returns the published epoch.

        Raises :class:`~repro.errors.MutationConflictError` when any op
        conflicts (nothing applied, nothing logged) and
        :class:`~repro.errors.MutationError` when the store is poisoned
        by an earlier crash between WAL commit and publish.
        """
        ops = batch.ops if isinstance(batch, MutationBatch) else list(batch)
        with self._lock:
            if self._failed is not None:
                raise MutationError(
                    f"graph store requires recovery: {self._failed}"
                )
            if _faults._PLAN is not None:
                _faults.fire("mutation.apply")
            # Validate-by-applying on a private clone: a conflict leaves
            # the live graph and the WAL untouched, and a clean run IS
            # the next version — no second apply that could diverge.
            clone = self._live.clone()
            try:
                apply_ops(clone, ops)
            except MutationConflictError:
                _count("mutation.conflicts")
                raise
            new_epoch = (
                max(self._live.epoch, self._wal.last_epoch if self._wal else 0) + 1
            )
            clone.epoch = new_epoch
            if self._wal is not None:
                self._wal.commit({"epoch": new_epoch, "ops": ops})
            # The record is durable; from here, failure to publish must
            # poison the store (memory no longer reflects the log).
            try:
                if _faults._PLAN is not None:
                    _faults.fire("epoch.publish")
            except BaseException as exc:
                self._failed = (
                    f"crashed after WAL commit of epoch {new_epoch}, before "
                    f"publish ({exc})"
                )
                _count("mutation.poisoned")
                raise
            _carry_stats(self._live, clone)
            self._live = clone
            _count("mutation.batches")
            _count("mutation.ops", len(ops))
            _count("mutation.copied_elements", clone._own.copied)
            return CommitResult(
                epoch=new_epoch, ops=len(ops), durable=self._wal is not None
            )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "GraphStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GraphStore({self._live.name!r}, epoch={self._live.epoch}, "
            f"durable={self._wal is not None})"
        )


class RecoveryReport(NamedTuple):
    """What :func:`recover_graph` did."""

    #: WAL records replayed onto the graph.
    replayed: int
    #: Records skipped because the base graph already held their epoch.
    skipped: int
    #: Torn-tail bytes truncated from the final segment (0 when clean).
    truncated_bytes: int
    #: Why the tail was truncated (``None`` when clean).
    truncated_reason: Optional[str]
    #: The graph's epoch after replay.
    epoch: int
    #: Segment files scanned, oldest first.
    segments: List[str]


def recover_graph(
    wal_dir: PathLike,
    base: Optional[Graph] = None,
    schema: Optional[GraphSchema] = None,
    name: Optional[str] = None,
    heal: bool = True,
) -> "tuple[Graph, RecoveryReport]":
    """Rebuild the graph a WAL directory describes.

    Scans the log (healing a torn final-segment tail when ``heal`` is
    set; earlier damage raises
    :class:`~repro.errors.WalCorruptionError`), then replays onto
    ``base`` (or a fresh graph) every record whose epoch exceeds the
    base's — a base snapshot saved at epoch N absorbs only records
    N+1..  Deterministic: the same log over the same base always yields
    the same graph, which is what the kill-at-every-boundary chaos sweep
    asserts.
    """
    scan = scan_wal(wal_dir, heal=heal)
    graph = base if base is not None else Graph(schema=schema, name=name)
    replayed = 0
    skipped = 0
    for record in scan.records:
        epoch = record.get("epoch")
        ops = record.get("ops")
        if not isinstance(epoch, int) or not isinstance(ops, list):
            raise MutationError(
                f"malformed WAL record (epoch={epoch!r}): a checksummed "
                f"record must carry an integer epoch and an ops list"
            )
        if epoch <= graph.epoch:
            skipped += 1
            continue
        try:
            apply_ops(graph, ops)
        except MutationConflictError as exc:
            raise MutationError(
                f"WAL record for epoch {epoch} no longer replays against "
                f"the base graph (epoch {graph.epoch}): {exc}"
            ) from exc
        graph.epoch = epoch
        replayed += 1
    _count("mutation.recovered_records", replayed)
    return graph, RecoveryReport(
        replayed=replayed,
        skipped=skipped,
        truncated_bytes=scan.truncated_bytes,
        truncated_reason=scan.truncated_reason,
        epoch=graph.epoch,
        segments=scan.segments,
    )


__all__ = [
    "OP_KINDS",
    "MutationBatch",
    "apply_ops",
    "validate_batch",
    "CommitResult",
    "Pin",
    "GraphStore",
    "RecoveryReport",
    "recover_graph",
]
