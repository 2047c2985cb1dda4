"""AccSan — the opt-in accumulator-schedule sanitizer.

The effect analysis (:mod:`repro.analysis.effects`) stamps every SELECT
block with a :class:`~repro.core.tractable.DeterminismCertificate`; this
module is the *dynamic* cross-examination of that stamp.  When a
sanitizer is active, the engine records one event per accumulator write
(site, target, op, value digest) and, at each Reduce phase, replays the
block's buffered inputs under ``K`` deterministically-permuted schedules
into scratch copies of the accumulators:

* a block certified COMMUTATIVE must produce bit-identical value digests
  under every permutation — a divergence raises
  :class:`~repro.errors.AccSanViolation` (the certificate is wrong);
* a block certified ORDER_DEPENDENT (or uncertified) is *expected* to
  diverge — divergences are recorded as detections, confirming the
  static verdict dynamically.

The same check covers the parallel Reduce: ``parallel_accum`` hands the
sanitizer its per-partition partials, and merge order is permuted the
same way.

The hook follows :mod:`repro.obs.metrics`: the active sanitizer is the
``san`` field of the calling context's :class:`repro._exec.ExecCtx`,
read once per block phase when the kernel binds its row functions —
with no sanitizer a write goes straight to the sink, so a disabled
sanitizer costs nothing per write (``tests/test_accsan.py`` asserts
that the write tail is then the sink's own method).

Usage::

    from repro import accsan

    with accsan.sanitize(schedules=8) as san:
        run_query(query, graph)
    print(san.report())
"""

from __future__ import annotations

import contextlib
import copy
import random
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import _exec
from .accum.algebra import digest_value
from .errors import AccSanViolation
from .obs import count as _count


class AccSanEvent(NamedTuple):
    """One recorded accumulator write."""

    site: str  # "accum" | "post_accum" | "parallel"
    target: str  # "@@name" or "v.@name" (the statement's spelling)
    accum: str  # accumulator type name
    op: str  # "+=" or "="
    digest: str  # canonical digest of the written value


class AccSanDetection(NamedTuple):
    """One *expected* divergence: an uncertified/order-dependent block
    whose replay produced schedule-dependent results."""

    block_label: str
    accumulator: str
    schedule: int
    expected_digest: str
    observed_digest: str
    status: str  # certificate status at the site, or "uncertified"


class Sanitizer:
    """Recording + replay state for one sanitized run.

    ``schedules`` is K, the number of permuted replays per Reduce phase;
    ``seed`` makes the permutations deterministic, so a detected
    divergence reproduces exactly.
    """

    def __init__(self, schedules: int = 8, seed: int = 0xACC5):
        if schedules < 1:
            raise ValueError("AccSan needs at least one permuted schedule")
        self.schedules = schedules
        self.seed = seed
        self.events: List[AccSanEvent] = []
        self.detections: List[AccSanDetection] = []
        #: Number of (accumulator, Reduce-phase) pairs whose permuted
        #: replays all agreed — the dynamic confirmations of COMMUTATIVE.
        self.verified = 0
        #: Accumulators whose pre-state could not be cloned for replay.
        self.unreplayable = 0
        # id(acc) -> (spelled target, accumulator type name); rebuilt as
        # events stream in, consumed by check_flush to label findings.
        self._names: Dict[int, Tuple[str, str]] = {}

    # -- recording -----------------------------------------------------
    def record(
        self, site: str, target: Any, acc: Any, op: str, value: Any
    ) -> None:
        """Record one accumulator write (called from the Map phase)."""
        spelled = repr(target)
        type_name = getattr(type(acc), "type_name", type(acc).__name__)
        self._names[id(acc)] = (spelled, type_name)
        self.events.append(
            AccSanEvent(site, spelled, type_name, op, digest_value(value))
        )
        _count("accsan.events")

    # -- replay --------------------------------------------------------
    def check_flush(self, block: Any, buffer: Any) -> None:
        """Replay a Reduce phase's buffered inputs under permuted
        schedules, immediately before the real flush.

        ``block`` may be None (POST_ACCUM and programmatic callers):
        divergences are then recorded as detections, never violations,
        since there is no certificate to contradict.
        """
        adds: List[Tuple[Any, Any, int]] = list(buffer._adds)
        sets: List[Tuple[Any, Any]] = list(buffer._sets)
        if not adds and not sets:
            return
        cert = getattr(block, "effect_certificate", None) if block else None
        label = self._block_label(block)
        self._check_sets(sets, cert, label)
        groups: Dict[int, Tuple[Any, List[Tuple[Any, int]]]] = {}
        order: List[int] = []
        for acc, value, multiplicity in adds:
            key = id(acc)
            if key not in groups:
                groups[key] = (acc, [])
                order.append(key)
            groups[key][1].append((value, multiplicity))
        for position, key in enumerate(order):
            acc, inputs = groups[key]
            if len(inputs) < 2:
                continue  # every permutation is the identity
            self._check_replay(key, acc, inputs, cert, label, position)

    def check_merge(
        self, name: str, live: Any, partials: List[Any], cert: Any, label: str
    ) -> None:
        """Permute the parallel Reduce's partition merge order.

        ``partials`` are one worker partial accumulator per partition,
        in partition-index order; ``live`` is the context accumulator
        they are about to be merged into (cloned, never touched).
        """
        if len(partials) < 2:
            return
        type_name = getattr(type(live), "type_name", type(live).__name__)
        self._names[id(live)] = (name, type_name)
        base_clone = self._clone(live)
        if base_clone is None:
            return
        for partial in partials:
            base_clone.merge(partial)
        base = digest_value(base_clone.value)
        rng = random.Random(self.seed)
        for schedule in range(self.schedules):
            clone = self._clone(live)
            if clone is None:
                return
            permuted = list(partials)
            rng.shuffle(permuted)
            for partial in permuted:
                clone.merge(partial)
            observed = digest_value(clone.value)
            if observed != base:
                self._diverged(
                    id(live), live, cert, label, schedule, base, observed,
                    site="parallel merge",
                )
                return
        self.verified += 1
        _count("accsan.verified")

    # -- internals -----------------------------------------------------
    def _check_replay(
        self, key: int, acc: Any, inputs: List[Tuple[Any, int]],
        cert: Any, label: str, position: int,
    ) -> None:
        base = self._replay(acc, inputs)
        if base is None:
            return
        # Seeded by the group's position in its flush, never by its
        # address, so one seed replays the same schedules on every run.
        rng = random.Random(f"{self.seed}/{position}")
        for schedule in range(self.schedules):
            permuted = list(inputs)
            rng.shuffle(permuted)
            observed = self._replay(acc, permuted)
            if observed is None:
                return
            if observed != base:
                self._diverged(key, acc, cert, label, schedule, base, observed)
                return
        self.verified += 1
        _count("accsan.verified")

    def _check_sets(self, sets: List[Tuple[Any, Any]], cert, label) -> None:
        """Two plain assignments with different values to one accumulator
        in one Reduce phase are last-write-wins over unordered rows — the
        dynamic face of rule GSQL-E040."""
        digests: Dict[int, Tuple[Any, set]] = {}
        for acc, value in sets:
            entry = digests.setdefault(id(acc), (acc, set()))
            entry[1].add(digest_value(value))
        for key, (acc, seen) in digests.items():
            if len(seen) > 1:
                first, second = sorted(seen)[:2]
                self._diverged(
                    key, acc, cert, label, -1, first, second,
                    site="conflicting assignments",
                )

    def _replay(self, acc: Any, inputs: List[Tuple[Any, int]]) -> Optional[str]:
        clone = self._clone(acc)
        if clone is None:
            return None
        for value, multiplicity in inputs:
            clone.combine_weighted(value, multiplicity)
        return digest_value(clone.value)

    def _clone(self, acc: Any) -> Optional[Any]:
        try:
            # Accumulators already expose a snapshot copy (primed reads
            # use it); fall back to deepcopy for foreign objects.
            snap = getattr(acc, "copy", None)
            return snap() if callable(snap) else copy.deepcopy(acc)
        except Exception:
            self.unreplayable += 1
            _count("accsan.unreplayable")
            return None

    def _diverged(
        self, key, acc, cert, label, schedule, expected, observed,
        site: str = "permuted replay",
    ) -> None:
        spelled, _ = self._names.get(
            key, (getattr(type(acc), "type_name", type(acc).__name__), "")
        )
        if cert is not None and cert.commutative:
            _count("accsan.violations")
            raise AccSanViolation(
                f"AccSan: {label}: {site} of {spelled} diverged on "
                f"schedule {schedule} ({expected} != {observed}) but the "
                f"block is certified COMMUTATIVE — the certificate is "
                f"wrong; witnesses: {'; '.join(cert.witnesses)}",
                block_label=label,
                accumulator=spelled,
                schedule=schedule,
                expected_digest=expected,
                observed_digest=observed,
            )
        status = cert.status.value if cert is not None else "uncertified"
        self.detections.append(
            AccSanDetection(label, spelled, schedule, expected, observed, status)
        )
        _count("accsan.detections")

    @staticmethod
    def _block_label(block: Any) -> str:
        if block is None:
            return "<unattributed reduce>"
        pattern = getattr(block, "pattern", None)
        return f"SELECT FROM {pattern!r}" if pattern is not None else repr(block)

    # -- reporting -----------------------------------------------------
    def report(self) -> str:
        lines = [
            f"AccSan: {len(self.events)} events, {self.verified} "
            f"reduce phases verified under {self.schedules} schedules, "
            f"{len(self.detections)} order-dependence detections, "
            f"{self.unreplayable} unreplayable"
        ]
        for d in self.detections:
            lines.append(
                f"  DETECTED {d.accumulator} in {d.block_label} "
                f"[{d.status}] schedule {d.schedule}: "
                f"{d.expected_digest} != {d.observed_digest}"
            )
        return "\n".join(lines)


@contextlib.contextmanager
def sanitize(
    schedules: int = 8, seed: int = 0xACC5
) -> Iterator[Sanitizer]:
    """Install a :class:`Sanitizer` for the duration of the block.

    Nested scopes shadow (and then restore) the previous binding, like
    :func:`repro.obs.metrics.collect`; the binding is per-context
    (:mod:`repro._exec`), so concurrent sanitized runs in other threads
    or tasks keep their own events.
    """
    sanitizer = Sanitizer(schedules=schedules, seed=seed)
    token = _exec.bind(san=sanitizer)
    try:
        yield sanitizer
    finally:
        _exec.reset(token)


__all__ = [
    "AccSanEvent",
    "AccSanDetection",
    "Sanitizer",
    "sanitize",
]
