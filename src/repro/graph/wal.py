"""The append-only write-ahead log behind durable graph mutation.

Every committed :class:`~repro.graph.mutation.MutationBatch` becomes one
**record** in the log *before* it is applied in memory — the classic WAL
contract: if the record is durable the batch happened, if it is not the
batch never happened, and nothing in between is observable after
recovery.

Layout
------
A WAL is a directory of **segments** named ``wal-00000001.log``,
``wal-00000002.log``, ...  Each segment opens with an 8-byte magic
(``RWAL`` + format version) and then holds length-prefixed records::

    <u32 payload length> <u32 CRC32(payload)> <payload: compact JSON>

The payload is ``{"epoch": N, "ops": [...]}`` — the epoch the record
produces plus the normalized operation documents of the batch.  Appends
go to the newest segment; when a record would push a segment past
``segment_max_bytes`` the log rotates to a fresh one, whose directory
entry is fsynced before a record lands in it.  ``commit`` is append +
flush + ``os.fsync`` — a returned commit is on disk.

Reading back (:func:`scan_wal`) verifies length and checksum record by
record.  A scan that fails **at the tail of the final segment** is the
expected shape of a crash mid-append: the torn bytes are dropped (and
physically truncated when the log is re-opened for writing), keeping the
record sequence prefix-consistent.  A scan failure *anywhere else* means
committed records were damaged and raises
:class:`~repro.errors.WalCorruptionError` — that is data loss, and it
must be loud.

Chaos sites ``wal.append``, ``wal.rotate`` and ``wal.fsync`` (see
:mod:`repro.governor.faults`) fire here so the recovery sweep can kill a
commit at every stage; each site's contract is documented in the
catalog.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from ..obs import count as _count
from ..errors import WalCorruptionError
from ..governor import faults as _faults

PathLike = Union[str, Path]

#: Segment header: magic + one format-version byte + padding.
MAGIC = b"RWAL\x01\x00\x00\x00"

#: Record framing: little-endian u32 payload length + u32 CRC32.
_HEADER = struct.Struct("<II")

#: Sanity cap on one record's payload — anything larger than this is a
#: corrupt length field, not a real batch.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Default segment rotation threshold.
DEFAULT_SEGMENT_MAX_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"


def fsync_directory(directory: PathLike) -> None:
    """Make the entries of ``directory`` durable: a file created or
    renamed into it is on disk only once the directory itself is
    synced (``fsync`` of the file covers its bytes, not its name)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def list_segments(wal_dir: PathLike) -> List[Path]:
    """The log's segment files, oldest first."""
    directory = Path(wal_dir)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.iterdir()
        if p.name.startswith(_SEGMENT_PREFIX) and p.name.endswith(_SEGMENT_SUFFIX)
    )


def _scan_segment(
    path: Path,
) -> Tuple[List[Dict[str, Any]], int, Optional[str]]:
    """Parse one segment: ``(records, good_bytes, tear_reason)``.

    ``good_bytes`` is the offset up to which the segment parses cleanly;
    ``tear_reason`` is ``None`` for a clean segment, else a one-line
    description of the first unreadable spot.
    """
    data = path.read_bytes()
    if not data.startswith(MAGIC):
        return [], 0, "missing or torn segment header"
    records: List[Dict[str, Any]] = []
    offset = len(MAGIC)
    while True:
        header = data[offset : offset + _HEADER.size]
        if not header:
            return records, offset, None
        if len(header) < _HEADER.size:
            return records, offset, "torn record header"
        length, crc = _HEADER.unpack(header)
        if length > MAX_RECORD_BYTES:
            return records, offset, f"implausible record length {length}"
        payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
        if len(payload) < length:
            return records, offset, "torn record payload"
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return records, offset, "record checksum mismatch"
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offset, "undecodable record payload"
        if not isinstance(doc, dict):
            return records, offset, "record payload is not an object"
        records.append(doc)
        offset += _HEADER.size + length


class WalScan(NamedTuple):
    """What :func:`scan_wal` read back from a log directory."""

    records: List[Dict[str, Any]]
    segments: List[str]
    #: Bytes dropped from the final segment's torn tail (0 when clean).
    truncated_bytes: int
    #: Why the tail was dropped (``None`` when clean).
    truncated_reason: Optional[str]
    #: Epoch of the last readable record (0 for an empty log).
    last_epoch: int


def scan_wal(wal_dir: PathLike, heal: bool = False) -> WalScan:
    """Read every record in the log, in commit order.

    A torn tail on the **final** segment is tolerated (and physically
    truncated when ``heal`` is set, so subsequent appends start from the
    last good byte); damage anywhere earlier raises
    :class:`~repro.errors.WalCorruptionError`.
    """
    paths = list_segments(wal_dir)
    records: List[Dict[str, Any]] = []
    truncated_bytes = 0
    truncated_reason: Optional[str] = None
    for position, path in enumerate(paths):
        segment_records, good_bytes, reason = _scan_segment(path)
        records.extend(segment_records)
        if reason is None:
            continue
        if position != len(paths) - 1:
            raise WalCorruptionError(
                f"{path.name}: {reason} at offset {good_bytes}, but later "
                f"segments exist — committed records are damaged",
                segment=path.name,
                offset=good_bytes,
            )
        truncated_bytes = path.stat().st_size - good_bytes
        truncated_reason = reason
        if heal and truncated_bytes:
            with open(path, "r+b") as fh:
                fh.truncate(good_bytes)
    last_epoch = 0
    for record in records:
        epoch = record.get("epoch")
        if isinstance(epoch, int) and epoch > last_epoch:
            last_epoch = epoch
    return WalScan(
        records=records,
        segments=[p.name for p in paths],
        truncated_bytes=truncated_bytes,
        truncated_reason=truncated_reason,
        last_epoch=last_epoch,
    )


class WriteAheadLog:
    """One writable log directory: append, commit, rotate.

    Opening an existing directory *heals* it first — a torn tail on the
    final segment (a previous crash mid-append) is truncated away, so
    new appends extend the last durable record.  ``fsync=False`` keeps
    the format but skips the ``os.fsync`` call (for tests and
    benchmarks; a production log should sync).
    """

    def __init__(
        self,
        wal_dir: PathLike,
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        fsync: bool = True,
    ):
        self.dir = Path(wal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = max(int(segment_max_bytes), len(MAGIC) + _HEADER.size)
        self.fsync = fsync
        self._closed = False
        segments = list_segments(self.dir)
        if segments:
            tail = segments[-1]
            _records, good_bytes, reason = _scan_segment(tail)
            if reason is not None:
                torn = tail.stat().st_size - good_bytes
                with open(tail, "r+b") as fh:
                    fh.truncate(good_bytes)
                _count("wal.truncated_bytes", torn)
            scan = scan_wal(self.dir)
            self.last_epoch = scan.last_epoch
            self._segment_index = int(
                tail.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
            )
            self._fh = open(tail, "ab")
            if self._fh.tell() < len(MAGIC):
                # The crash hit between segment creation and its header.
                self._write_header()
        else:
            self.last_epoch = 0
            self._segment_index = 1
            self._fh = self._create_segment(self._segment_index)

    # -- writing -------------------------------------------------------
    def _write_header(self) -> None:
        self._fh.write(MAGIC)
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def _create_segment(self, index: int):
        fh = open(self.dir / _segment_name(index), "ab")
        if fh.tell() < len(MAGIC):
            fh.write(MAGIC)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        if self.fsync:
            # Without this a power failure can drop the new segment's
            # directory entry, and with it every commit made into it.
            fsync_directory(self.dir)
        return fh

    def _rotate(self) -> None:
        # The fault fires *before* the old segment closes, so an
        # injected crash here leaves the log exactly as it was.
        if _faults._PLAN is not None:
            _faults.fire("wal.rotate")
        self._fh.close()
        self._segment_index += 1
        self._fh = self._create_segment(self._segment_index)
        _count("wal.rotations")

    def append(self, record: Dict[str, Any]) -> int:
        """Frame and append one record (no sync); returns its offset in
        the current segment."""
        if self._closed:
            raise ValueError("write-ahead log is closed")
        if _faults._PLAN is not None:
            _faults.fire("wal.append")
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
        framed = _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload
        if self._fh.tell() + len(framed) > self.segment_max_bytes and self._fh.tell() > len(MAGIC):
            self._rotate()
        offset = self._fh.tell()
        self._fh.write(framed)
        self._fh.flush()
        _count("wal.appends")
        _count("wal.bytes", len(framed))
        epoch = record.get("epoch")
        if isinstance(epoch, int) and epoch > self.last_epoch:
            self.last_epoch = epoch
        return offset

    def sync(self) -> None:
        """Force the appended bytes to disk (the commit barrier)."""
        if _faults._PLAN is not None:
            _faults.fire("wal.fsync")
        if self.fsync:
            os.fsync(self._fh.fileno())
        _count("wal.fsyncs")

    def commit(self, record: Dict[str, Any]) -> int:
        """Append + sync one record; on a failed sync the appended bytes
        are rolled off the tail (the record's durability is unknown, so
        the conservative outcome — lost — is made true), which keeps the
        log byte-consistent — and ``last_epoch``-consistent — with what
        the caller observed."""
        prev_epoch = self.last_epoch
        offset = self.append(record)
        try:
            self.sync()
        except BaseException:
            self._fh.seek(offset)
            self._fh.truncate(offset)
            self.last_epoch = prev_epoch
            raise
        return offset

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def segments(self) -> List[str]:
        return [p.name for p in list_segments(self.dir)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog({self.dir}, segment={self._segment_index}, "
            f"last_epoch={self.last_epoch})"
        )


__all__ = [
    "MAGIC",
    "MAX_RECORD_BYTES",
    "DEFAULT_SEGMENT_MAX_BYTES",
    "WalScan",
    "WriteAheadLog",
    "fsync_directory",
    "list_segments",
    "scan_wal",
]
