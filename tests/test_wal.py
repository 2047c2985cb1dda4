"""The write-ahead log: framing, rotation, torn-tail healing, corruption.

These pin the on-disk contract documented in ``docs/robustness.md``
("Durability & mutation"): segments open with the ``RWAL`` magic, each
record is length-prefixed and CRC32-checked, a torn tail on the *final*
segment heals silently, and damage anywhere earlier is loud data loss.
"""

import json
import struct
import zlib

import pytest

from repro.errors import WalCorruptionError
from repro.graph.wal import (
    MAGIC,
    WriteAheadLog,
    list_segments,
    scan_wal,
)

_HEADER = struct.Struct("<II")


def _records(n, start_epoch=1):
    return [
        {"epoch": start_epoch + i, "ops": [{"op": "upsert_vertex", "id": f"v{i}"}]}
        for i in range(n)
    ]


def _frame(doc):
    payload = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()
    return _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


class TestFraming:
    def test_round_trip(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            for rec in _records(3):
                wal.commit(rec)
        scan = scan_wal(tmp_path)
        assert [r["epoch"] for r in scan.records] == [1, 2, 3]
        assert scan.truncated_bytes == 0
        assert scan.truncated_reason is None
        assert scan.last_epoch == 3

    def test_segment_opens_with_magic(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.commit(_records(1)[0])
        (segment,) = list_segments(tmp_path)
        assert segment.read_bytes().startswith(MAGIC)

    def test_empty_dir_scans_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "never-created")
        assert scan.records == []
        assert scan.last_epoch == 0

    def test_append_is_not_durable_commit_is(self, tmp_path):
        # append leaves last_epoch updated but only commit adds the sync
        # barrier; both are readable back (this is framing, not fsync).
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.append({"epoch": 1, "ops": []})
            assert wal.last_epoch == 1
        assert scan_wal(tmp_path).last_epoch == 1


class TestRotation:
    def test_rotates_past_threshold(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=64, fsync=False) as wal:
            for rec in _records(6):
                wal.commit(rec)
        segments = list_segments(tmp_path)
        assert len(segments) > 1
        assert [p.name for p in segments] == sorted(p.name for p in segments)
        scan = scan_wal(tmp_path)
        assert [r["epoch"] for r in scan.records] == [1, 2, 3, 4, 5, 6]

    def test_reopen_resumes_last_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=64, fsync=False) as wal:
            for rec in _records(4):
                wal.commit(rec)
            n_before = len(wal.segments())
        with WriteAheadLog(tmp_path, segment_max_bytes=64, fsync=False) as wal:
            assert wal.last_epoch == 4
            wal.commit({"epoch": 5, "ops": []})
        scan = scan_wal(tmp_path)
        assert scan.last_epoch == 5
        # Reopening must not have created a gratuitous new segment.
        assert len(scan.segments) in (n_before, n_before + 1)


class TestDirectoryDurability:
    """A new segment is durable only once its directory entry is: after
    a power failure an unsynced directory can lose the file, and with it
    commits already acknowledged as durable."""

    def test_creating_a_segment_syncs_the_directory(self, tmp_path, fsyncs):
        with WriteAheadLog(tmp_path):
            assert fsyncs == ["file", "dir"]

    def test_rotating_syncs_the_directory(self, tmp_path, fsyncs):
        with WriteAheadLog(tmp_path, segment_max_bytes=64) as wal:
            for rec in _records(3):
                wal.commit(rec)
            assert len(wal.segments()) == 3
        # the first segment: its header, then the directory; then per
        # commit the record, after a rotation's header and directory sync
        assert fsyncs == ["file", "dir", "file"] + ["file", "dir", "file"] * 2

    def test_no_fsync_means_no_directory_sync(self, tmp_path, fsyncs):
        with WriteAheadLog(tmp_path, segment_max_bytes=64, fsync=False) as wal:
            for rec in _records(3):
                wal.commit(rec)
        assert fsyncs == []


class TestTornTail:
    def _torn_log(self, tmp_path, cut):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            for rec in _records(3):
                wal.commit(rec)
        (segment,) = list_segments(tmp_path)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - cut])
        return segment

    def test_scan_tolerates_torn_tail(self, tmp_path):
        self._torn_log(tmp_path, cut=5)
        scan = scan_wal(tmp_path)
        assert [r["epoch"] for r in scan.records] == [1, 2]
        assert scan.truncated_bytes > 0
        assert scan.truncated_reason == "torn record payload"

    def test_scan_heal_truncates_physically(self, tmp_path):
        segment = self._torn_log(tmp_path, cut=5)
        before = segment.stat().st_size
        scan = scan_wal(tmp_path, heal=True)
        assert segment.stat().st_size == before - scan.truncated_bytes
        # A second scan is clean.
        assert scan_wal(tmp_path).truncated_reason is None

    def test_writer_open_heals(self, tmp_path):
        self._torn_log(tmp_path, cut=5)
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            assert wal.last_epoch == 2
            wal.commit({"epoch": 3, "ops": []})
        scan = scan_wal(tmp_path)
        assert [r["epoch"] for r in scan.records] == [1, 2, 3]
        assert scan.truncated_reason is None

    def test_torn_header_only_segment(self, tmp_path):
        # Crash between segment creation and its 8-byte magic: the
        # segment is all tear, and a writer open re-writes the header.
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.commit({"epoch": 1, "ops": []})
        (segment,) = list_segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:3])
        scan = scan_wal(tmp_path)
        assert scan.records == []
        assert scan.truncated_reason == "missing or torn segment header"
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.commit({"epoch": 1, "ops": []})
        assert scan_wal(tmp_path).last_epoch == 1


class TestCorruption:
    def test_non_final_segment_damage_is_loud(self, tmp_path):
        with WriteAheadLog(tmp_path, segment_max_bytes=64, fsync=False) as wal:
            for rec in _records(6):
                wal.commit(rec)
        segments = list_segments(tmp_path)
        assert len(segments) >= 2
        first = segments[0]
        data = bytearray(first.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte -> checksum mismatch
        first.write_bytes(bytes(data))
        with pytest.raises(WalCorruptionError) as excinfo:
            scan_wal(tmp_path)
        assert excinfo.value.segment == first.name

    def test_checksum_mismatch_in_final_segment_is_a_tear(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            for rec in _records(2):
                wal.commit(rec)
        (segment,) = list_segments(tmp_path)
        data = bytearray(segment.read_bytes())
        data[-1] ^= 0xFF
        segment.write_bytes(bytes(data))
        scan = scan_wal(tmp_path)
        assert [r["epoch"] for r in scan.records] == [1]
        assert scan.truncated_reason == "record checksum mismatch"

    def test_implausible_length_is_a_tear(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync=False) as wal:
            wal.commit({"epoch": 1, "ops": []})
        (segment,) = list_segments(tmp_path)
        with open(segment, "ab") as fh:
            fh.write(_HEADER.pack(0xFFFFFFFF, 0))
        scan = scan_wal(tmp_path)
        assert scan.last_epoch == 1
        assert "implausible record length" in scan.truncated_reason


class TestCommitRollback:
    def test_failed_sync_rolls_the_record_off(self, tmp_path):
        """A sync that raises must leave the log byte-identical to the
        pre-append state: durability unknown -> conservatively lost."""
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.commit({"epoch": 1, "ops": []})
        (segment,) = list_segments(tmp_path)
        before = segment.read_bytes()

        boom = RuntimeError("injected sync failure")
        original_sync = wal.sync

        def failing_sync():
            raise boom

        wal.sync = failing_sync
        with pytest.raises(RuntimeError):
            wal.commit({"epoch": 2, "ops": []})
        wal.sync = original_sync
        wal.close()
        assert segment.read_bytes() == before
        assert scan_wal(tmp_path).last_epoch == 1

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync=False)
        wal.close()
        with pytest.raises(ValueError):
            wal.append({"epoch": 1, "ops": []})
