"""Tests for the durable ingest WAL (:mod:`repro.service.wal`).

The WAL's contract is the spine of the service's exactly-once story:
every record appended before an acknowledgement must survive any
process death (flush-to-OS durability), a torn tail must be dropped
silently (a torn record was never acknowledged), and the segment
lifecycle -- open while the epoch is in flight, sealed at close,
discarded once a checkpoint covers the epoch -- must hold exactly the
batches whose reports are not yet durable elsewhere.
"""

import os

import pytest

from repro.core.serialization import (
    MAGIC_WAL,
    SerializationError,
    pack_wal_record,
    pack_wal_segment_header,
    read_wal_segment_header,
    scan_wal_segment,
)
from repro.service.faults import truncate_wal_tail
from repro.service.wal import IngestWAL


class TestWalFraming:
    def test_record_round_trip(self):
        header = pack_wal_segment_header(epoch=3)
        records = [
            pack_wal_record({"key": "a", "worker": 0, "n_users": 10}, b"blob-a"),
            pack_wal_record({"key": "b", "worker": 1, "n_users": 20}, b""),
        ]
        head, parsed, torn = scan_wal_segment(header + b"".join(records))
        assert head["epoch"] == 3
        assert torn is None
        assert [meta["key"] for meta, _ in parsed] == ["a", "b"]
        assert [blob for _, blob in parsed] == [b"blob-a", b""]

    def test_header_peek(self):
        data = pack_wal_segment_header(epoch=7)
        header, offset = read_wal_segment_header(data)
        assert header["epoch"] == 7
        assert offset == len(data)
        assert data.startswith(MAGIC_WAL)

    def test_wrong_magic_is_refused(self):
        with pytest.raises(SerializationError, match="magic"):
            read_wal_segment_header(b"REPROACC\x01" + b"\x00" * 32)
        with pytest.raises(SerializationError):
            scan_wal_segment(b"junk")

    def test_torn_tail_is_dropped_not_fatal(self):
        header = pack_wal_segment_header(epoch=0)
        good = pack_wal_record({"key": "k0", "worker": 0}, b"payload")
        torn = pack_wal_record({"key": "k1", "worker": 1}, b"lost")[:-3]
        _, records, torn_offset = scan_wal_segment(header + good + torn)
        assert [meta["key"] for meta, _ in records] == ["k0"]
        assert torn_offset == len(header) + len(good)

    def test_corrupt_crc_is_dropped(self):
        header = pack_wal_segment_header(epoch=0)
        record = bytearray(pack_wal_record({"key": "k", "worker": 0}, b"data"))
        record[-1] ^= 0xFF  # flip a payload bit: CRC no longer matches
        _, records, torn_offset = scan_wal_segment(header + bytes(record))
        assert records == []
        assert torn_offset == len(header)


class TestIngestWalLifecycle:
    def test_append_flush_scan_round_trip(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"batch-0", key="k0", worker=0, n_users=50)
        wal.append(0, b"batch-1", key="k1", worker=1, n_users=25)
        # a fresh scanner (a "restarted gateway") sees every append even
        # though the writing handle is still open
        scan = IngestWAL(str(tmp_path)).scan()
        assert len(scan.open) == 1 and not scan.sealed and not scan.unreadable
        segment = scan.open[0]
        assert segment.epoch == 0
        assert segment.n_reports == 75
        assert [meta["worker"] for meta, _ in segment.records] == [0, 1]
        wal.close()

    def test_seal_and_checkpoint_discard(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"b0", key="k0", worker=0)
        wal.seal(0)
        wal.append(1, b"b1", key="k1", worker=0)
        wal.seal(1)
        wal.append(2, b"b2", key="k2", worker=1)

        scan = wal.scan()
        assert [s.epoch for s in scan.sealed] == [0, 1]
        assert [s.epoch for s in scan.open] == [2]

        # a checkpoint covering epoch 0 drops only that sealed segment
        assert wal.discard_checkpointed([0]) == [0]
        scan = wal.scan()
        assert [s.epoch for s in scan.sealed] == [1]
        assert [s.epoch for s in scan.open] == [2]
        wal.close()

    def test_sealing_an_empty_epoch_is_a_noop(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.seal(5)
        assert wal.scan().sealed == []
        wal.close()

    def test_read_epoch_sees_unflushed_appends(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(4, b"live", key="k", worker=2, n_users=9)
        records = wal.read_epoch(4)
        assert len(records) == 1
        assert records[0][0] == {"key": "k", "worker": 2, "n_users": 9}
        assert records[0][1] == b"live"
        assert wal.read_epoch(99) == []
        wal.close()

    def test_truncated_tail_recovers_acked_prefix(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"acked-one", key="k0", worker=0, n_users=5)
        wal.append(0, b"acked-two", key="k1", worker=1, n_users=5)
        wal.close()
        path = wal.segment_path(0)
        truncate_wal_tail(path, 4)  # tear the last record mid-write
        scan = IngestWAL(str(tmp_path)).scan()
        segment = scan.open[0]
        assert [meta["key"] for meta, _ in segment.records] == ["k0"]
        assert segment.torn_offset is not None

    def test_discard_removes_open_and_sealed(self, tmp_path):
        wal = IngestWAL(str(tmp_path))
        wal.append(0, b"x", key="k", worker=0)
        wal.discard(0)
        assert wal.scan().open == []
        assert not os.listdir(str(tmp_path))
        wal.close()

    def test_stats_counts_segments_and_bytes(self, tmp_path):
        wal = IngestWAL(str(tmp_path), sync=False)
        wal.append(0, b"abc", key="k0", worker=0)
        wal.seal(0)
        wal.append(1, b"defg", key="k1", worker=0)
        stats = wal.stats()
        assert stats["records_appended"] == 2
        assert stats["bytes_appended"] > 7
        assert stats["open_segments"] == 1
        assert stats["sealed_segments"] == 1
        assert stats["sync"] is False
        wal.close()


class TestWalDirectorySync:
    """``sync=True`` makes the segment *names* durable, not only their bytes."""

    @staticmethod
    def _count_fsyncs(monkeypatch):
        import stat

        counts = {"dir": 0, "file": 0}
        real_fsync = os.fsync

        def counting_fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            counts[kind] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return counts

    def test_create_and_seal_fsync_the_directory(self, tmp_path, monkeypatch):
        counts = self._count_fsyncs(monkeypatch)
        wal = IngestWAL(str(tmp_path / "wal"), sync=True)
        wal.append(0, b"a", key="k0", worker=0, n_users=1)
        assert counts["dir"] == 1  # the new .open segment's entry
        wal.append(0, b"b", key="k1", worker=0, n_users=1)
        assert counts["dir"] == 1  # appends to an existing segment do not
        wal.seal(0)
        assert counts["dir"] == 2  # the .open -> .closed rename
        wal.seal(1)  # an epoch that never logged: nothing to rename
        assert counts["dir"] == 2
        assert counts["file"] == 3  # two appends + the seal's final flush
        wal.close()

    def test_default_path_never_fsyncs(self, tmp_path, monkeypatch):
        counts = self._count_fsyncs(monkeypatch)
        wal = IngestWAL(str(tmp_path / "wal"))
        wal.append(0, b"a", key="k0", worker=0, n_users=1)
        wal.seal(0)
        assert counts == {"dir": 0, "file": 0}
        wal.close()
