"""Durable ingest write-ahead log for the aggregation gateway.

The service's exactly-once story has a hole without this module: the
gateway acknowledges ``POST /ingest`` as soon as a batch is queued on a
shard worker's pipe, but pipes are memory -- a crashed worker or a
killed gateway silently drops every batch acknowledged since the last
epoch close, skewing estimates the estimators then treat as unbiased.

:class:`IngestWAL` closes the hole with a per-epoch, segmented,
append-only log:

* the gateway appends each accepted batch (with its idempotency key and
  shard assignment) to the *open* segment of the current epoch **before**
  acknowledging the client;
* ``POST /close`` seals the segment (renamed ``*.closed``) once the
  epoch's shard states are merged into the engine, and a successful
  checkpoint discards every sealed segment the checkpoint now covers --
  the log holds exactly the batches whose reports are not yet durable
  elsewhere;
* on restart, :meth:`IngestWAL.scan` recovers the intact prefix of every
  surviving segment (CRC-protected records, torn tails dropped -- a torn
  record was never acknowledged) so the gateway can replay sealed
  epochs into the engine and the open epoch into fresh workers,
  deduplicating by idempotency key.

Durability model: records are flushed to the OS on every append, which
survives any *process* death (worker crash, gateway SIGKILL).  Pass
``sync=True`` to also ``fsync`` each append -- and the log directory
after a segment is created or sealed, so the file names themselves
survive -- and survive machine power loss, at a large throughput cost
(measured in ``benchmarks/bench_service.py``).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.serialization import (
    SerializationError,
    pack_wal_record,
    pack_wal_segment_header,
    scan_wal_segment,
)
from repro.engine.store import _fsync_directory

#: Suffix of a segment still accepting appends (its epoch is in flight).
OPEN_SUFFIX = ".open"

#: Suffix of a sealed segment (epoch closed, checkpoint still pending).
CLOSED_SUFFIX = ".closed"

_SEGMENT_RE = re.compile(r"^epoch-(\d+)\.(open|closed)$")


@dataclass
class SegmentScan:
    """One recovered WAL segment: its records and tail diagnosis."""

    epoch: int
    path: str
    sealed: bool
    records: List[Tuple[dict, bytes]] = field(default_factory=list)
    #: Byte offset of the first torn/corrupt record, ``None`` when clean.
    torn_offset: Optional[int] = None

    @property
    def n_reports(self) -> int:
        return sum(int(meta.get("n_users", 0)) for meta, _ in self.records)


@dataclass
class WalScan:
    """Everything :meth:`IngestWAL.scan` found on disk, oldest first."""

    sealed: List[SegmentScan] = field(default_factory=list)
    open: List[SegmentScan] = field(default_factory=list)
    #: Files under the WAL directory that could not be decoded at all.
    unreadable: List[str] = field(default_factory=list)


class IngestWAL:
    """Per-epoch segmented append-only log of accepted ingest batches."""

    def __init__(self, directory: str, sync: bool = False) -> None:
        self.directory = str(directory)
        self.sync = bool(sync)
        os.makedirs(self.directory, exist_ok=True)
        self._handles: Dict[int, object] = {}
        self.records_appended = 0
        self.bytes_appended = 0

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #
    def segment_path(self, epoch: int, sealed: bool = False) -> str:
        suffix = CLOSED_SUFFIX if sealed else OPEN_SUFFIX
        return os.path.join(self.directory, f"epoch-{int(epoch):08d}{suffix}")

    # ------------------------------------------------------------------ #
    # append path
    # ------------------------------------------------------------------ #
    def _handle(self, epoch: int):
        handle = self._handles.get(epoch)
        if handle is None:
            path = self.segment_path(epoch)
            fresh = not os.path.exists(path)
            handle = open(path, "ab")
            if fresh:
                handle.write(pack_wal_segment_header(epoch))
                handle.flush()
                if self.sync:
                    _fsync_directory(self.directory)
            self._handles[epoch] = handle
        return handle

    def append(self, epoch: int, blob: bytes, *, key: str, worker: int,
               n_users: int = 0) -> None:
        """Append one accepted batch; returns only once it is flushed.

        The caller acknowledges the client *after* this returns, so every
        acknowledged batch is recoverable by :meth:`scan`.
        """
        meta = {
            "key": str(key),
            "worker": int(worker),
            "n_users": int(n_users),
        }
        record = pack_wal_record(meta, blob)
        handle = self._handle(int(epoch))
        handle.write(record)
        handle.flush()
        if self.sync:
            os.fsync(handle.fileno())
        self.records_appended += 1
        self.bytes_appended += len(record)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def seal(self, epoch: int) -> None:
        """Seal an epoch's segment after its shards merged into the engine.

        A sealed segment is kept until a checkpoint covers its epoch --
        close-then-crash must still be able to rebuild the epoch.
        Sealing an epoch that never logged a record is a no-op.
        """
        epoch = int(epoch)
        handle = self._handles.pop(epoch, None)
        if handle is not None:
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
            handle.close()
        path = self.segment_path(epoch)
        if os.path.exists(path):
            os.replace(path, self.segment_path(epoch, sealed=True))
            if self.sync:
                _fsync_directory(self.directory)

    def discard(self, epoch: int) -> None:
        """Delete an epoch's segment (open or sealed): it is durable elsewhere."""
        epoch = int(epoch)
        handle = self._handles.pop(epoch, None)
        if handle is not None:
            handle.close()
        for sealed in (False, True):
            path = self.segment_path(epoch, sealed=sealed)
            if os.path.exists(path):
                os.remove(path)

    def discard_checkpointed(self, epochs) -> List[int]:
        """Drop every *sealed* segment whose epoch a checkpoint now covers."""
        covered = {int(epoch) for epoch in epochs}
        dropped = []
        for scan in self._segments():
            epoch, sealed = scan
            if sealed and epoch in covered:
                os.remove(self.segment_path(epoch, sealed=True))
                dropped.append(epoch)
        return dropped

    def close(self) -> None:
        """Close every open file handle (the segments stay on disk)."""
        for handle in self._handles.values():
            try:
                handle.flush()
                handle.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._handles = {}

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def _segments(self) -> List[Tuple[int, bool]]:
        found = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                found.append((int(match.group(1)), match.group(2) == "closed"))
        return sorted(found)

    def _scan_segment(self, epoch: int, sealed: bool) -> Optional[SegmentScan]:
        path = self.segment_path(epoch, sealed=sealed)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            header, records, torn = scan_wal_segment(data)
        except (OSError, SerializationError):
            return None
        return SegmentScan(
            epoch=int(header.get("epoch", epoch)),
            path=path,
            sealed=sealed,
            records=records,
            torn_offset=torn,
        )

    def scan(self) -> WalScan:
        """Recover every segment on disk, oldest epoch first."""
        result = WalScan()
        for epoch, sealed in self._segments():
            scan = self._scan_segment(epoch, sealed)
            if scan is None:
                result.unreadable.append(self.segment_path(epoch, sealed=sealed))
            elif sealed:
                result.sealed.append(scan)
            else:
                result.open.append(scan)
        return result

    def read_epoch(self, epoch: int) -> List[Tuple[dict, bytes]]:
        """The intact records of one epoch's *open* segment (for replay).

        Flushes the live handle first so a scan observes every append the
        gateway has acknowledged.
        """
        handle = self._handles.get(int(epoch))
        if handle is not None:
            handle.flush()
        scan = self._scan_segment(int(epoch), sealed=False)
        return scan.records if scan is not None else []

    def stats(self) -> dict:
        segments = self._segments()
        return {
            "directory": self.directory,
            "sync": self.sync,
            "records_appended": self.records_appended,
            "bytes_appended": self.bytes_appended,
            "open_segments": sum(1 for _, sealed in segments if not sealed),
            "sealed_segments": sum(1 for _, sealed in segments if sealed),
        }


__all__ = [
    "CLOSED_SUFFIX",
    "IngestWAL",
    "OPEN_SUFFIX",
    "SegmentScan",
    "WalScan",
]
