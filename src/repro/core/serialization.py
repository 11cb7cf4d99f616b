"""Binary wire format for accumulator states, reports and engine envelopes.

Sharded aggregation only works if the intermediate objects -- the reports
clients upload and the sufficient-statistics accumulators servers keep --
can cross process and machine boundaries.  This module defines the single
container format both use:

``MAGIC | <u64 header length> | <JSON header> | <npy arrays, concatenated>``

The JSON header carries small metadata (state kind, protocol spec, report
counts, and -- for the exact summation accumulator -- arbitrary-precision
integer sums, which JSON represents losslessly).  Bulk numeric payloads are
written as standard ``.npy`` blocks in a declared order, so decoding never
needs pickle and the format is stable across Python/numpy versions.

Nested objects (e.g. the hierarchical accumulator's per-level oracle
accumulators) embed each child's packed bytes as a ``uint8`` array, which
keeps the format strictly compositional.

Two format versions coexist:

* **v1** (``REPROACC\\x01``) is the original layout used by every
  accumulator state and report.  :func:`pack_blob` keeps emitting it by
  default so all pre-engine payloads stay byte-for-byte identical.
* **v2** (``REPROACC\\x02``) is the *envelope* tag: the same physical
  layout under a distinct magic, for containers whose header carries
  envelope metadata.  :func:`unpack_blob` decodes both versions
  transparently; :func:`blob_version` reports which one a payload uses.

A third magic, ``REPROBAT\\x01``, frames *batches* of reports for network
transport (:func:`pack_report_batch` / :func:`unpack_report_batch`): a
JSON header carrying the protocol spec and frame bookkeeping followed by
length-prefixed packed reports.  This is the wire protocol of the ingest
gateway in :mod:`repro.service` -- a pure container over the v1 report
layout, so the gateway can route frames to shard workers without
decoding any arrays.

A fourth magic, ``REPROWAL\\x01``, frames the gateway's durable ingest
write-ahead log (:mod:`repro.service.wal`): a segment header naming the
epoch, then CRC-protected records each carrying a small JSON meta
document (idempotency key, shard assignment) plus one framed report
batch.  Unlike every other format here, a WAL segment is expected to be
*torn*: the gateway may die mid-append, so :func:`scan_wal_segment`
recovers every intact prefix record and reports -- rather than raises
on -- a truncated or corrupt tail.

A fifth magic, ``REPROSEG\\x01``, frames one *epoch segment* of the
out-of-core store (:mod:`repro.engine.store`): a JSON header describing
the epoch, its protocol spec hash and the byte layout of the body, the
body itself (the epoch's packed v1 accumulator state plus optional
8-byte-aligned int64 *pushdown* vectors, mapped zero-copy at query
time), and a trailing CRC32 over everything before it, so a torn or
bit-flipped segment is detected before a single array is trusted.

Malformed input of any kind -- wrong magic, truncation, garbage JSON,
corrupt array blocks -- raises :class:`SerializationError` with the byte
offset where decoding failed, never a raw ``struct.error`` / ``KeyError``.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Version-1 format tag: accumulator states and reports (the pre-engine
#: wire format, still written by default for byte-for-byte stability).
MAGIC = b"REPROACC\x01"

#: Version-2 format tag: engine envelopes (checkpoints, epoch shards).
MAGIC_V2 = b"REPROACC\x02"

#: Report-batch framing tag: the network wire format of the ingest
#: gateway (:mod:`repro.service`) and of ``encode --output -``.
MAGIC_BATCH = b"REPROBAT\x01"

#: WAL segment framing tag: the gateway's durable ingest log
#: (:mod:`repro.service.wal`), one segment file per epoch.
MAGIC_WAL = b"REPROWAL\x01"

#: Epoch-segment framing tag: one sealed epoch of the out-of-core store
#: (:mod:`repro.engine.store`), CRC-framed and memory-mappable.
MAGIC_SEG = b"REPROSEG\x01"

#: The newest format version this build reads and writes.
FORMAT_VERSION = 2

_MAGICS = {MAGIC: 1, MAGIC_V2: 2}

_LENGTH = struct.Struct("<Q")


class SerializationError(ValueError):
    """Raised when a byte blob cannot be decoded as a packed state/report."""


def pack_blob(
    header: dict, arrays: Mapping[str, np.ndarray] = (), version: int = 1
) -> bytes:
    """Serialize a JSON-able header plus named numeric arrays to bytes.

    ``header`` must be JSON serializable (Python's ``json`` keeps integer
    values exact at arbitrary precision, which the exact accumulators rely
    on).  ``arrays`` values are written as raw ``.npy`` blocks; object
    dtypes are rejected.  ``version`` selects the magic tag: 1 (default)
    for accumulator/report payloads, 2 for engine envelopes.
    """
    try:
        magic = {1: MAGIC, 2: MAGIC_V2}[version]
    except KeyError:
        raise SerializationError(
            f"unknown serialization format version {version!r}; "
            f"this build writes versions 1 and 2"
        ) from None
    arrays = dict(arrays or {})
    body = io.BytesIO()
    for name, array in arrays.items():
        np.lib.format.write_array(
            body, np.ascontiguousarray(array), allow_pickle=False
        )
    document = {"header": header, "arrays": list(arrays)}
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    return magic + _LENGTH.pack(len(encoded)) + encoded + body.getvalue()


def _sniff_magic(data: bytes) -> int:
    """The format version of ``data``'s magic tag, or a loud failure."""
    for magic, version in _MAGICS.items():
        if data.startswith(magic):
            return version
    preview = bytes(data[: len(MAGIC)])
    raise SerializationError(
        f"bad magic at offset 0: {preview!r} is not a packed repro "
        f"state/report/envelope (expected {MAGIC!r} or {MAGIC_V2!r})"
    )


def blob_version(data: bytes) -> int:
    """Format version (1 or 2) of a packed blob, via its magic tag."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    return _sniff_magic(bytes(data))


def _decode_document(data) -> Tuple[bytes, dict, int]:
    """Shared front half of decoding: magic, length field, JSON document.

    Returns ``(data, document, body_offset)`` where ``body_offset`` is the
    position of the first npy block.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(
            f"expected bytes, got {type(data).__name__}"
        )
    data = bytes(data)
    _sniff_magic(data)
    offset = len(MAGIC)
    if len(data) < offset + _LENGTH.size:
        raise SerializationError(
            f"truncated blob at offset {len(data)}: need {offset + _LENGTH.size} "
            f"bytes for the header length, have {len(data)}"
        )
    (header_length,) = _LENGTH.unpack_from(data, offset)
    offset += _LENGTH.size
    if header_length > len(data) - offset:
        raise SerializationError(
            f"truncated blob at offset {len(data)}: header declares "
            f"{header_length} bytes but only {len(data) - offset} remain "
            f"after offset {offset}"
        )
    try:
        document = json.loads(data[offset : offset + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt header JSON in bytes [{offset}, {offset + header_length}): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise SerializationError(
            f"corrupt header JSON in bytes [{offset}, {offset + header_length}): "
            f"expected an object, got {type(document).__name__}"
        )
    if not isinstance(document.get("header", {}), dict):
        raise SerializationError(
            f"corrupt header JSON in bytes [{offset}, {offset + header_length}): "
            f"'header' must be an object, "
            f"got {type(document['header']).__name__}"
        )
    names = document.get("arrays", [])
    if not isinstance(names, list) or not all(
        isinstance(name, str) for name in names
    ):
        raise SerializationError(
            f"corrupt header JSON in bytes [{offset}, {offset + header_length}): "
            "'arrays' must be a list of names"
        )
    return data, document, offset + header_length


def peek_header(data: bytes) -> dict:
    """Decode only the JSON header of a packed blob (arrays untouched).

    Cheap dispatch helper: lets callers route a blob by ``file_kind`` /
    ``state_kind`` without paying for the array blocks.
    """
    _, document, _ = _decode_document(data)
    return document.get("header", {})


def unpack_blob(data: bytes) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_blob`: return ``(header, arrays)``.

    Accepts both v1 payloads and v2 envelopes (the physical layout is
    identical); use :func:`blob_version` when the version matters.
    """
    data, document, body_offset = _decode_document(data)
    body = io.BytesIO(data[body_offset:])
    arrays: Dict[str, np.ndarray] = {}
    for name in document.get("arrays", []):
        block_offset = body_offset + body.tell()
        try:
            arrays[name] = np.lib.format.read_array(body, allow_pickle=False)
        except Exception as exc:  # numpy raises several internal types here
            raise SerializationError(
                f"corrupt array block {name!r} at offset {block_offset}: {exc}"
            ) from exc
    return document.get("header", {}), arrays


# --------------------------------------------------------------------- #
# framed report batches: the network wire format
# --------------------------------------------------------------------- #
#: ``batch_kind`` tag every report batch declares in its header.
REPORT_BATCH_KIND = "report-batch"


def pack_report_batch(spec, reports) -> bytes:
    """Frame a batch of serialized reports for network transport.

    This is the one payload the ingest gateway (:mod:`repro.service`)
    accepts on ``POST /ingest``: a magic tag (:data:`MAGIC_BATCH`), a JSON
    header carrying the protocol ``spec`` plus frame bookkeeping, then the
    packed bytes of each report, length-prefixed::

        REPROBAT\\x01 | u64 header length | JSON header
                     | (u64 frame length | report bytes) * count

    ``reports`` is an iterable of :class:`~repro.core.session.Report`
    instances (or their already-packed bytes); each report stays in the
    existing pickle-free v1 layout, so the frame is a pure container --
    the gateway can split and fan frames out to shard workers without
    decoding a single array.  The header records ``count`` and the total
    ``n_users`` so receivers can account for a batch from the header
    alone (for packed bytes the user count is peeked from each report's
    own header).
    """
    frames: list = []
    n_users = 0
    for report in reports:
        if isinstance(report, (bytes, bytearray, memoryview)):
            blob = bytes(report)
            n_users += int(peek_header(blob).get("n_users", 0))
        elif callable(getattr(report, "to_bytes", None)):
            blob = report.to_bytes()
            n_users += int(getattr(report, "n_users", 0))
        else:
            raise SerializationError(
                f"cannot frame a report of type {type(report).__name__}; "
                "expected a Report or packed report bytes"
            )
        frames.append(blob)
    if spec is not None and callable(getattr(spec, "spec", None)):
        spec = spec.spec()  # a live protocol object; record its registry spec
    header = {
        "batch_kind": REPORT_BATCH_KIND,
        "count": len(frames),
        "n_users": n_users,
    }
    if spec is not None:
        header["protocol"] = spec
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray(MAGIC_BATCH)
    out += _LENGTH.pack(len(encoded))
    out += encoded
    for blob in frames:
        out += _LENGTH.pack(len(blob))
        out += blob
    return bytes(out)


def _decode_batch_header(data) -> Tuple[bytes, dict, int]:
    """Front half of batch decoding: magic, length field, JSON header.

    Returns ``(data, header, frames_offset)``.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if not data.startswith(MAGIC_BATCH):
        preview = bytes(data[: len(MAGIC_BATCH)])
        raise SerializationError(
            f"bad magic at offset 0: {preview!r} is not a framed report "
            f"batch (expected {MAGIC_BATCH!r})"
        )
    offset = len(MAGIC_BATCH)
    if len(data) < offset + _LENGTH.size:
        raise SerializationError(
            f"truncated report batch at offset {len(data)}: need "
            f"{offset + _LENGTH.size} bytes for the header length, have {len(data)}"
        )
    (header_length,) = _LENGTH.unpack_from(data, offset)
    offset += _LENGTH.size
    if header_length > len(data) - offset:
        raise SerializationError(
            f"truncated report batch at offset {len(data)}: header declares "
            f"{header_length} bytes but only {len(data) - offset} remain "
            f"after offset {offset}"
        )
    try:
        header = json.loads(data[offset : offset + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt batch header JSON in bytes "
            f"[{offset}, {offset + header_length}): {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("batch_kind") != REPORT_BATCH_KIND:
        kind = header.get("batch_kind") if isinstance(header, dict) else None
        raise SerializationError(
            f"corrupt batch header JSON in bytes "
            f"[{offset}, {offset + header_length}): batch_kind "
            f"{kind!r} is not {REPORT_BATCH_KIND!r}"
        )
    count = header.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise SerializationError(
            f"corrupt batch header JSON in bytes "
            f"[{offset}, {offset + header_length}): 'count' must be a "
            f"non-negative integer, got {count!r}"
        )
    return data, header, offset + header_length


def report_batch_header(data) -> dict:
    """Decode only the JSON header of a framed report batch.

    Cheap accounting/routing helper: the gateway validates a batch's
    ``protocol`` spec and reads ``count`` / ``n_users`` from here without
    touching the report frames.
    """
    _, header, _ = _decode_batch_header(data)
    return header


def unpack_report_batch(data) -> Tuple[dict, List[bytes]]:
    """Inverse of :func:`pack_report_batch`: return ``(header, frames)``.

    ``frames`` is the list of packed report byte strings, in batch order;
    decode each with ``Report.from_bytes``.  Truncated frames, a frame
    count that disagrees with the header, or trailing garbage after the
    last frame all raise :class:`SerializationError` with the offending
    byte offset.
    """
    data, header, offset = _decode_batch_header(data)
    count = header["count"]
    frames: List[bytes] = []
    for index in range(count):
        if len(data) - offset < _LENGTH.size:
            raise SerializationError(
                f"truncated report batch at offset {offset}: need "
                f"{_LENGTH.size} bytes for the length of frame "
                f"{index}/{count}, have {len(data) - offset}"
            )
        (frame_length,) = _LENGTH.unpack_from(data, offset)
        offset += _LENGTH.size
        if frame_length > len(data) - offset:
            raise SerializationError(
                f"truncated report batch at offset {offset}: frame "
                f"{index}/{count} declares {frame_length} bytes but only "
                f"{len(data) - offset} remain"
            )
        frames.append(data[offset : offset + frame_length])
        offset += frame_length
    if offset != len(data):
        raise SerializationError(
            f"trailing garbage after frame {count - 1}/{count}: "
            f"{len(data) - offset} unexpected bytes at offset {offset}"
        )
    return header, frames


# --------------------------------------------------------------------- #
# WAL segments: the durable ingest log of the gateway
# --------------------------------------------------------------------- #
#: ``wal_kind`` tag every WAL segment declares in its header.
WAL_SEGMENT_KIND = "ingest-wal"

_CRC = struct.Struct("<I")


def pack_wal_segment_header(epoch: int, extra: Optional[dict] = None) -> bytes:
    """The on-disk prefix of one WAL segment file.

    ``MAGIC_WAL | u64 header length | JSON header`` -- the header names
    the epoch the segment belongs to, so recovery never depends on file
    names alone.
    """
    header = {"wal_kind": WAL_SEGMENT_KIND, "epoch": int(epoch)}
    if extra:
        header.update(extra)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC_WAL + _LENGTH.pack(len(encoded)) + encoded


def read_wal_segment_header(data) -> Tuple[dict, int]:
    """Decode a segment's header; return ``(header, records_offset)``.

    Unlike record scanning, a segment whose *header* is damaged is
    unusable and raises :class:`SerializationError` -- the header is
    written in one small atomic-in-practice append before any record, so
    a torn header means the file is not a WAL segment at all.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    if not data.startswith(MAGIC_WAL):
        preview = bytes(data[: len(MAGIC_WAL)])
        raise SerializationError(
            f"bad magic at offset 0: {preview!r} is not a WAL segment "
            f"(expected {MAGIC_WAL!r})"
        )
    offset = len(MAGIC_WAL)
    if len(data) < offset + _LENGTH.size:
        raise SerializationError(
            f"truncated WAL segment at offset {len(data)}: need "
            f"{offset + _LENGTH.size} bytes for the header length"
        )
    (header_length,) = _LENGTH.unpack_from(data, offset)
    offset += _LENGTH.size
    if header_length > len(data) - offset:
        raise SerializationError(
            f"truncated WAL segment at offset {len(data)}: header declares "
            f"{header_length} bytes but only {len(data) - offset} remain"
        )
    try:
        header = json.loads(data[offset : offset + header_length].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt WAL segment header in bytes "
            f"[{offset}, {offset + header_length}): {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("wal_kind") != WAL_SEGMENT_KIND:
        kind = header.get("wal_kind") if isinstance(header, dict) else None
        raise SerializationError(
            f"corrupt WAL segment header: wal_kind {kind!r} is not "
            f"{WAL_SEGMENT_KIND!r}"
        )
    return header, offset + header_length


def pack_wal_record(meta: dict, blob: bytes) -> bytes:
    """Frame one WAL record: CRC + length + (JSON meta, payload blob).

    ``u32 crc32(payload) | u64 payload length | payload`` where the
    payload is ``u64 meta length | meta JSON | blob``.  The CRC covers
    the whole payload so a torn or bit-flipped tail is detected by
    :func:`scan_wal_segment` instead of being replayed as garbage.
    """
    encoded = json.dumps(dict(meta or {}), sort_keys=True).encode("utf-8")
    payload = _LENGTH.pack(len(encoded)) + encoded + bytes(blob)
    return _CRC.pack(zlib.crc32(payload)) + _LENGTH.pack(len(payload)) + payload


def scan_wal_segment(data) -> Tuple[dict, List[Tuple[dict, bytes]], Optional[int]]:
    """Decode every intact record of a WAL segment, tolerating a torn tail.

    Returns ``(header, records, torn_offset)``: ``records`` is the list
    of ``(meta, blob)`` pairs that passed their CRC, in append order, and
    ``torn_offset`` is the byte offset of the first truncated/corrupt
    record (``None`` for a clean segment).  Everything *after* a bad
    record is discarded -- the log is append-only, so a damaged record
    means the process died mid-append and nothing beyond it was ever
    acknowledged.
    """
    header, offset = read_wal_segment_header(data)
    data = bytes(data)
    records: List[Tuple[dict, bytes]] = []
    while offset < len(data):
        start = offset
        if len(data) - offset < _CRC.size + _LENGTH.size:
            return header, records, start
        (crc,) = _CRC.unpack_from(data, offset)
        (payload_length,) = _LENGTH.unpack_from(data, offset + _CRC.size)
        offset += _CRC.size + _LENGTH.size
        if payload_length > len(data) - offset:
            return header, records, start
        payload = data[offset : offset + payload_length]
        offset += payload_length
        if zlib.crc32(payload) != crc:
            return header, records, start
        if payload_length < _LENGTH.size:
            return header, records, start
        (meta_length,) = _LENGTH.unpack_from(payload, 0)
        if meta_length > payload_length - _LENGTH.size:
            return header, records, start
        try:
            meta = json.loads(
                payload[_LENGTH.size : _LENGTH.size + meta_length].decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError):
            return header, records, start
        if not isinstance(meta, dict):
            return header, records, start
        records.append((meta, payload[_LENGTH.size + meta_length :]))
    return header, records, None


# --------------------------------------------------------------------- #
# epoch segments: the out-of-core store's per-epoch files
# --------------------------------------------------------------------- #
#: ``seg_kind`` tag every epoch segment declares in its header.
EPOCH_SEGMENT_KIND = "epoch-segment"

#: Layout version of the epoch-segment contents.
EPOCH_SEGMENT_FORMAT = 1

_SEG_ALIGN = 8


def _pad_to(length: int, align: int = _SEG_ALIGN) -> int:
    """Bytes of padding needed to advance ``length`` to a multiple of ``align``."""
    return (-length) % align


def pack_epoch_segment(
    epoch: int,
    spec_hash: str,
    state_blob: bytes,
    *,
    n_reports: int = 0,
    pushdown: Optional[dict] = None,
    aggregate: Optional[dict] = None,
) -> bytes:
    """Frame one sealed epoch for the out-of-core store.

    ``MAGIC_SEG | u64 header length | JSON header | body | u32 crc32``
    where the CRC covers every byte before it, so torn tails and bit
    flips are detected before any content is trusted.  The body holds
    the epoch's packed v1 accumulator ``state_blob`` followed by the
    optional *pushdown* region: the raw little-endian int64 sufficient
    statistic vectors of each oracle child, 8-byte aligned so a reader
    can view them zero-copy straight out of a memory map.  All offsets
    in the header are relative to the body start; the header JSON is
    space-padded so the body itself starts 8-byte aligned.

    ``pushdown`` (optional) is a plain-data description of the state::

        {"label": ..., "config": {...}, "n_users": N,
         "children": [{"oracle_kind": ..., "config": {...},
                       "n_reports": N, "vectors": {name: int64 array}}]}

    Summing the pushdown vectors of many segments elementwise is exactly
    the accumulator merge (integer addition is associative and
    commutative), which is what makes store-backed windowed queries
    bit-identical to the in-RAM merge path.

    ``aggregate`` (optional) marks the segment as a *pre-merged
    aggregate* over ``{"level": L, "start": S, "count": 2**L}``
    consecutive epochs rather than a single sealed epoch; ``epoch`` is
    then the block start ``S``.  Aggregates reuse the exact same framing
    so every reader (CRC check, state decode, pushdown views) applies
    unchanged.
    """
    state_blob = bytes(state_blob)
    body = bytearray(state_blob)
    header: dict = {
        "seg_kind": EPOCH_SEGMENT_KIND,
        "format": EPOCH_SEGMENT_FORMAT,
        "epoch": int(epoch),
        "spec_hash": str(spec_hash),
        "n_reports": int(n_reports),
        "state": {"offset": 0, "length": len(state_blob)},
    }
    if aggregate is not None:
        header["aggregate"] = {
            "level": int(aggregate["level"]),
            "start": int(aggregate["start"]),
            "count": int(aggregate["count"]),
        }
    if pushdown is not None:
        body += b"\x00" * _pad_to(len(body))
        children = []
        for child in pushdown.get("children", []):
            vectors = []
            for name, vector in child["vectors"].items():
                vector = np.ascontiguousarray(vector, dtype="<i8")
                offset = len(body)
                body += vector.tobytes()
                vectors.append(
                    {"name": str(name), "shape": list(vector.shape), "offset": offset}
                )
            children.append(
                {
                    "oracle_kind": child["oracle_kind"],
                    "config": child["config"],
                    "n_reports": int(child["n_reports"]),
                    "vectors": vectors,
                }
            )
        header["pushdown"] = {
            "label": pushdown["label"],
            "config": pushdown["config"],
            "n_users": int(pushdown["n_users"]),
            "children": children,
        }
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    # Pad the header (JSON tolerates trailing spaces) so the body -- and
    # with it every vector offset -- lands 8-byte aligned in the file.
    prefix = len(MAGIC_SEG) + _LENGTH.size
    encoded += b" " * _pad_to(prefix + len(encoded))
    out = bytearray(MAGIC_SEG)
    out += _LENGTH.pack(len(encoded))
    out += encoded
    out += body
    out += _CRC.pack(zlib.crc32(out))
    return bytes(out)


def read_epoch_segment(data) -> Tuple[dict, int]:
    """Validate one epoch segment; return ``(header, body_offset)``.

    ``data`` may be bytes or a memory map; the whole-file CRC is checked
    here, once, so subsequent zero-copy views over the body need no
    further validation.  A short file, a bad magic, garbage JSON, or a
    CRC mismatch (torn or bit-flipped tail) each raise
    :class:`SerializationError` naming what went wrong.
    """
    try:
        view = memoryview(data)
    except TypeError:
        raise SerializationError(
            f"expected bytes or a buffer, got {type(data).__name__}"
        ) from None
    try:
        return _read_epoch_segment(view)
    except SerializationError:
        # Release the view before the exception propagates: a traceback
        # frame keeps locals alive, and a still-exported view would stop
        # the caller from closing a memory map it is validating.
        view.release()
        raise


def _read_epoch_segment(view: memoryview) -> Tuple[dict, int]:
    if len(view) < len(MAGIC_SEG) or bytes(view[: len(MAGIC_SEG)]) != MAGIC_SEG:
        preview = bytes(view[: len(MAGIC_SEG)])
        raise SerializationError(
            f"bad magic at offset 0: {preview!r} is not an epoch segment "
            f"(expected {MAGIC_SEG!r})"
        )
    offset = len(MAGIC_SEG)
    if len(view) < offset + _LENGTH.size + _CRC.size:
        raise SerializationError(
            f"truncated epoch segment: {len(view)} bytes is too short to "
            "hold the header length and trailing CRC (torn tail?)"
        )
    (header_length,) = _LENGTH.unpack_from(view, offset)
    offset += _LENGTH.size
    if header_length > len(view) - offset - _CRC.size:
        raise SerializationError(
            f"truncated epoch segment: header declares {header_length} bytes "
            f"but only {len(view) - offset - _CRC.size} remain before the CRC "
            "(torn tail?)"
        )
    (stored_crc,) = _CRC.unpack_from(view, len(view) - _CRC.size)
    actual_crc = zlib.crc32(view[: len(view) - _CRC.size])
    if actual_crc != stored_crc:
        raise SerializationError(
            f"epoch segment failed its CRC check (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}): torn or corrupt segment tail"
        )
    try:
        header = json.loads(bytes(view[offset : offset + header_length]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt epoch segment header in bytes "
            f"[{offset}, {offset + header_length}): {exc}"
        ) from exc
    if not isinstance(header, dict) or header.get("seg_kind") != EPOCH_SEGMENT_KIND:
        kind = header.get("seg_kind") if isinstance(header, dict) else None
        raise SerializationError(
            f"corrupt epoch segment header: seg_kind {kind!r} is not "
            f"{EPOCH_SEGMENT_KIND!r}"
        )
    if int(header.get("format", 0)) != EPOCH_SEGMENT_FORMAT:
        raise SerializationError(
            f"epoch segment format {header.get('format')!r} is not supported "
            f"by this build (expected {EPOCH_SEGMENT_FORMAT})"
        )
    return header, offset + header_length


def segment_state_bytes(data, header: dict, body_offset: int) -> bytes:
    """The packed v1 accumulator state embedded in a validated segment."""
    view = memoryview(data)
    state = header.get("state", {})
    start = body_offset + int(state.get("offset", 0))
    length = int(state.get("length", -1))
    if length < 0 or start + length > len(view) - _CRC.size:
        raise SerializationError(
            f"epoch segment state descriptor {state!r} points outside the body"
        )
    return bytes(view[start : start + length])


def segment_pushdown_children(data, header: dict, body_offset: int) -> List[dict]:
    """Zero-copy views of a validated segment's pushdown vectors.

    Returns one dict per oracle child -- ``oracle_kind``, ``config``,
    ``n_reports`` and ``vectors`` (name -> read-only int64 array viewing
    the underlying buffer) -- or raises if the segment carries no
    pushdown region or a descriptor points outside the body.
    """
    pushdown = header.get("pushdown")
    if not isinstance(pushdown, dict):
        raise SerializationError("epoch segment carries no pushdown region")
    view = memoryview(data)
    limit = len(view) - _CRC.size
    children: List[dict] = []
    for child in pushdown.get("children", []):
        vectors: Dict[str, np.ndarray] = {}
        for descriptor in child.get("vectors", []):
            shape = tuple(int(size) for size in descriptor["shape"])
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            start = body_offset + int(descriptor["offset"])
            if start + 8 * count > limit:
                raise SerializationError(
                    f"epoch segment pushdown vector {descriptor!r} points "
                    "outside the body"
                )
            vectors[descriptor["name"]] = np.frombuffer(
                view, dtype="<i8", count=count, offset=start
            ).reshape(shape)
        children.append(
            {
                "oracle_kind": child["oracle_kind"],
                "config": child["config"],
                "n_reports": int(child["n_reports"]),
                "vectors": vectors,
            }
        )
    return children


def pack_child(child_bytes: bytes) -> np.ndarray:
    """View packed child bytes as a ``uint8`` array for nesting in a blob."""
    return np.frombuffer(child_bytes, dtype=np.uint8)


def unpack_child(array: np.ndarray) -> bytes:
    """Recover the packed bytes of a nested child from its ``uint8`` array."""
    return np.asarray(array, dtype=np.uint8).tobytes()
