"""Binary wire format for accumulator states, reports, batches, logs and segments.

Sharded aggregation only works if the intermediate objects -- the reports
clients upload and the sufficient-statistics accumulators servers keep --
can cross process and machine boundaries.  Every container this module
defines starts with the same prefix, decoded in one place
(:func:`_read_prefix`)::

    MAGIC (9 bytes) | u64 JSON length | JSON document

and the magic names the container:

* ``REPROACC\\x03`` -- a packed *blob* (:func:`pack_blob` /
  :func:`unpack_blob`): every accumulator state and report.  The JSON
  document is ``{"header": {...}, "arrays": [{"name", "dtype", "shape",
  "offset"}, ...]}`` and the body after it holds each array's raw
  little-endian bytes.  The JSON is space-padded so the body starts
  8-byte aligned and every array sits at an 8-byte-aligned offset, so a
  decoder views each array in place (``np.frombuffer``, read-only) with
  no parser beyond ``json``.  The header carries small metadata (state
  kind, protocol spec, report counts, and -- for the exact summation
  accumulator -- arbitrary-precision integer sums, which JSON keeps
  lossless).  Nested objects (e.g. the per-level oracle accumulators of a
  hierarchical state) embed each child's packed bytes as a ``uint8``
  array (:func:`pack_child`); since every level is aligned, a child's
  arrays stay aligned at any depth.
* ``REPROBAT\\x01`` -- a *report batch* (:func:`pack_report_batch`): the
  ingest gateway's wire format, a JSON header with the protocol spec and
  frame bookkeeping followed by length-prefixed packed reports, so the
  gateway routes frames without decoding a single array.
* ``REPROWAL\\x01`` -- a *WAL segment* (:mod:`repro.service.wal`): a
  header naming the epoch, then CRC-protected records of a JSON meta
  document plus one report batch.  A WAL segment is expected to be
  *torn*, so :func:`scan_wal_segment` reports -- rather than raises on
  -- a truncated or corrupt tail.
* ``REPROSEG\\x02`` -- an *epoch segment* of the out-of-core store
  (:mod:`repro.engine.store`): a JSON header naming the epoch and its
  protocol spec hash, the epoch's packed state blob as the body, and a
  trailing CRC32 over everything before it.  The store views the state's
  count vectors straight out of a memory map.

Every array descriptor is validated before it is viewed: the dtype comes
from a fixed little-endian set, the shape is a list of non-negative ints
whose byte size fits the blob, the offset is aligned and in bounds, and
names are unique.  Malformed input of any kind -- wrong magic, a removed
format version, truncation, garbage JSON, a bad array descriptor --
raises :class:`SerializationError` with the byte offset where decoding
failed, never a raw ``struct.error`` / ``KeyError`` / numpy error.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

#: Blob tag: accumulator states and reports.
MAGIC = b"REPROACC\x03"

#: Report-batch framing tag: the network wire format of the ingest
#: gateway (:mod:`repro.service`) and of ``encode --output -``.
MAGIC_BATCH = b"REPROBAT\x01"

#: WAL segment framing tag: the gateway's durable ingest log
#: (:mod:`repro.service.wal`), one segment file per epoch.
MAGIC_WAL = b"REPROWAL\x01"

#: Epoch-segment framing tag: one sealed epoch of the out-of-core store
#: (:mod:`repro.engine.store`), CRC-framed and memory-mappable.
MAGIC_SEG = b"REPROSEG\x02"

_LENGTH = struct.Struct("<Q")

_CRC = struct.Struct("<I")

_ALIGN = 8

#: The array dtypes a blob may hold (all little-endian or byte-sized).
_DTYPES = {name: np.dtype(name) for name in ("|b1", "|u1", "<i8", "<f8")}

#: numpy's dimension limit; deeper shapes cannot be viewed.
_MAX_NDIM = 32

#: Bound on an array's byte size, zero dimensions ignored: numpy refuses
#: even an empty array whose other dimensions overflow its index type.
_MAX_EXTENT = 2**62


class SerializationError(ValueError):
    """Raised when a byte blob cannot be decoded as a packed state/report."""


def _pad_to(length: int) -> int:
    """Bytes of padding needed to advance ``length`` to a multiple of 8."""
    return (-length) % _ALIGN


def _byte_view(data) -> memoryview:
    """A read-only flat byte view of ``data`` (bytes, mmap, array, ...)."""
    try:
        view = memoryview(data)
        if view.ndim != 1 or view.itemsize != 1:
            view = view.cast("B")
    except TypeError:
        raise SerializationError(
            f"expected bytes or a buffer, got {type(data).__name__}"
        ) from None
    return view.toreadonly()


def _read_prefix(data, magic: bytes, what: str) -> Tuple[memoryview, dict, int]:
    """Decode ``magic | u64 length | JSON object`` at the start of ``data``.

    Returns ``(view, document, end)``: a read-only byte view of ``data``,
    the decoded JSON object and the offset just past it.  A magic that
    differs from ``magic`` only in its version byte names the removed
    format it belongs to.
    """
    view = _byte_view(data)
    head = bytes(view[: len(magic)])
    if head != magic:
        if len(head) == len(magic) and head[:-1] == magic[:-1]:
            raise SerializationError(
                f"removed format at offset 0: {head!r} is a {what} in a format "
                f"version this build no longer reads (it reads {magic!r})"
            )
        raise SerializationError(
            f"bad magic at offset 0: {head!r} is not a {what} "
            f"(expected {magic!r})"
        )
    start = len(magic) + _LENGTH.size
    if len(view) < start:
        raise SerializationError(
            f"truncated {what} at offset {len(view)}: need {start} bytes for "
            f"the header length, have {len(view)}"
        )
    (length,) = _LENGTH.unpack_from(view, len(magic))
    if length > len(view) - start:
        raise SerializationError(
            f"truncated {what} at offset {len(view)}: header declares {length} "
            f"bytes but only {len(view) - start} remain after offset {start}"
        )
    end = start + length
    try:
        document = json.loads(bytes(view[start:end]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # incl. UTF-8 and JSON errors
        raise SerializationError(
            f"corrupt header JSON of a {what} in bytes [{start}, {end}): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise SerializationError(
            f"corrupt header JSON of a {what} in bytes [{start}, {end}): "
            f"expected an object, got {type(document).__name__}"
        )
    return view, document, end


def _pack_prefix(magic: bytes, document: dict) -> bytes:
    """``magic | u64 length | JSON``, space-padded to an 8-aligned end."""
    encoded = json.dumps(document, sort_keys=True).encode("utf-8")
    encoded += b" " * _pad_to(len(magic) + _LENGTH.size + len(encoded))
    return magic + _LENGTH.pack(len(encoded)) + encoded


# --------------------------------------------------------------------- #
# blobs: accumulator states and reports
# --------------------------------------------------------------------- #
def pack_blob(header: dict, arrays: Mapping[str, np.ndarray] = ()) -> bytes:
    """Serialize a JSON-able header plus named numeric arrays to bytes.

    ``header`` must be JSON serializable (Python's ``json`` keeps integer
    values exact at arbitrary precision, which the exact accumulators rely
    on).  Each array is written raw at an 8-byte-aligned body offset; its
    dtype must be one of ``bool``, ``uint8``, ``int64`` or ``float64``.
    """
    table: List[dict] = []
    chunks: List[object] = []
    size = 0
    for name, array in dict(arrays or {}).items():
        array = np.ascontiguousarray(array)
        if array.dtype.str.startswith(">"):
            array = array.astype(array.dtype.newbyteorder("<"))
        if array.dtype.str not in _DTYPES:
            raise SerializationError(
                f"cannot pack array {name!r} of dtype {array.dtype}; a blob "
                f"holds only {sorted(_DTYPES)}"
            )
        padding = _pad_to(size)
        chunks.append(bytes(padding))
        size += padding
        table.append(
            {
                "name": str(name),
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": size,
            }
        )
        chunks.append(array)
        size += array.nbytes
    prefix = _pack_prefix(MAGIC, {"header": header, "arrays": table})
    return b"".join([prefix, *chunks])


def _blob_document(data) -> Tuple[memoryview, dict, list, int]:
    """Decode a blob's prefix; return ``(view, header, table, body)``."""
    view, document, body = _read_prefix(data, MAGIC, "packed repro state/report")
    where = f"corrupt header JSON in bytes [{len(MAGIC) + _LENGTH.size}, {body})"
    header = document.get("header", {})
    if not isinstance(header, dict):
        raise SerializationError(
            f"{where}: 'header' must be an object, got {type(header).__name__}"
        )
    table = document.get("arrays", [])
    if not isinstance(table, list):
        raise SerializationError(
            f"{where}: 'arrays' must be a list of array descriptors, got "
            f"{type(table).__name__}"
        )
    return view, header, table, body


def peek_header(data) -> dict:
    """Decode only the JSON header of a packed blob (arrays untouched).

    Cheap dispatch helper: lets callers route a blob by ``file_kind`` /
    ``state_kind`` without viewing a single array.
    """
    return _blob_document(data)[1]


def _corrupt_descriptor(index: int, entry, body: int, reason: str) -> SerializationError:
    return SerializationError(
        f"corrupt array descriptor {index} ({entry!r}) of a blob whose body "
        f"starts at offset {body}: {reason}"
    )


def _view_array(
    view: memoryview, body: int, index: int, entry, arrays: Dict[str, np.ndarray]
) -> Tuple[str, np.ndarray, int]:
    """Validate one array descriptor; return ``(name, array, end)``."""
    if not isinstance(entry, dict):
        raise _corrupt_descriptor(index, entry, body, "expected an object")
    name = entry.get("name")
    if not isinstance(name, str) or name in arrays:
        raise _corrupt_descriptor(
            index, entry, body, "the name must be a string no other array uses"
        )
    dtype = entry.get("dtype")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise _corrupt_descriptor(
            index, entry, body, f"the dtype must be one of {sorted(_DTYPES)}"
        )
    itemsize = _DTYPES[dtype].itemsize
    shape = entry.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) > _MAX_NDIM
        or not all(type(size) is int and size >= 0 for size in shape)
        or math.prod(size or 1 for size in shape) * itemsize >= _MAX_EXTENT
    ):
        raise _corrupt_descriptor(
            index,
            entry,
            body,
            f"the shape must be a list of at most {_MAX_NDIM} non-negative "
            "ints whose byte size fits",
        )
    offset = entry.get("offset")
    if type(offset) is not int or offset < 0 or (body + offset) % _ALIGN:
        raise _corrupt_descriptor(
            index, entry, body, f"the offset must be a non-negative multiple of {_ALIGN}"
        )
    count = math.prod(shape)
    end = offset + count * itemsize
    if end > len(view) - body:
        raise _corrupt_descriptor(
            index,
            entry,
            body,
            f"the array ends at offset {body + end}, past the end of the "
            f"{len(view)}-byte blob",
        )
    array = np.frombuffer(view, dtype=_DTYPES[dtype], count=count, offset=body + offset)
    return name, array.reshape(shape), end


def unpack_blob(data) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Inverse of :func:`pack_blob`: return ``(header, arrays)``.

    ``data`` may be bytes or any byte buffer (a memory map, a nested
    child's ``uint8`` array).  The arrays are read-only views into it;
    callers that keep or mutate them copy.
    """
    view, header, table, body = _blob_document(data)
    arrays: Dict[str, np.ndarray] = {}
    end = 0
    for index, entry in enumerate(table):
        name, arrays[name], array_end = _view_array(view, body, index, entry, arrays)
        end = max(end, array_end)
    if body + end != len(view):
        raise SerializationError(
            f"corrupt blob: its arrays end at offset {body + end} but the "
            f"blob is {len(view)} bytes long"
        )
    return header, arrays


def pack_child(child_bytes: bytes) -> np.ndarray:
    """View packed child bytes as a ``uint8`` array for nesting in a blob."""
    return np.frombuffer(child_bytes, dtype=np.uint8)


def unpack_child(array: np.ndarray) -> memoryview:
    """A zero-copy byte view of a nested child blob from its ``uint8`` array."""
    return _byte_view(array)


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
    instances (or their already-packed bytes); each report stays a packed
    blob, so the frame is a pure container -- the gateway can split and
    fan frames out to shard workers without decoding a single array.
    The header records ``count`` and the total ``n_users`` so receivers
    can account for a batch from the header alone (for packed bytes the
    user count is peeked from each report's own header).
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


def _read_batch_header(data) -> Tuple[memoryview, dict, int]:
    """A batch's prefix plus its kind and count checks."""
    view, header, offset = _read_prefix(data, MAGIC_BATCH, "framed report batch")
    if header.get("batch_kind") != REPORT_BATCH_KIND:
        raise SerializationError(
            f"corrupt report batch header: batch_kind "
            f"{header.get('batch_kind')!r} is not {REPORT_BATCH_KIND!r}"
        )
    count = header.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise SerializationError(
            f"corrupt report batch header: 'count' must be a non-negative "
            f"integer, got {count!r}"
        )
    return view, header, offset


def report_batch_header(data) -> dict:
    """Decode only the JSON header of a framed report batch.

    Cheap accounting/routing helper: the gateway validates a batch's
    ``protocol`` spec and reads ``count`` / ``n_users`` from here without
    touching the report frames.
    """
    return _read_batch_header(data)[1]


def unpack_report_batch(data) -> Tuple[dict, List[bytes]]:
    """Inverse of :func:`pack_report_batch`: return ``(header, frames)``.

    ``frames`` is the list of packed report byte strings, in batch order;
    decode each with ``Report.from_bytes``.  Truncated frames, a frame
    count that disagrees with the header, or trailing garbage after the
    last frame all raise :class:`SerializationError` with the offending
    byte offset.
    """
    view, header, offset = _read_batch_header(data)
    count = header["count"]
    frames: List[bytes] = []
    for index in range(count):
        if len(view) - offset < _LENGTH.size:
            raise SerializationError(
                f"truncated report batch at offset {offset}: need "
                f"{_LENGTH.size} bytes for the length of frame "
                f"{index}/{count}, have {len(view) - offset}"
            )
        (frame_length,) = _LENGTH.unpack_from(view, offset)
        offset += _LENGTH.size
        if frame_length > len(view) - offset:
            raise SerializationError(
                f"truncated report batch at offset {offset}: frame "
                f"{index}/{count} declares {frame_length} bytes but only "
                f"{len(view) - offset} remain"
            )
        frames.append(bytes(view[offset : offset + frame_length]))
        offset += frame_length
    if offset != len(view):
        raise SerializationError(
            f"trailing garbage after frame {count - 1}/{count}: "
            f"{len(view) - offset} unexpected bytes at offset {offset}"
        )
    return header, frames


# --------------------------------------------------------------------- #
# WAL segments: the durable ingest log of the gateway
# --------------------------------------------------------------------- #
#: ``wal_kind`` tag every WAL segment declares in its header.
WAL_SEGMENT_KIND = "ingest-wal"


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
    _, header, offset = _read_prefix(data, MAGIC_WAL, "WAL segment")
    if header.get("wal_kind") != WAL_SEGMENT_KIND:
        raise SerializationError(
            f"corrupt WAL segment header: wal_kind {header.get('wal_kind')!r} "
            f"is not {WAL_SEGMENT_KIND!r}"
        )
    return header, offset


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


def pack_epoch_segment(
    epoch: int,
    spec_hash: str,
    state_blob: bytes,
    *,
    n_reports: int = 0,
    aggregate: Optional[dict] = None,
) -> bytes:
    """Frame one sealed epoch for the out-of-core store.

    ``MAGIC_SEG | u64 header length | JSON header | state blob | u32 crc32``
    where the CRC covers every byte before it, so torn tails and bit
    flips are detected before any content is trusted.  The header JSON
    is space-padded so the state blob -- and with it every array inside
    it, at any nesting depth -- lands 8-byte aligned in the file, which
    lets a reader view the count vectors straight out of a memory map.

    ``aggregate`` (optional) marks the segment as a *pre-merged
    aggregate* over ``{"level": L, "start": S, "count": 2**L}``
    consecutive epochs rather than a single sealed epoch; ``epoch`` is
    then the block start ``S``.  Aggregates reuse the exact same framing
    so every reader (CRC check, state decode, gathered views) applies
    unchanged.
    """
    header: dict = {
        "seg_kind": EPOCH_SEGMENT_KIND,
        "epoch": int(epoch),
        "spec_hash": str(spec_hash),
        "n_reports": int(n_reports),
    }
    if aggregate is not None:
        header["aggregate"] = {
            "level": int(aggregate["level"]),
            "start": int(aggregate["start"]),
            "count": int(aggregate["count"]),
        }
    out = bytearray(_pack_prefix(MAGIC_SEG, header))
    out += state_blob
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
    view = _byte_view(data)
    try:
        return _read_epoch_segment(view)
    finally:
        # Release the view before returning or raising: a still-exported
        # view (kept alive by a traceback frame, say) would stop the
        # caller from closing a memory map it is validating.
        view.release()


def _read_epoch_segment(view: memoryview) -> Tuple[dict, int]:
    if len(view) < len(MAGIC_SEG) + _LENGTH.size + _CRC.size:
        raise SerializationError(
            f"truncated epoch segment: {len(view)} bytes is too short to "
            "hold the header length and trailing CRC (torn tail?)"
        )
    limit = len(view) - _CRC.size
    with view[:limit] as framed:
        _, header, body_offset = _read_prefix(framed, MAGIC_SEG, "epoch segment")
        (stored_crc,) = _CRC.unpack_from(view, limit)
        actual_crc = zlib.crc32(framed)
    if actual_crc != stored_crc:
        raise SerializationError(
            f"epoch segment failed its CRC check (stored {stored_crc:#010x}, "
            f"computed {actual_crc:#010x}): torn or corrupt segment tail"
        )
    if header.get("seg_kind") != EPOCH_SEGMENT_KIND:
        raise SerializationError(
            f"corrupt epoch segment header: seg_kind {header.get('seg_kind')!r} "
            f"is not {EPOCH_SEGMENT_KIND!r}"
        )
    return header, body_offset


def segment_state(data, body_offset: int) -> memoryview:
    """A zero-copy view of the state blob inside a validated segment."""
    view = _byte_view(data)
    return view[body_offset : len(view) - _CRC.size]
