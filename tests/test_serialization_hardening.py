"""Hardening tests for the wire format (:mod:`repro.core.serialization`).

The contract: *any* malformed byte input -- wrong magic, truncation at any
offset, garbage JSON, a malformed array descriptor, a removed format
version, mutated-but-parseable headers -- surfaces as
:class:`SerializationError` with offset context, never as a raw
``struct.error`` / ``KeyError`` / ``UnicodeDecodeError`` / numpy error
from the decoder internals.  Fuzz-style sweeps mutate valid envelopes --
and the manifest and segments of a sealed epoch store -- to exercise
every decode stage.
"""

import ast
import io
import json
import os
import shutil
import struct

import numpy as np
import pytest

from repro import FlatRangeQuery, HierarchicalHistogram
from repro.core.serialization import (
    MAGIC,
    SerializationError,
    pack_blob,
    pack_report_batch,
    report_batch_header,
    scan_wal_segment,
    unpack_blob,
    unpack_report_batch,
)
from repro.core.session import AccumulatorState, Report
from repro.engine import Engine
from repro.service import IngestWAL


@pytest.fixture(scope="module")
def server_blob() -> bytes:
    protocol = HierarchicalHistogram(32, 1.1, branching=4)
    server = protocol.server()
    server.ingest(protocol.client().encode_batch(np.arange(32), rng=0))
    return server.to_bytes()


@pytest.fixture(scope="module")
def report_blob() -> bytes:
    protocol = FlatRangeQuery(16, 1.1, oracle="oue")
    return protocol.client().encode_batch(np.arange(16), rng=0).to_bytes()


def _legacy_blob(header: dict, arrays: dict) -> bytes:
    """A blob in the removed ``REPROACC\\x01`` layout (``.npy`` blocks)."""
    body = io.BytesIO()
    for array in arrays.values():
        np.lib.format.write_array(body, np.ascontiguousarray(array))
    document = json.dumps({"header": header, "arrays": list(arrays)}).encode()
    return (
        b"REPROACC\x01"
        + struct.pack("<Q", len(document))
        + document
        + body.getvalue()
    )


class TestRemovedFormat:
    def test_v1_report_and_state_name_the_removed_format(self, report_blob):
        header, arrays = unpack_blob(report_blob)
        legacy_report = _legacy_blob(header, arrays)
        with pytest.raises(SerializationError, match="removed format"):
            Report.from_bytes(legacy_report)
        legacy_state = _legacy_blob(
            {
                "state_kind": "oracle",
                "oracle_kind": "oue",
                "config": {},
                "n_reports": 3,
            },
            {"counts": np.arange(4)},
        )
        with pytest.raises(SerializationError, match="removed format"):
            AccumulatorState.from_bytes(legacy_state)


class TestAlignedViews:
    def test_blobs_are_aligned_at_every_depth(self, server_blob):
        # A nested child's arrays land 8-aligned in the outer buffer.
        header, arrays = unpack_blob(server_blob)
        assert server_blob.startswith(MAGIC)
        base = np.frombuffer(server_blob, dtype=np.uint8).ctypes.data
        for index in range(header["num_children"]):
            child = arrays[f"child_{index}"]
            assert (child.ctypes.data - base) % 8 == 0
            _, vectors = unpack_blob(child)
            for vector in vectors.values():
                assert (vector.ctypes.data - base) % 8 == 0
                assert not vector.flags.writeable

    def test_decoded_states_are_writable_copies(self, server_blob):
        buffer = bytearray(server_blob)
        state = AccumulatorState.from_bytes(buffer)
        before = [
            {name: vector.copy() for name, vector in child.vectors.items()}
            for child in state.children
        ]
        buffer[:] = bytes(len(buffer))  # the source changes under the state
        for child, expected in zip(state.children, before):
            for name, vector in child.vectors.items():
                assert vector.flags.writeable
                assert np.array_equal(vector, expected[name])
        state.merge(AccumulatorState.from_bytes(server_blob))
        assert state.n_reports == 64


def _with_table(table, body: bytes = bytes(64)) -> bytes:
    """A blob whose array table is ``table`` over an 8-aligned ``body``."""
    document = json.dumps({"header": {}, "arrays": table}).encode()
    document += b" " * ((-(len(MAGIC) + 8 + len(document))) % 8)
    return MAGIC + struct.pack("<Q", len(document)) + document + body


class TestArrayTable:
    """Every malformed array descriptor is a SerializationError."""

    GOOD = {"name": "a", "dtype": "<i8", "shape": [8], "offset": 0}

    def _refused(self, **changes):
        blob = _with_table([dict(self.GOOD, **changes)])
        with pytest.raises(SerializationError, match="corrupt array descriptor"):
            unpack_blob(blob)

    def test_the_well_formed_table_decodes(self):
        _, arrays = unpack_blob(_with_table([self.GOOD]))
        assert np.array_equal(arrays["a"], np.zeros(8, np.int64))

    @pytest.mark.parametrize("dtype", ["|O", "O", "<i9", "<c16", "<i4", ">i8", 8, None])
    def test_object_unknown_or_big_endian_dtype(self, dtype):
        self._refused(dtype=dtype)

    @pytest.mark.parametrize(
        "shape",
        [[-1], [1.5], ["8"], [True], 8, None, [2**62, 2**62], [0, 2**70], [1] * 33],
    )
    def test_negative_non_int_or_overflowing_shape(self, shape):
        self._refused(shape=shape)

    def test_size_past_the_end(self):
        self._refused(shape=[9])
        self._refused(shape=[2, 5])

    @pytest.mark.parametrize("offset", [4, 1, -8, 72, 2**64, 8.0, "0", None])
    def test_misaligned_or_out_of_range_offset(self, offset):
        self._refused(offset=offset)

    def test_duplicate_name(self):
        table = [self.GOOD, dict(self.GOOD, shape=[0])]
        with pytest.raises(SerializationError, match="no other array"):
            unpack_blob(_with_table(table))

    def test_non_string_name_and_non_object_entry(self):
        self._refused(name=7)
        with pytest.raises(SerializationError, match="corrupt array descriptor"):
            unpack_blob(_with_table(["a"]))

    @pytest.mark.parametrize("table", [{"a": 1}, "a", 7, None])
    def test_non_list_arrays(self, table):
        with pytest.raises(SerializationError, match="'arrays' must be a list"):
            unpack_blob(_with_table(table))

    def test_trailing_bytes_after_the_last_array(self):
        with pytest.raises(SerializationError, match="arrays end at offset"):
            unpack_blob(_with_table([self.GOOD], bytes(72)))

    def test_pack_refuses_dtypes_outside_the_table(self):
        with pytest.raises(SerializationError, match="cannot pack"):
            pack_blob({}, {"a": np.array(["x"], dtype=object)})
        with pytest.raises(SerializationError, match="cannot pack"):
            pack_blob({}, {"a": np.arange(4, dtype=np.int32)})


class TestNoEvalOnUntrustedBytes:
    def test_every_decode_path_avoids_literal_eval_and_npy(
        self, monkeypatch, tmp_path, server_blob, report_blob
    ):
        protocol = HierarchicalHistogram(16, 1.1, branching=4)
        report = protocol.client().encode_batch(np.arange(16), rng=0)
        batch = pack_report_batch(protocol.spec(), [report, report])
        wal = IngestWAL(str(tmp_path / "wal"))
        wal.append(0, batch, key="k0", worker=0, n_users=32)
        wal.close()
        store_dir = str(tmp_path / "store")
        engine = Engine.open(protocol, store_dir=store_dir)
        for epoch in range(2):
            engine.session(epoch=epoch).absorb(np.arange(16), rng=epoch)
            engine.seal_epoch(epoch)
        engine.checkpoint()
        expected = engine.estimator("all").estimated_frequencies()

        def refuse(*args, **kwargs):
            raise AssertionError("an eval-like parser ran on untrusted bytes")

        monkeypatch.setattr(ast, "literal_eval", refuse)
        monkeypatch.setattr(np.lib.format, "read_array", refuse)

        assert Report.from_bytes(report_blob).n_users == 16
        assert AccumulatorState.from_bytes(server_blob).n_reports == 32
        assert report_batch_header(batch)["count"] == 2
        _, frames = unpack_report_batch(batch)
        assert [Report.from_bytes(frame).n_users for frame in frames] == [16, 16]
        wal = IngestWAL(str(tmp_path / "wal"))
        ((meta, blob),) = wal.scan().open[0].records
        assert meta["key"] == "k0" and blob == batch
        with open(wal.segment_path(0), "rb") as handle:
            _, records, torn = scan_wal_segment(handle.read())
        assert records == [(meta, batch)] and torn is None
        for frame in unpack_report_batch(blob)[1]:
            Report.from_bytes(frame)
        restored = Engine.open(None, store_dir=store_dir)
        for window in ("all", [0], [1]):
            restored.estimator(window).estimated_frequencies()
        assert np.array_equal(
            restored.estimator("all").estimated_frequencies(), expected
        )
        assert restored.store.load_state(0).n_reports == 16


class TestMalformedInput:
    def test_non_bytes_input(self):
        with pytest.raises(SerializationError, match="expected bytes"):
            unpack_blob(12345)
        with pytest.raises(SerializationError, match="expected bytes"):
            unpack_blob(None)

    def test_wrong_magic_reports_offset_zero(self):
        with pytest.raises(SerializationError, match="offset 0"):
            unpack_blob(b"NOTAMAGIC" + b"\x00" * 32)

    def test_empty_and_tiny_inputs(self):
        for blob in (b"", b"R", MAGIC[:4]):
            with pytest.raises(SerializationError, match="offset 0"):
                unpack_blob(blob)
        with pytest.raises(SerializationError, match="truncated"):
            unpack_blob(MAGIC)  # magic but no header length

    def test_header_length_exceeding_payload(self):
        blob = MAGIC + (2**40).to_bytes(8, "little") + b"{}"
        with pytest.raises(SerializationError, match="declares"):
            unpack_blob(blob)

    def test_garbage_header_json(self):
        payload = b"\xff\xfe not json"
        blob = MAGIC + len(payload).to_bytes(8, "little") + payload
        with pytest.raises(SerializationError, match="corrupt header JSON"):
            unpack_blob(blob)

    def test_header_json_of_the_wrong_shape(self):
        for document in (json.dumps([1, 2, 3]), json.dumps({"arrays": "nope"})):
            payload = document.encode()
            blob = MAGIC + len(payload).to_bytes(8, "little") + payload
            with pytest.raises(SerializationError, match="corrupt header JSON"):
                unpack_blob(blob)
        payload = json.dumps({"header": 7, "arrays": []}).encode()
        blob = MAGIC + len(payload).to_bytes(8, "little") + payload
        with pytest.raises(SerializationError, match="'header' must be an object"):
            unpack_blob(blob)

    def test_corrupt_array_descriptor_reports_its_offset(self):
        blob = pack_blob({"k": 1}, {"a": np.arange(8)})
        # Stomp the descriptor's dtype (JSON stays valid, same length).
        corrupt = blob.replace(b'"<i8"', b'"<i9"')
        assert len(corrupt) == len(blob)
        with pytest.raises(
            SerializationError, match=r"corrupt array descriptor 0 .* offset \d+"
        ):
            unpack_blob(corrupt)

    def test_every_truncation_of_a_real_state_fails_loudly(self, server_blob):
        # Sampled prefixes across the whole blob, plus the exact layout
        # boundaries (magic, length field, header end).
        boundaries = {0, 4, len(MAGIC), len(MAGIC) + 8, len(MAGIC) + 9}
        boundaries.update(range(0, len(server_blob) - 1, max(1, len(server_blob) // 97)))
        for cut in sorted(boundaries):
            with pytest.raises(SerializationError):
                AccumulatorState.from_bytes(server_blob[:cut])


def _mutations(blob: bytes, rng: np.random.Generator, rounds: int):
    """Seeded single-byte mutations spread across the whole blob."""
    for _ in range(rounds):
        mutated = bytearray(blob)
        position = int(rng.integers(0, len(blob)))
        mutated[position] ^= int(rng.integers(1, 256))
        yield bytes(mutated)


class TestFuzzedEnvelopes:
    """Mutated valid envelopes either decode or raise SerializationError.

    A byte flip may land in numeric payload (decoding to different but
    structurally valid statistics) -- that is fine; what must never happen
    is a raw KeyError / struct.error / UnicodeDecodeError escaping the
    decoder.
    """

    ROUNDS = 300

    def test_fuzzed_accumulator_states(self, server_blob):
        rng = np.random.default_rng(1)
        failures = 0
        for mutated in _mutations(server_blob, rng, self.ROUNDS):
            try:
                state = AccumulatorState.from_bytes(mutated)
            except SerializationError:
                failures += 1
            else:
                assert isinstance(state, AccumulatorState)
        assert failures > 0  # the sweep must actually hit decode errors

    def test_fuzzed_reports(self, report_blob):
        rng = np.random.default_rng(2)
        failures = 0
        for mutated in _mutations(report_blob, rng, self.ROUNDS):
            try:
                report = Report.from_bytes(mutated)
            except SerializationError:
                failures += 1
            else:
                assert isinstance(report, Report)
        assert failures > 0

    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory) -> str:
        store_dir = str(tmp_path_factory.mktemp("fuzz") / "store")
        engine = Engine.open(
            "hh", domain_size=16, epsilon=1.1, branching=4, store_dir=store_dir
        )
        for epoch in range(3):
            engine.session(epoch=epoch).absorb(np.arange(16), rng=epoch)
            engine.seal_epoch(epoch)
        engine.checkpoint()
        return store_dir

    def _fuzz_store_file(self, store_dir, name, seed, tmp_path):
        """Mutate one file of a sealed store, then open it and query."""
        with open(os.path.join(store_dir, name), "rb") as handle:
            blob = handle.read()
        rng = np.random.default_rng(seed)
        failures = 0
        for index, mutated in enumerate(_mutations(blob, rng, self.ROUNDS)):
            copy = str(tmp_path / f"copy-{index}")
            shutil.copytree(store_dir, copy)
            with open(os.path.join(copy, name), "wb") as handle:
                handle.write(mutated)
            try:
                engine = Engine.open(None, store_dir=copy)
                for window in ("all", *([epoch] for epoch in engine.epochs)):
                    engine.estimator(window).estimated_frequencies()
            except SerializationError:
                failures += 1
            except Exception as exc:  # noqa: BLE001 - the assertion target
                raise AssertionError(
                    f"fuzzed {name} leaked {type(exc).__name__}: {exc}"
                ) from exc
            shutil.rmtree(copy)
        assert failures > 0  # the sweep must actually hit decode errors

    def test_fuzzed_store_manifest(self, store_dir, tmp_path):
        self._fuzz_store_file(store_dir, "MANIFEST.json", 3, tmp_path)

    def test_fuzzed_store_segment(self, store_dir, tmp_path):
        self._fuzz_store_file(store_dir, "epoch-00000001.seg", 4, tmp_path)

    def test_mutated_but_valid_json_headers_fail_as_decode_errors(self, server_blob):
        # Surgically corrupt *semantic* header fields while keeping the
        # JSON valid: every case must raise SerializationError.
        header, arrays = unpack_blob(server_blob)
        cases = []
        missing_children = dict(header)
        missing_children.pop("num_children")
        cases.append(missing_children)
        wrong_type = dict(header)
        wrong_type["num_children"] = "many"
        cases.append(wrong_type)
        too_many = dict(header)
        too_many["num_children"] = 99
        cases.append(too_many)
        unknown_kind = dict(header)
        unknown_kind["state_kind"] = "martian"
        cases.append(unknown_kind)
        for mutated_header in cases:
            with pytest.raises(SerializationError):
                AccumulatorState.from_bytes(pack_blob(mutated_header, arrays))
