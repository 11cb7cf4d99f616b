"""Hardening tests for the wire format (:mod:`repro.core.serialization`).

The contract: *any* malformed byte input -- wrong magic, truncation at any
offset, garbage JSON, corrupt npy blocks, mutated-but-parseable headers --
surfaces as :class:`SerializationError` with offset context, never as a
raw ``struct.error`` / ``KeyError`` / ``UnicodeDecodeError`` from the
decoder internals.  Fuzz-style sweeps mutate valid envelopes -- and the
manifest and segments of a sealed epoch store -- to exercise every decode
stage.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro import FlatRangeQuery, HierarchicalHistogram
from repro.core.serialization import (
    FORMAT_VERSION,
    MAGIC,
    MAGIC_V2,
    SerializationError,
    blob_version,
    pack_blob,
    unpack_blob,
)
from repro.core.session import AccumulatorState, Report
from repro.engine import Engine


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


class TestVersionedEnvelope:
    def test_default_pack_is_v1_and_v2_is_opt_in(self):
        header = {"file_kind": "x"}
        arrays = {"a": np.arange(4)}
        v1 = pack_blob(header, arrays)
        v2 = pack_blob(header, arrays, version=2)
        assert v1.startswith(MAGIC) and blob_version(v1) == 1
        assert v2.startswith(MAGIC_V2) and blob_version(v2) == 2
        assert FORMAT_VERSION == 2
        # Same logical content, both decode identically.
        for blob in (v1, v2):
            decoded_header, decoded_arrays = unpack_blob(blob)
            assert decoded_header == header
            assert np.array_equal(decoded_arrays["a"], np.arange(4))
        # The payload after the magic is byte-identical across versions.
        assert v1[len(MAGIC) :] == v2[len(MAGIC_V2) :]

    def test_unknown_version_is_refused_at_pack_time(self):
        with pytest.raises(SerializationError, match="format version"):
            pack_blob({}, version=3)

    def test_v1_payloads_decode_unchanged(self, server_blob, report_blob):
        # The acceptance bar: accumulator states and reports from the
        # pre-engine era load through the v2-aware codec.
        assert blob_version(server_blob) == 1
        state = AccumulatorState.from_bytes(server_blob)
        assert state.n_reports == 32
        report = Report.from_bytes(report_blob)
        assert report.n_users == 16


class TestMalformedInput:
    def test_non_bytes_input(self):
        with pytest.raises(SerializationError, match="expected bytes"):
            unpack_blob(12345)
        with pytest.raises(SerializationError, match="expected bytes"):
            blob_version(None)

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

    def test_corrupt_array_block_reports_its_offset(self):
        blob = bytearray(pack_blob({"k": 1}, {"a": np.arange(8)}))
        # Stomp the npy block header (it starts with numpy's own magic).
        npy_start = bytes(blob).index(b"\x93NUMPY")
        blob[npy_start : npy_start + 6] = b"\x00" * 6
        with pytest.raises(SerializationError, match="corrupt array block 'a' at offset"):
            unpack_blob(bytes(blob))

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
