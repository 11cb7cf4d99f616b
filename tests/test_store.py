"""Tests for the out-of-core epoch store (:mod:`repro.engine.store`).

Three guarantees anchor the store layer:

* **Bit-identity**: a store-backed engine (sealed epochs on disk,
  windows answered via segment pushdown or load-and-merge) reproduces
  the in-RAM engine exactly for all 14 golden configurations, and a
  restart (``Engine.open(None, store_dir=store_dir)``) changes nothing.
* **Incrementality**: ``checkpoint()`` rewrites only dirty epochs'
  segments; clean segments stay byte-identical on disk.
* **Fail-loud durability**: torn segment tails, spec mismatches,
  missing segment files, and pointing the store opener at a regular file
  (e.g. a checkpoint in the removed monolithic format) all raise a
  contextual ``SerializationError`` instead of silently corrupting
  estimates.
"""

import json
import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_decomposition import CASES, HRR_CASES
from test_engine import HANDLES, _fingerprint, _items_for

from repro import make_protocol
from repro.core.serialization import (
    MAGIC_SEG,
    SerializationError,
    pack_blob,
    pack_epoch_segment,
    read_epoch_segment,
    segment_state,
)
from repro.core.session import statistics_spec
from repro.engine import Engine, EpochStore, last, spec_fingerprint, split_window


def _check(case, actual, expected):
    if np.array_equal(actual, expected):
        return
    assert case in HRR_CASES and np.allclose(
        actual, expected, rtol=0.0, atol=1e-12
    ), f"{case}: store-backed path drifted from the in-RAM goldens"


# --------------------------------------------------------------------- #
# segment codec
# --------------------------------------------------------------------- #
class TestSegmentCodec:
    def _state_blob(self):
        protocol = make_protocol("hh", 16, 1.2, branching=4)
        engine = Engine.open(protocol)
        engine.session(epoch=0).absorb(
            _items_for(protocol, 100, 0), rng=np.random.default_rng(1)
        )
        return engine.session(epoch=0).server.state.to_bytes()

    def test_round_trip(self):
        blob = self._state_blob()
        segment = pack_epoch_segment(3, "cafe", blob, n_reports=100)
        header, body_offset = read_epoch_segment(segment)
        assert header["epoch"] == 3
        assert header["spec_hash"] == "cafe"
        assert header["n_reports"] == 100
        assert bytes(segment_state(segment, body_offset)) == blob
        assert "pushdown" not in header

    def test_segment_is_prefix_plus_state_plus_crc(self):
        # No vector is written twice: after the 8-aligned prefix comes the
        # state blob, byte for byte, and then only the 4-byte CRC.
        blob = self._state_blob()
        segment = pack_epoch_segment(0, "cafe", blob, n_reports=100)
        _, body_offset = read_epoch_segment(segment)
        assert body_offset % 8 == 0
        assert segment.startswith(MAGIC_SEG)
        assert len(segment) == body_offset + len(blob) + 4
        assert segment[body_offset:-4] == blob

    def test_gather_views_lie_inside_the_mapped_state(self, tmp_path):
        protocol = make_protocol("hh", 16, 1.2, branching=4)
        engine = Engine.open(protocol, store_dir=str(tmp_path / "store"))
        engine.session(epoch=0).absorb(
            _items_for(protocol, 100, 0), rng=np.random.default_rng(1)
        )
        engine.seal_epoch(0)
        store = engine.store
        assert store.supports_pushdown(0)
        segment = store._map_segment(0)
        base = np.frombuffer(segment.mapped, dtype=np.uint8).ctypes.data
        state_start = segment.body_offset
        state_end = len(segment.mapped) - 4
        decoded = store.load_state(0)
        views = segment.oracle_views()
        assert len(views["children"]) == len(decoded.children)
        for child, state_child in zip(views["children"], decoded.children):
            assert list(child["vectors"]) == list(state_child.vectors)
            for name, vector in child["vectors"].items():
                start = vector.ctypes.data - base
                assert state_start <= start
                assert start + vector.nbytes <= state_end
                assert start % 8 == 0  # 8-aligned in the file
                assert not vector.flags.writeable
                assert np.array_equal(vector, state_child.vectors[name])
        # The views are decoded once per mapping and reused.
        assert segment.oracle_views() is views
        del views, child, vector
        store.close()
        assert segment.mapped.closed

    def test_torn_tail_is_rejected(self):
        segment = pack_epoch_segment(0, "cafe", self._state_blob())
        for cut in (len(MAGIC_SEG) + 2, len(segment) // 2, len(segment) - 1):
            with pytest.raises(SerializationError, match="torn"):
                read_epoch_segment(segment[:cut])
        with pytest.raises(SerializationError):  # not even a whole magic
            read_epoch_segment(segment[:1])

    def test_bit_flip_is_rejected(self):
        segment = bytearray(pack_epoch_segment(0, "cafe", self._state_blob()))
        segment[len(segment) // 2] ^= 0x40
        with pytest.raises(SerializationError, match="CRC"):
            read_epoch_segment(bytes(segment))

    def test_wrong_magic_is_rejected(self):
        with pytest.raises(SerializationError):
            read_epoch_segment(b"NOTASEG!" + b"\x00" * 64)
        assert len(MAGIC_SEG) == 9


# --------------------------------------------------------------------- #
# bit-identity: store-backed == in-RAM, across the golden configs
# --------------------------------------------------------------------- #
def _paired_engines(factory, tmp_path, n_epochs=3, n_users=200):
    """The same ingest replayed into an in-RAM and a store-backed engine."""
    protocol = factory()
    in_ram = Engine.open(factory())
    stored = Engine.open(factory(), store_dir=str(tmp_path / "store"))
    for epoch in range(n_epochs):
        items = _items_for(protocol, n_users, epoch)
        for engine in (in_ram, stored):
            engine.session(epoch=epoch).absorb(
                items, rng=np.random.default_rng(100 + epoch)
            )
        stored.seal_epoch(epoch)
    return protocol, in_ram, stored


class TestSpecFingerprint:
    def test_golden_spec_fingerprint_is_stable(self):
        # Every manifest records this hash: if it drifts, existing stores
        # no longer open, so it is pinned to the value stores were
        # written with.  Assembly-only keys do not enter it.
        expected = "bb4a2dca93e4a3bccbb1e086246a8dc0db087df0dd176fe9ee10c70d9def2076"
        spec = make_protocol("hh", 64, 1.1, branching=4, oracle="oue").spec()
        assert spec_fingerprint(spec) == expected
        piped = make_protocol(
            "hh", 64, 1.1, branching=4, oracle="oue",
            postprocess="consistency+norm_sub",
        ).spec()
        assert piped != spec
        assert statistics_spec(piped) == statistics_spec(spec)
        assert spec_fingerprint(piped) == expected

    def test_statistics_spec_strips_only_assembly_keys(self):
        spec = make_protocol(
            "hh", 64, 1.1, branching=4, oracle="oue",
            postprocess="consistency+norm_sub",
        ).spec()
        before = dict(spec)
        stripped = statistics_spec(spec)
        assert spec == before  # the input is not mutated
        assert set(spec) - set(stripped) == {"postprocess", "consistency"}
        assert all(stripped[key] == spec[key] for key in stripped)
        # untrusted non-dict header fields pass through unchanged
        for value in (None, "hh", ["postprocess"]):
            assert statistics_spec(value) == value


@pytest.mark.parametrize("case", sorted(CASES))
class TestGoldenBitIdentity:
    def test_sealed_windows_match_in_ram(self, case, tmp_path):
        protocol, in_ram, stored = _paired_engines(CASES[case], tmp_path)
        assert list(stored.live_epochs) == []
        assert list(stored.sealed_epochs) == [0, 1, 2]
        for window in ("all", last(2), [0, 2]):
            _check(
                case,
                stored.estimator(window).estimated_frequencies(),
                in_ram.estimator(window).estimated_frequencies(),
            )

    def test_restore_from_store_dir_matches(self, case, tmp_path):
        _, in_ram, stored = _paired_engines(CASES[case], tmp_path)
        stored.checkpoint()
        restored = Engine.open(None, store_dir=str(tmp_path / "store"))
        assert restored.epochs == in_ram.epochs
        assert restored.n_reports() == in_ram.n_reports()
        _check(
            case,
            restored.estimator(last(2)).estimated_frequencies(),
            in_ram.estimator(last(2)).estimated_frequencies(),
        )


@pytest.mark.parametrize("handle", sorted(HANDLES))
class TestHandlesRoundTrip:
    """Registry handles (incl. grid2d) through seal -> restore -> query."""

    def test_store_round_trip_is_bit_identical(self, handle, tmp_path):
        protocol = make_protocol(handle, 16, 1.2, **HANDLES[handle])

        def factory():
            return make_protocol(handle, 16, 1.2, **HANDLES[handle])

        _, in_ram, stored = _paired_engines(factory, tmp_path)
        stored.checkpoint()
        restored = Engine.open(None, store_dir=str(tmp_path / "store"))
        for engine in (stored, restored):
            for window in ("all", last(2)):
                assert np.array_equal(
                    _fingerprint(protocol, engine.estimator(window)),
                    _fingerprint(protocol, in_ram.estimator(window)),
                )

class TestPushdownPlan:
    def test_oracle_children_support_pushdown(self, tmp_path):
        _, _, stored = _paired_engines(
            lambda: make_protocol("hh", 16, 1.2, branching=4), tmp_path
        )
        assert all(stored.store.supports_pushdown(e) for e in stored.sealed_epochs)
        state = stored.store.pushdown_state(stored.sealed_epochs)
        assert state is not None
        assert state.n_reports == 600

    def test_she_falls_back_to_load_and_merge(self, tmp_path):
        """SHE keeps float partials: no pushdown, but still bit-identical."""
        factory = lambda: make_protocol("flat", 16, 1.1, oracle="she")
        _, in_ram, stored = _paired_engines(factory, tmp_path)
        assert not any(stored.store.supports_pushdown(e) for e in stored.sealed_epochs)
        assert stored.store.pushdown_state(stored.sealed_epochs) is None
        assert np.array_equal(
            stored.estimator("all").estimated_frequencies(),
            in_ram.estimator("all").estimated_frequencies(),
        )

    def test_split_window_partitions_in_order(self):
        assert split_window([1, 3, 5, 7], live=[3, 7]) == ([3, 7], [1, 5])
        assert split_window([], live=[1]) == ([], [])


# --------------------------------------------------------------------- #
# incremental checkpoints and dirty tracking
# --------------------------------------------------------------------- #
class TestIncrementalCheckpoint:
    def _stored(self, tmp_path, n_epochs=6):
        engine = Engine.open(
            make_protocol("hh", 16, 1.2, branching=4),
            store_dir=str(tmp_path / "store"),
        )
        rng = np.random.default_rng(5)
        for epoch in range(n_epochs):
            engine.session(epoch=epoch).absorb(
                np.arange(16).repeat(4), rng=rng
            )
            engine.seal_epoch(epoch)
        return engine

    def test_checkpoint_rewrites_only_dirty_segments(self, tmp_path):
        engine = self._stored(tmp_path)
        store = engine.store
        written_before = store.segments_written
        engine.checkpoint()  # everything sealed and clean: a manifest-only write
        assert store.segments_written == written_before

        engine.session(epoch=2).absorb(
            np.arange(16), rng=np.random.default_rng(9)
        )  # un-seals epoch 2 and dirties it
        assert 2 in engine.live_epochs
        engine.checkpoint()
        assert store.segments_written == written_before + 1

    def test_clean_segments_stay_byte_identical(self, tmp_path):
        engine = self._stored(tmp_path)
        store = engine.store
        before = {
            epoch: open(store.segment_path(epoch), "rb").read()
            for epoch in engine.sealed_epochs
        }
        engine.session(epoch=4).absorb(np.arange(16), rng=np.random.default_rng(9))
        engine.checkpoint()
        engine.seal_epoch(4)
        for epoch, blob in before.items():
            with open(store.segment_path(epoch), "rb") as fh:
                on_disk = fh.read()
            if epoch == 4:
                assert on_disk != blob
            else:
                assert on_disk == blob

    def test_epoch_stats_reports_sizes_without_unsealing(self, tmp_path):
        engine = self._stored(tmp_path, n_epochs=3)
        stats = engine.epoch_stats()
        assert sorted(stats) == [0, 1, 2]
        for epoch, entry in stats.items():
            assert entry["sealed"] is True
            assert entry["n_reports"] == 64
            assert entry["on_disk"] == os.path.getsize(
                engine.store.segment_path(epoch)
            )
        assert list(engine.live_epochs) == []  # stats never materialized a segment


# --------------------------------------------------------------------- #
# corruption and misuse: every failure names its cause
# --------------------------------------------------------------------- #
class TestCorruption:
    def _store_dir(self, tmp_path, n_epochs=2):
        engine = Engine.open(
            make_protocol("hh", 16, 1.2, branching=4),
            store_dir=str(tmp_path / "store"),
        )
        for epoch in range(n_epochs):
            engine.session(epoch=epoch).absorb(
                np.arange(16).repeat(2), rng=np.random.default_rng(epoch)
            )
            engine.seal_epoch(epoch)
        engine.checkpoint()
        engine.store.close()
        return str(tmp_path / "store")

    def test_torn_segment_tail(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        path = os.path.join(store_dir, "epoch-00000001.seg")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        restored = Engine.open(None, store_dir=store_dir)  # lazy: restore itself succeeds
        # A window whose plan must read the torn leaf fails loud...
        with pytest.raises(SerializationError, match=r"epoch 1.*torn"):
            restored.estimator([1])
        # ...and so does anything that decodes the leaf state directly.
        with pytest.raises(SerializationError, match=r"epoch 1.*torn"):
            restored.store.load_state(1)
        # The "all" window, however, is covered by the L1 aggregate built
        # before the tear, so the (correct) answer survives leaf damage.
        assert restored.estimator("all") is not None

    def test_missing_segment_file(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        os.remove(os.path.join(store_dir, "epoch-00000000.seg"))
        restored = Engine.open(None, store_dir=store_dir)
        with pytest.raises(SerializationError, match="epoch 0"):
            restored.estimator([0])
        with pytest.raises(SerializationError, match="epoch 0"):
            restored.store.read_state_bytes(0)

    def test_spec_hash_mismatch(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        manifest_path = os.path.join(store_dir, "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        other = make_protocol("flat", 16, 1.2).spec()
        manifest["protocol"] = other
        manifest["spec_hash"] = spec_fingerprint(other)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        restored = Engine.open(None, store_dir=store_dir)
        with pytest.raises(SerializationError, match="spec"):
            restored.estimator("all")

    def test_opening_with_wrong_spec_fails_eagerly(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        with pytest.raises(SerializationError, match="different .* configuration"):
            EpochStore(store_dir, make_protocol("flat", 16, 1.2).spec())

    def test_monolithic_checkpoint_is_not_a_store(self, tmp_path):
        spec = make_protocol("hh", 16, 1.2, branching=4).spec()
        path = tmp_path / "mono.ckpt"
        # The removed format's envelope header, as such files still exist.
        path.write_bytes(
            pack_blob({"file_kind": "engine-checkpoint", "protocol": spec})
        )
        removed = "monolithic checkpoint format was removed"
        with pytest.raises(SerializationError, match=removed):
            EpochStore(str(path), spec)
        with pytest.raises(SerializationError, match=removed):
            Engine.open(None, store_dir=str(path))
        with pytest.raises(SystemExit, match=removed):
            from repro.cli import _restore_engine

            _restore_engine(str(path))

    def test_format_1_store_names_the_removed_format(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        manifest_path = os.path.join(store_dir, "MANIFEST.json")
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest["format"] == 2
        manifest["format"] = 1
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(SerializationError, match="removed or unknown format"):
            Engine.open(None, store_dir=store_dir)

    def test_format_1_segment_names_the_removed_format(self, tmp_path):
        store_dir = self._store_dir(tmp_path)
        path = os.path.join(store_dir, "epoch-00000001.seg")
        with open(path, "rb") as fh:
            segment = bytearray(fh.read())
        segment[len(MAGIC_SEG) - 1] = 1  # REPROSEG\x01, CRC recomputed
        segment[-4:] = zlib.crc32(bytes(segment[:-4])).to_bytes(4, "little")
        with pytest.raises(SerializationError, match="removed format"):
            read_epoch_segment(bytes(segment))
        with open(path, "wb") as fh:
            fh.write(segment)
        restored = Engine.open(None, store_dir=store_dir)
        with pytest.raises(SerializationError, match=r"epoch 1.*removed format"):
            restored.store.load_state(1)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SerializationError, match="MANIFEST"):
            EpochStore(str(tmp_path / "nothing"), create=False)


# --------------------------------------------------------------------- #
# property-based: spill -> evict -> query == in-RAM, any epoch pattern
# --------------------------------------------------------------------- #
class TestStoreProperties:
    @given(
        plan=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # epoch key
                st.integers(min_value=1, max_value=30),  # users in this batch
                st.booleans(),  # seal after this batch?
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_any_spill_pattern_matches_in_ram(self, plan, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("store-prop")
        in_ram = Engine.open("hh", domain_size=16, epsilon=1.2, branching=4)
        stored = Engine.open(
            "hh",
            domain_size=16,
            epsilon=1.2,
            branching=4,
            store_dir=str(tmp_path / "store"),
        )
        for step, (epoch, n_users, seal) in enumerate(plan):
            items = np.random.default_rng(step).integers(0, 16, size=n_users)
            for engine in (in_ram, stored):
                engine.session(epoch=epoch).absorb(
                    items, rng=np.random.default_rng(1000 + step)
                )
            if seal:
                stored.seal_epoch(epoch)
        assert stored.epochs == in_ram.epochs
        assert stored.n_reports() == in_ram.n_reports()
        assert np.array_equal(
            stored.estimator("all").estimated_frequencies(),
            in_ram.estimator("all").estimated_frequencies(),
        )
        stored.checkpoint()
        restored = Engine.open(None, store_dir=str(tmp_path / "store"))
        assert np.array_equal(
            restored.estimator("all").estimated_frequencies(),
            in_ram.estimator("all").estimated_frequencies(),
        )
