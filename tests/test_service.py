"""Tests for the network-facing aggregation service (:mod:`repro.service`).

Three guarantees anchor the service layer:

* **Bit-identity**: sharded ingestion through the gateway -- any number
  of workers, any round-robin interleaving -- answers queries exactly as
  a single process ingesting the same framed batches would.  Merge is
  exact, so scale-out is never an accuracy trade.
* **Durability**: epoch closes seal and checkpoint the epoch store; a
  hard kill loses only the un-checkpointed epoch in flight, and a
  restart from the store resumes with every closed epoch intact and
  ingestion continuing on a fresh key.
* **Wire hygiene**: the framed batch codec round-trips reports exactly
  and fails loudly (with offsets) on malformed input, and the gateway
  maps every failure mode onto a meaningful HTTP status instead of
  dying.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro import make_protocol
from repro.core.serialization import (
    MAGIC_BATCH,
    SerializationError,
    pack_report_batch,
    report_batch_header,
    unpack_report_batch,
)
from repro.core.session import Report, load_server
from repro.service import (
    AggregationService,
    ServiceThread,
    WorkerPool,
    generate_batches,
    ingest_batches_single_process,
    request_json,
)
from repro.service.faults import (
    ServiceProcess,
    chaos_stream,
    delivered_indices,
    kill_worker,
    truncate_wal_tail,
)
from repro.service.http import split_url
from repro.service.loadgen import percentile, run_loadgen

SPEC = {"name": "flat", "domain_size": 64, "epsilon": 1.0}
TREE_SPEC = {"name": "hh", "domain_size": 64, "epsilon": 1.0, "branching": 4}


def encode_reports(spec, n_users, seed, chunks=4):
    """Privatize ``n_users`` synthetic users into ``chunks`` reports."""
    protocol = make_protocol(
        spec["name"],
        spec["domain_size"],
        spec["epsilon"],
        **{k: v for k, v in spec.items() if k not in ("name", "domain_size", "epsilon")},
    )
    rng = np.random.default_rng(seed)
    items = rng.integers(0, spec["domain_size"], size=n_users)
    client = protocol.client()
    return protocol, [
        client.encode_batch(chunk, rng=rng) for chunk in np.array_split(items, chunks)
    ]


class TestReportBatchCodec:
    def test_round_trip_report_objects(self):
        protocol, reports = encode_reports(SPEC, 120, seed=0, chunks=3)
        blob = pack_report_batch(protocol.spec(), reports)
        header, frames = unpack_report_batch(blob)
        assert header["count"] == 3
        assert header["n_users"] == 120
        assert header["protocol"] == protocol.spec()
        for original, frame in zip(reports, frames):
            assert frame == original.to_bytes()
            assert Report.from_bytes(frame).n_users == original.n_users

    def test_accepts_packed_bytes_and_live_protocols(self):
        protocol, reports = encode_reports(SPEC, 60, seed=1, chunks=2)
        from_objects = pack_report_batch(protocol, reports)
        from_bytes = pack_report_batch(
            protocol.spec(), [report.to_bytes() for report in reports]
        )
        assert from_objects == from_bytes  # a pure container either way
        assert report_batch_header(from_bytes)["n_users"] == 60

    def test_header_peek_is_cheap_and_consistent(self):
        protocol, reports = encode_reports(TREE_SPEC, 80, seed=2, chunks=2)
        blob = pack_report_batch(protocol.spec(), reports)
        header = report_batch_header(blob)
        assert header == unpack_report_batch(blob)[0]
        # peeking must also work on a truncated prefix that still holds
        # the header (the gateway routes before the body fully decodes)
        full_header_len = len(blob) - sum(8 + len(r.to_bytes()) for r in reports)
        assert report_batch_header(blob[:full_header_len]) == header

    def test_spec_is_optional(self):
        _, reports = encode_reports(SPEC, 30, seed=3, chunks=1)
        blob = pack_report_batch(None, reports)
        assert "protocol" not in report_batch_header(blob)

    def test_wrong_magic_is_refused(self):
        with pytest.raises(SerializationError, match="magic"):
            unpack_report_batch(b"REPROACC\x01" + b"\x00" * 32)
        with pytest.raises(SerializationError):
            report_batch_header(b"junk")

    def test_truncated_frames_report_offsets(self):
        protocol, reports = encode_reports(SPEC, 40, seed=4, chunks=2)
        blob = pack_report_batch(protocol.spec(), reports)
        with pytest.raises(SerializationError, match="offset"):
            unpack_report_batch(blob[:-5])

    def test_trailing_garbage_is_refused(self):
        protocol, reports = encode_reports(SPEC, 40, seed=5, chunks=1)
        blob = pack_report_batch(protocol.spec(), reports)
        with pytest.raises(SerializationError, match="trailing"):
            unpack_report_batch(blob + b"\x00\x01")

    def test_non_report_input_is_refused(self):
        with pytest.raises(SerializationError, match="cannot frame"):
            pack_report_batch(SPEC, [object()])


class TestWorkerPool:
    def test_sharded_ingest_is_bit_identical_to_single_process(self):
        import asyncio

        protocol, reports = encode_reports(SPEC, 400, seed=6, chunks=8)
        blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]

        async def run():
            pool = WorkerPool(protocol.spec(), num_workers=3).start()
            try:
                for blob in blobs:
                    await pool.ingest(blob)
                stats = await pool.stats()
                states = await pool.close_epoch()
            finally:
                await pool.shutdown(graceful=True)
            return stats, states

        stats, states = asyncio.run(run())
        assert sum(stat["epoch_reports"] for stat in stats) == 400
        assert all(stat["errors"] == 0 for stat in stats)
        # merge the shard states in reverse order: still bit-identical
        merged = load_server(states[-1])
        for blob in reversed(states[:-1]):
            merged.merge(load_server(blob).state)
        reference = ingest_batches_single_process(protocol.spec(), blobs)
        assert merged.to_bytes() == reference.to_bytes()
        assert np.array_equal(
            merged.finalize().estimated_frequencies(),
            reference.finalize().estimated_frequencies(),
        )

    def test_worker_survives_malformed_batches(self):
        import asyncio

        protocol, reports = encode_reports(SPEC, 50, seed=7, chunks=1)
        good = pack_report_batch(protocol.spec(), reports)

        # a hand-built container with valid framing but a corrupt report
        # inside (pack_report_batch itself refuses to frame garbage)
        import struct

        corrupt_frame = b"REPROACC\x01" + b"\x00" * 40
        batch_header = json.dumps(
            {"batch_kind": "report-batch", "count": 1, "n_users": 1}
        ).encode("utf-8")
        bad = (
            MAGIC_BATCH
            + struct.pack("<Q", len(batch_header))
            + batch_header
            + struct.pack("<Q", len(corrupt_frame))
            + corrupt_frame
        )

        async def run():
            pool = WorkerPool(protocol.spec(), num_workers=1).start()
            try:
                await pool.ingest(bad)
                await pool.ingest(good)
                stats = await pool.stats()
                states = await pool.close_epoch()
            finally:
                await pool.shutdown(graceful=True)
            return stats, states

        stats, states = asyncio.run(run())
        assert stats[0]["errors"] == 1
        assert stats[0]["last_error"]
        assert load_server(states[0]).n_reports == 50


@pytest.fixture(scope="class")
def live_service():
    """One running gateway (2 workers) shared by the e2e tests."""
    service = AggregationService(TREE_SPEC, num_workers=2)
    with ServiceThread(service) as handle:
        yield handle


class TestGatewayEndToEnd:
    N_USERS = 360

    def test_concurrent_ingest_close_query_matches_single_process(self, live_service):
        url = live_service.url
        assert request_json(url + "/healthz")["status"] == "ok"
        spec = request_json(url + "/spec")
        assert all(spec[key] == value for key, value in TREE_SPEC.items())

        protocol, reports = encode_reports(TREE_SPEC, self.N_USERS, seed=8, chunks=12)
        blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]

        failures = []

        def post(worker_blobs):
            try:
                for blob in worker_blobs:
                    reply = request_json(url + "/ingest", method="POST", body=blob)
                    assert reply["queued"] > 0
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(exc)

        threads = [
            threading.Thread(target=post, args=(blobs[i::3],)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures

        stats = request_json(url + "/stats")
        assert stats["pending_reports"] == self.N_USERS
        closed = request_json(url + "/close", method="POST")
        assert closed["closed"] and closed["reports"] == self.N_USERS

        answer = request_json(
            url + "/query?ranges=0:15,16:63&quantiles=0.5&frequencies=1&window=all"
        )
        assert answer["n_users"] == self.N_USERS

        reference = ingest_batches_single_process(protocol.spec(), blobs)
        estimator = reference.finalize()
        for key, value in answer["ranges"].items():
            left, right = (int(part) for part in key.split(":"))
            assert value == estimator.range_query((left, right))
        assert answer["quantiles"]["0.5"] == int(estimator.quantile_query(0.5))
        assert answer["frequencies"] == [
            float(v) for v in estimator.estimated_frequencies()
        ]

    def test_postprocess_requery_changes_only_the_pipeline(self, live_service):
        url = live_service.url
        base = request_json(url + "/query?ranges=0:31")
        alt = request_json(url + "/query?ranges=0:31&postprocess=clip")
        assert alt["postprocess"] == "clip"
        assert base["n_users"] == alt["n_users"]

    def test_error_routes(self, live_service):
        url = live_service.url
        with pytest.raises(RuntimeError, match="404"):
            request_json(url + "/nope")
        with pytest.raises(RuntimeError, match="405"):
            request_json(url + "/ingest")  # GET on a POST route
        with pytest.raises(RuntimeError, match="not a framed report batch"):
            request_json(url + "/ingest", method="POST", body=b"junk")
        with pytest.raises(RuntimeError, match="411"):
            request_json(url + "/ingest", method="POST", body=b"")
        with pytest.raises(RuntimeError, match="400"):
            request_json(url + "/query?window=nonsense")
        with pytest.raises(RuntimeError, match="409"):
            request_json(url + "/query?window=17")  # unknown epoch
        # a batch for a different configuration is refused up front
        other, reports = encode_reports(SPEC, 10, seed=9, chunks=1)
        mismatched = pack_report_batch(other.spec(), reports)
        with pytest.raises(RuntimeError, match="different protocol"):
            request_json(url + "/ingest", method="POST", body=mismatched)

    def test_truncated_body_gets_a_400_not_a_hang(self, live_service):
        import http.client

        host, port, _ = split_url(live_service.url)
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/ingest")
            connection.putheader("Content-Length", "1000")
            connection.endheaders()
            connection.send(b"short")
            connection.sock.shutdown(1)  # half-close: body can never arrive
            response = connection.getresponse()
            assert response.status == 400
            assert b"truncated body" in response.read()
        finally:
            connection.close()


class TestCheckpointRecovery:
    def test_kill_and_restore_loses_no_closed_epoch(self, tmp_path):
        store_dir = str(tmp_path / "store")
        protocol, reports = encode_reports(SPEC, 300, seed=10, chunks=6)
        blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]

        service = AggregationService(SPEC, num_workers=2, store_dir=store_dir)
        handle = ServiceThread(service).start()
        url = handle.url
        for blob in blobs[:3]:
            request_json(url + "/ingest", method="POST", body=blob)
        request_json(url + "/close", method="POST")
        for blob in blobs[3:5]:
            request_json(url + "/ingest", method="POST", body=blob)
        request_json(url + "/close", method="POST")
        before = request_json(url + "/query?ranges=0:31&window=all")
        # epoch 2 is mid-flight when the process dies
        request_json(url + "/ingest", method="POST", body=blobs[5])
        handle.stop(flush=False)

        restored = AggregationService.from_store(store_dir, num_workers=2)
        assert restored.engine.epochs == (0, 1)
        assert restored.current_epoch == 2
        with ServiceThread(restored) as handle2:
            url2 = handle2.url
            after = request_json(url2 + "/query?ranges=0:31&window=all")
            assert after["ranges"] == before["ranges"]
            assert after["n_users"] == before["n_users"]
            # service keeps working: the lost batch is simply re-sent
            request_json(url2 + "/ingest", method="POST", body=blobs[5])
            closed = request_json(url2 + "/close", method="POST")
            assert closed["epoch"] == 2
            windows = request_json(url2 + "/query?ranges=0:31&window=last:1")
            assert windows["epochs"] == [2]

    def test_graceful_stop_flushes_the_open_epoch(self, tmp_path):
        store_dir = str(tmp_path / "store")
        protocol, reports = encode_reports(SPEC, 100, seed=11, chunks=2)
        service = AggregationService(SPEC, num_workers=2, store_dir=store_dir)
        with ServiceThread(service) as handle:
            for report in reports:
                request_json(
                    handle.url + "/ingest",
                    method="POST",
                    body=pack_report_batch(protocol.spec(), [report]),
                )
            # no explicit /close: the context exit flushes
        from repro.engine import Engine

        engine = Engine.open(None, store_dir=store_dir)
        assert engine.epochs == (0,)
        assert engine.n_reports() == 100

    def test_every_store_backed_close_checkpoints(self, tmp_path):
        import os

        blobs, _ = make_blobs(SPEC, 90, seed=12, chunks=3)
        wal_dir = tmp_path / "wal"
        service = AggregationService(
            SPEC, num_workers=2, store_dir=str(tmp_path / "store"),
            wal_dir=str(wal_dir),
        )
        with ServiceThread(service) as handle:
            url = handle.url
            for index, blob in enumerate(blobs):
                request_json(url + "/ingest", method="POST", body=blob)
                closed = request_json(url + "/close", method="POST")
                assert closed["checkpointed"] is True
                assert closed["epochs"] == list(range(index + 1))
                stats = request_json(url + "/stats")
                assert stats["checkpoint"] == {"written": index + 1}
                # the store covers every closed epoch, so the WAL keeps
                # no sealed segment behind
                assert not [
                    name for name in os.listdir(wal_dir)
                    if name.endswith(".closed")
                ]

    def test_checkpoint_endpoint_needs_a_store(self, tmp_path):
        with ServiceThread(AggregationService(SPEC, num_workers=1)) as handle:
            with pytest.raises(RuntimeError, match="409.*without a store"):
                request_json(handle.url + "/checkpoint", method="POST")
            closed = request_json(handle.url + "/close", method="POST")
            assert closed["closed"] is False
            stats = request_json(handle.url + "/stats")
            assert stats["checkpoint"] == {"written": 0}
        store_dir = str(tmp_path / "store")
        service = AggregationService(SPEC, num_workers=1, store_dir=store_dir)
        with ServiceThread(service) as handle:
            reply = request_json(handle.url + "/checkpoint", method="POST")
            assert reply == {"store_dir": store_dir, "epochs": [], "written": 1}

    @pytest.mark.chaos
    def test_service_process_reopens_an_existing_store(self, tmp_path):
        from repro.engine import Engine

        blobs, reference = make_blobs(SPEC, 120, seed=13, chunks=4)
        options = dict(
            store_dir=str(tmp_path / "store"), wal_dir=str(tmp_path / "wal"),
            num_workers=1,
        )
        with ServiceProcess(SPEC, **options) as first:
            for blob in blobs[:2]:
                request_json(first.url + "/ingest", method="POST", body=blob)
            assert request_json(first.url + "/close", method="POST")["epoch"] == 0
        with ServiceProcess(SPEC, **options) as second:
            for blob in blobs[2:]:
                request_json(second.url + "/ingest", method="POST", body=blob)
            closed = request_json(second.url + "/close", method="POST")
            assert closed["epoch"] == 1 and closed["epochs"] == [0, 1]
            assert_matches_reference(second.url, reference)
        assert Engine.open(None, store_dir=options["store_dir"]).epochs == (0, 1)


class TestLoadgen:
    def test_percentile(self):
        assert percentile([], 99) == 0.0
        assert percentile([5.0], 99) == 5.0
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == pytest.approx(50.5)
        assert percentile(samples, 100) == 100.0

    def test_loadgen_against_a_live_service(self):
        dataset, blobs = generate_batches(SPEC, n_users=200, batch_size=50, seed=12)
        assert dataset.n_users == 200 and len(blobs) == 4
        service = AggregationService(SPEC, num_workers=2)
        with ServiceThread(service) as handle:
            result = run_loadgen(
                handle.url, blobs, dataset.n_users, concurrency=2
            )
            answer = request_json(handle.url + "/query?frequencies=1")
        assert result.errors == 0
        assert result.n_users == 200
        assert result.closed_epoch == 0
        assert result.reports_per_s > 0
        assert result.latency_p99_ms >= result.latency_p50_ms >= 0
        document = json.loads(json.dumps(result.to_document()))
        assert document["batches"] == 4
        reference = ingest_batches_single_process(SPEC, blobs).finalize()
        assert answer["frequencies"] == [
            float(v) for v in reference.estimated_frequencies()
        ]

    def test_grid_specs_are_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            generate_batches(
                {"name": "grid2d", "domain_size": 8, "epsilon": 1.0},
                n_users=10,
                batch_size=5,
            )


def make_blobs(spec, n_users, seed, chunks):
    """Framed one-report batches plus their single-process reference."""
    protocol, reports = encode_reports(spec, n_users, seed=seed, chunks=chunks)
    blobs = [pack_report_batch(protocol.spec(), [report]) for report in reports]
    reference = ingest_batches_single_process(protocol.spec(), blobs).finalize()
    return blobs, [float(v) for v in reference.estimated_frequencies()]


def assert_matches_reference(url, reference_frequencies):
    """The strongest claim the service makes: answers are bit-identical."""
    answer = request_json(url + "/query?frequencies=1&window=all")
    assert answer["frequencies"] == reference_frequencies


class TestFaultTolerance:
    """Chaos tests: inject a fault, recover, demand bit-identity."""

    @pytest.mark.chaos
    def test_worker_kill_mid_ingest_is_exactly_once(self, tmp_path):
        blobs, reference = make_blobs(SPEC, 240, seed=20, chunks=8)
        service = AggregationService(
            SPEC, num_workers=2, wal_dir=str(tmp_path / "wal"),
            supervise_interval=0.05,
        )
        with ServiceThread(service) as handle:
            url = handle.url
            for index, blob in enumerate(blobs[:4]):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"wk:{index}"},
                )
            kill_worker(handle, 0)
            assert request_json(url + "/healthz")["status"] in ("ok", "degraded")
            for index, blob in enumerate(blobs[4:], start=4):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"wk:{index}"},
                )
            closed = request_json(url + "/close", method="POST")
            assert closed["closed"] and closed["reports"] == 240
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["restart_count"] >= 1
            assert stats["replayed_batches"] >= 1

    @pytest.mark.chaos
    def test_ingest_during_supervisor_repair_is_delivered_once(
        self, tmp_path, monkeypatch
    ):
        # Hold the supervisor's repair open between the replacement
        # worker appearing in the pool and the WAL replay: an ingest that
        # reached the replacement in that gap would be replayed a second
        # time.  The repair holds the ingest barrier, so it cannot.
        import time

        swapped = threading.Event()
        original_respawn = WorkerPool.respawn

        def slow_respawn(pool, index):
            replacement = original_respawn(pool, index)
            swapped.set()
            time.sleep(0.3)
            return replacement

        monkeypatch.setattr(WorkerPool, "respawn", slow_respawn)
        blobs, reference = make_blobs(SPEC, 240, seed=27, chunks=8)
        service = AggregationService(
            SPEC, num_workers=2, wal_dir=str(tmp_path / "wal"),
            supervise_interval=0.05,
        )
        with ServiceThread(service) as handle:
            url = handle.url
            for index, blob in enumerate(blobs[:4]):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"rp:{index}"},
                )
            kill_worker(handle, 0)
            assert swapped.wait(timeout=30)
            for index, blob in enumerate(blobs[4:], start=4):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"rp:{index}"},
                )
            closed = request_json(url + "/close", method="POST")
            assert closed["reports"] == 240
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["restart_count"] == 1
            assert stats["replayed_batches"] == 2

    @pytest.mark.chaos
    def test_all_workers_dead_defers_to_wal_and_recovers(self, tmp_path):
        blobs, reference = make_blobs(SPEC, 120, seed=21, chunks=4)
        service = AggregationService(
            SPEC, num_workers=2, wal_dir=str(tmp_path / "wal"),
            supervise_interval=None,  # force the close-time repair path
        )
        with ServiceThread(service) as handle:
            url = handle.url
            request_json(
                url + "/ingest", method="POST", body=blobs[0],
                headers={"Idempotency-Key": "dead:0"},
            )
            kill_worker(handle, 0)
            kill_worker(handle, 1)
            # every shard is dead: with a WAL the ingest is still
            # acknowledged (deferred), not 503'd
            for index, blob in enumerate(blobs[1:], start=1):
                reply = request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"dead:{index}"},
                )
                assert reply["queued"] == 30
            assert request_json(url + "/healthz")["status"] == "degraded"
            closed = request_json(url + "/close", method="POST")
            assert closed["reports"] == 120
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["accepted"]["deferred_batches"] >= 1
            assert stats["restart_count"] >= 2

    @pytest.mark.chaos
    def test_gateway_sigkill_mid_epoch_replays_from_wal(self, tmp_path):
        blobs, reference = make_blobs(SPEC, 250, seed=22, chunks=5)
        wal_dir = str(tmp_path / "wal")
        store_dir = str(tmp_path / "store")
        with ServiceProcess(
            SPEC, store_dir=store_dir, wal_dir=wal_dir, num_workers=2,
        ) as victim:
            url = victim.url
            for index, blob in enumerate(blobs[:3]):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"gw:{index}"},
                )
            request_json(url + "/close", method="POST")
            # epoch 1 in flight: these two are acknowledged, then the
            # gateway dies before any close or checkpoint sees them
            for index, blob in enumerate(blobs[3:], start=3):
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"gw:{index}"},
                )
            victim.kill()

        restored = AggregationService.from_store(
            store_dir, num_workers=2, wal_dir=wal_dir
        )
        with ServiceThread(restored) as handle:
            url = handle.url
            stats = request_json(url + "/stats")
            assert stats["replayed_batches"] == 2
            assert stats["current_epoch"] == 1
            # a client retry of an already-recovered batch is a duplicate
            reply = request_json(
                url + "/ingest", method="POST", body=blobs[4],
                headers={"Idempotency-Key": "gw:4"},
            )
            assert reply.get("duplicate") is True
            closed = request_json(url + "/close", method="POST")
            assert closed["epoch"] == 1 and closed["reports"] == 100
            assert_matches_reference(url, reference)

    def test_chaos_stream_duplicates_reorders_dedup_exactly(self, tmp_path):
        blobs, reference = make_blobs(SPEC, 180, seed=23, chunks=6)
        schedule = chaos_stream(blobs, seed=7, drop=0.3, duplicate=0.5)
        assert delivered_indices(schedule) == list(range(len(blobs)))
        assert len(schedule) > len(blobs)  # seed 7 produces duplicates
        service = AggregationService(
            SPEC, num_workers=2, wal_dir=str(tmp_path / "wal")
        )
        with ServiceThread(service) as handle:
            url = handle.url
            for index, blob in schedule:
                request_json(
                    url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"chaos:{index}"},
                )
            closed = request_json(url + "/close", method="POST")
            assert closed["reports"] == 180
            assert_matches_reference(url, reference)
            stats = request_json(url + "/stats")
            assert stats["accepted"]["duplicates_dropped"] == len(schedule) - len(
                blobs
            )

    def test_torn_wal_tail_loses_only_the_unacked_record(self, tmp_path):
        blobs, _ = make_blobs(SPEC, 90, seed=24, chunks=3)
        wal_dir = str(tmp_path / "wal")
        service = AggregationService(SPEC, num_workers=2, wal_dir=wal_dir)
        handle = ServiceThread(service).start()
        try:
            for index, blob in enumerate(blobs):
                request_json(
                    handle.url + "/ingest", method="POST", body=blob,
                    headers={"Idempotency-Key": f"torn:{index}"},
                )
        finally:
            handle.stop(flush=False)  # crash: epoch 0 lives only in the WAL
        # tear the tail of the open segment: the last record's append was
        # cut short, so its ack never went out -- recovery must keep the
        # first two batches and drop the torn one
        truncate_wal_tail(service.wal.segment_path(0), 4)

        reference = ingest_batches_single_process(SPEC, blobs[:2]).finalize()
        restored = AggregationService(SPEC, num_workers=2, wal_dir=wal_dir)
        with ServiceThread(restored) as handle2:
            closed = request_json(handle2.url + "/close", method="POST")
            assert closed["reports"] == 60
            answer = request_json(handle2.url + "/query?frequencies=1&window=all")
            assert answer["frequencies"] == [
                float(v) for v in reference.estimated_frequencies()
            ]

    def test_saturated_pool_rejects_with_429_and_retry_after(self):
        blobs, _ = make_blobs(SPEC, 60, seed=25, chunks=2)
        service = AggregationService(SPEC, num_workers=2, max_inflight=4)
        with ServiceThread(service) as handle:
            for worker in handle.service.pool.workers:
                worker.pending = 99  # every queue artificially at its bound
            with pytest.raises(RuntimeError, match="429"):
                request_json(
                    handle.url + "/ingest", method="POST", body=blobs[0],
                    max_retries=0,
                )
            # the rejection carries a Retry-After hint
            import http.client

            host, port, _ = split_url(handle.url)
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request(
                    "POST", "/ingest", body=blobs[0],
                    headers={"Content-Type": "application/octet-stream"},
                )
                response = conn.getresponse()
                response.read()
                assert response.status == 429
                assert float(response.getheader("Retry-After")) > 0
            finally:
                conn.close()
            for worker in handle.service.pool.workers:
                worker.pending = 0
            # with retries the client rides out the saturation window
            reply = request_json(
                handle.url + "/ingest", method="POST", body=blobs[0]
            )
            assert reply["queued"] == 30
            stats = request_json(handle.url + "/stats")
            assert stats["accepted"]["rejected_busy"] >= 2

    def test_stuck_connection_gets_408_not_a_held_slot(self):
        service = AggregationService(SPEC, num_workers=1, request_timeout=0.3)
        with ServiceThread(service) as handle:
            host, port, _ = split_url(handle.url)
            with socket.create_connection((host, port), timeout=30) as sock:
                sock.sendall(b"POST /ingest HTTP/1.1\r\n")  # never finishes
                data = sock.recv(65536)
            assert b"408" in data.split(b"\r\n", 1)[0]
            # the service is fine afterwards
            assert request_json(handle.url + "/healthz")["status"] == "ok"
            stats = request_json(handle.url + "/stats")
            assert stats["timed_out_connections"] == 1

    @pytest.mark.chaos
    def test_pool_reaps_killed_workers_without_zombies(self):
        import asyncio
        import multiprocessing

        blobs, _ = make_blobs(SPEC, 60, seed=26, chunks=2)

        async def run():
            pool = WorkerPool(SPEC, num_workers=2, restart_backoff_s=0.01).start()
            try:
                await pool.ingest(blobs[0])
                kill_worker(pool, 0)
                assert pool.dead_indices() == [0]
                respawned = await pool.ensure_alive(force=True)
                assert respawned == [0]
                assert pool.restart_count == 1
                await pool.ingest_on(0, blobs[1])  # replacement works
                stats = await pool.stats()
                assert all(stat["alive"] for stat in stats)
            finally:
                await pool.shutdown(graceful=True)

        asyncio.run(run())
        # shutdown reaped everything: no zombie children survive
        assert multiprocessing.active_children() == []
