"""Per-layer metrics of the traced run.

Calls that run inside the gateway and worker processes are replayed here,
in the benchmark process, on the run's own inputs: the framed batches of
the first measured ingest epochs, the run's query list and a copy of the
store and WAL the service left behind.  Each call is wrapped in a span;
the stage table divides each stage's self time by the end-to-end wall time
of the phase it belongs to.
"""

from __future__ import annotations

import asyncio
import http.client
import os
import shutil
import time
from statistics import median
from typing import Dict, List, Tuple

from repro.core.serialization import report_batch_header, unpack_report_batch
from repro.core.session import Report
from repro.engine import Engine, parse_window, resolve_window
from repro.service import IngestWAL, WorkerPool
from repro.service.loadgen import percentile

from pipeline import (
    QUANTILES_PER_QUERY,
    RANGES_PER_QUERY,
    WARM_QUERIES,
    WINDOW_KINDS,
    PipelineRun,
    QueryClient,
    Tracer,
    trace_store,
)

QUERY_REPEATS = 8

_BYTES = (
    "ingest_reports_per_s on ingest-hh-oue and ingest-haar-small; "
    "recovery_s on recover-wal"
)
_CPU = "ingest_reports_per_s on ingest-*: names the bottleneck process"
_CLOSE = "close_p50_ms on ingest-*; setup_s on query-windows"
_QUERY = "query_p50_ms on query-windows"
_FAILED = "ops_ok_share on every workload"

#: Which end-to-end metric, on which workload, each per-layer metric should
#: move (names, units and directions are in BENCHMARK.json).
LAYER_MOVES: Dict[str, str] = {
    "client.encode_us_per_report": "no service metric; shows work moved onto devices",
    "serialization.batch_bytes_per_report": _BYTES,
    "serialization.decode_us_per_report": _BYTES,
    "accumulate.us_per_report": "ingest_reports_per_s on ingest-hh-oue",
    "workers.pool_reports_per_s": "the ceiling of ingest_reports_per_s on ingest-*",
    "gateway.noop_p50_ms": (
        "ingest_p50_ms on ingest-haar-small; query_p50_ms on query-windows"
    ),
    "gateway.cpu_s_per_1m_reports": _CPU,
    "workers.cpu_s_per_1m_reports": _CPU,
    "loadgen.cpu_s_per_1m_reports": _CPU,
    "wal.append_us_per_batch": "ingest_p50_ms on ingest-hh-oue",
    "wal.bytes_per_report": "ingest_p50_ms on ingest-hh-oue",
    "wal.scan_ms": "recovery_s on recover-wal",
    "wal.recovery_ms": "recovery_s on recover-wal",
    "engine.absorb_shard_ms": _CLOSE,
    "engine.seal_epoch_ms": _CLOSE,
    "store.write_segment_ms": _CLOSE,
    "store.build_aggregates_ms": _CLOSE,
    "store.save_manifest_ms": _CLOSE,
    "store.segments_written": _CLOSE,
    "store.aggregates_written": _CLOSE,
    "store.bytes_per_epoch": _CLOSE,
    **{f"windows.plan_nodes.{kind}": _QUERY for kind in WINDOW_KINDS},
    **{f"store.gather_ms.{kind}": _QUERY for kind in WINDOW_KINDS},
    "estimator.finalize_ms": _QUERY,
    "queries.range_us": _QUERY,
    "queries.quantile_us": _QUERY,
    "stats.accepted_batches": _FAILED,
    "stats.rejected_busy": _FAILED,
    "stats.duplicates_dropped": _FAILED,
    "stats.deferred_batches": _FAILED,
    "stats.worker_batches": _FAILED,
    "stats.worker_errors": _FAILED,
    "tail.ingest_p99_ms": (
        "ingest_p50_ms on ingest-*; recorded here because its run-to-run "
        "spread on a shared two-core host exceeds any allowed bound"
    ),
    "tail.query_p99_ms": (
        "query_p50_ms on query-windows; recorded here because its run-to-run "
        "spread on a shared two-core host exceeds any allowed bound"
    ),
    "trace.ingest_reports_per_s": (
        "none; its gap to the untraced ingest_reports_per_s is the tracing cost"
    ),
    "trace.overhead_pct": "none; the estimated cost of the spans themselves",
}

#: Stage table rows: span name -> (layer module, phase, unit of work).
STAGES: Dict[str, Tuple[str, str, str]] = {
    "client.encode": ("core.session", "ingest", "report"),
    "serialization.pack": ("core.serialization", "ingest", "report"),
    "http.ingest": ("service.http+gateway (client view)", "ingest", "report"),
    "serialization.decode": ("core.serialization", "ingest", "report"),
    "accumulate": ("core.kernels/frequency_oracles", "ingest", "report"),
    "wal.append": ("service.wal", "ingest", "batch"),
    "http.close": ("service.gateway (client view)", "ingest", "epoch"),
    "engine.absorb_shard": ("engine.engine", "ingest", "epoch"),
    "engine.seal_epoch": ("engine.engine", "ingest", "epoch"),
    "store.write_segment": ("engine.store", "ingest", "epoch"),
    "store.build_aggregates": ("engine.store", "ingest", "epoch"),
    "store.save_manifest": ("engine.store", "ingest", "epoch"),
    "http.query": ("service.http+gateway (client view)", "query", "query"),
    "windows.plan": ("engine.windows", "query", "query"),
    "store.gather": ("engine.store", "query", "query"),
    "estimator.finalize": ("hierarchy/wavelet/core.postprocess", "query", "query"),
    "queries.range": ("queries", "query", "range"),
    "queries.quantile": ("queries", "query", "quantile"),
    "wal.scan": ("service.wal", "recover", "cycle"),
    "phase.recover_cycle": ("whole restart (client view)", "recover", "cycle"),
}


def _span_totals(spans: List[dict]) -> Dict[str, dict]:
    """Per span name: calls, units, total and self seconds."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    totals: Dict[str, dict] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        entry = totals.setdefault(
            span["name"], {"calls": 0, "units": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["units"] += span["units"]
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span["id"], 0.0)
    return totals


def _span_cost_s() -> float:
    """Seconds one enabled span costs (enter + exit), measured here."""
    tracer = Tracer(True)
    count = 20_000
    started = time.perf_counter()
    for _ in range(count):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - started) / count


async def _pool_replay(spec: dict, workers: int, blobs: List[bytes]) -> float:
    pool = WorkerPool(spec, num_workers=workers).start()
    try:
        await pool.stats()  # every worker imported and listening
        started = time.perf_counter()
        await asyncio.gather(
            *(pool.ingest_on(index % workers, blob) for index, blob in enumerate(blobs))
        )
        await pool.close_epoch()
        return time.perf_counter() - started
    finally:
        await pool.shutdown(graceful=True)


def replay_layers(run: PipelineRun) -> Dict[str, float]:
    """Time each layer's public calls on the run's inputs; return metrics."""
    tracer = run.tracer
    workdir = os.path.join(run.workdir, "replay")
    os.makedirs(workdir)
    metrics: Dict[str, float] = {}
    spec = run.spec
    protocol = run.protocol

    # Ingest path: decode, accumulate and WAL append per batch.
    wal = IngestWAL(os.path.join(workdir, "wal"))
    servers = []
    try:
        for epoch, blobs in enumerate(run.sample_blobs):
            server = protocol.server()
            for index, blob in enumerate(blobs):
                n_users = int(report_batch_header(blob)["n_users"])
                with tracer.span("replay.batch", trace=tracer.new_trace()):
                    with tracer.span("serialization.decode", units=n_users):
                        _, frames = unpack_report_batch(blob)
                        reports = [Report.from_bytes(frame) for frame in frames]
                    with tracer.span("accumulate", units=n_users):
                        server.ingest(reports)
                    with tracer.span("wal.append", units=1):
                        wal.append(epoch, blob, key=f"r{epoch}:{index}",
                                   worker=0, n_users=n_users)
            servers.append(server)
    finally:
        wal.close()
    pool_blobs = [blob for blobs in run.sample_blobs for blob in blobs]
    pool_reports = sum(server.n_reports for server in servers)
    pool_s = asyncio.run(_pool_replay(spec, run.workers, pool_blobs))
    metrics["workers.pool_reports_per_s"] = pool_reports / pool_s

    # Query path on a copy of the final store, with the last block's queries.
    store_copy = os.path.join(workdir, "store")
    shutil.copytree(run.store_dir, store_copy)
    engine = Engine.open(None, store_dir=store_copy)
    store = engine.store
    epochs = list(engine.epochs)
    measured = run.queries[WARM_QUERIES:]
    finalize = getattr(protocol, "estimator_from_state", None) or (
        lambda merged: protocol.server(state=merged).finalize()
    )
    try:
        for kind in WINDOW_KINDS:
            picks = [query for query in measured if query.kind == kind][:QUERY_REPEATS]
            gather_ms = []
            for repeat, query in enumerate([picks[0], *picks]):
                warm = repeat == 0  # maps the segments, as the service had
                trace = tracer.new_trace()
                with tracer.span("replay.query", trace=trace):
                    with tracer.span("windows.plan", units=0 if warm else 1):
                        selected = resolve_window(parse_window(query.window), epochs)
                        nodes = store.plan_window(selected)
                    started = time.perf_counter()
                    with tracer.span("store.gather", units=0 if warm else 1):
                        state = store.pushdown_state(selected)
                    if not warm:
                        gather_ms.append((time.perf_counter() - started) * 1e3)
                    with tracer.span("estimator.finalize", units=0 if warm else 1):
                        estimator = finalize(state)
                    with tracer.span("queries.range",
                                     units=0 if warm else len(query.ranges)):
                        for bounds in query.ranges:
                            estimator.range_query(bounds)
                    with tracer.span("queries.quantile",
                                     units=0 if warm else len(query.quantiles)):
                        for phi in query.quantiles:
                            estimator.quantile_query(phi)
            metrics[f"windows.plan_nodes.{kind}"] = len(nodes)
            metrics[f"store.gather_ms.{kind}"] = median(gather_ms)

        # Close path: absorb and seal the replayed epochs on the same store.
        if tracer.enabled:
            trace_store(tracer, store)
        next_epoch = max(epochs) + 1
        for offset, server in enumerate(servers):
            epoch = next_epoch + offset
            with tracer.span("replay.close", trace=tracer.new_trace()):
                with tracer.span("engine.absorb_shard", units=1):
                    engine.absorb_shard(server.state, epoch=epoch)
                with tracer.span("engine.seal_epoch", units=1):
                    engine.seal_epoch(epoch)
    finally:
        store.close()

    # Recovery path: scan a copy of the crashed WAL.
    started = time.perf_counter()
    with tracer.span("wal.scan", units=1):
        IngestWAL(run.crashed_wal).scan()
    metrics["wal.scan_ms"] = (time.perf_counter() - started) * 1e3
    shutil.rmtree(workdir, ignore_errors=True)
    return metrics


def layer_metrics(run: PipelineRun, replayed: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    totals = _span_totals(run.tracer.spans)

    def per_unit(name: str, scale: float) -> float:
        entry = totals[name]
        return entry["self_s"] / entry["units"] * scale

    counters = run.result.counters
    millions = run.ingest_reports / 1e6
    metrics = dict(replayed)
    metrics.update({
        "client.encode_us_per_report": per_unit("client.encode", 1e6),
        "serialization.batch_bytes_per_report": run.ingest_bytes / run.ingest_reports,
        "serialization.decode_us_per_report": per_unit("serialization.decode", 1e6),
        "accumulate.us_per_report": per_unit("accumulate", 1e6),
        "gateway.noop_p50_ms": median(run.noop_ms),
        "gateway.cpu_s_per_1m_reports": run.cpu["gateway"] / millions,
        "workers.cpu_s_per_1m_reports": run.cpu["workers"] / millions,
        "loadgen.cpu_s_per_1m_reports": run.cpu["loadgen"] / millions,
        "wal.append_us_per_batch": per_unit("wal.append", 1e6),
        # Every WAL record holds one full batch of the workload.
        "wal.bytes_per_report": counters["wal_bytes"]
        / (counters["wal_records"] * run.workload.batch_size),
        "wal.recovery_ms": median(run.recovery_ms),
        "engine.absorb_shard_ms": per_unit("engine.absorb_shard", 1e3),
        "engine.seal_epoch_ms": per_unit("engine.seal_epoch", 1e3),
        "store.write_segment_ms": per_unit("store.write_segment", 1e3),
        "store.build_aggregates_ms": per_unit("store.build_aggregates", 1e3),
        "store.save_manifest_ms": per_unit("store.save_manifest", 1e3),
        "store.segments_written": counters["store_epochs"],
        "store.aggregates_written": counters["store_aggregates"],
        "store.bytes_per_epoch": counters["store_bytes"] / counters["store_epochs"],
        "estimator.finalize_ms": per_unit("estimator.finalize", 1e3),
        "queries.range_us": per_unit("queries.range", 1e6),
        "queries.quantile_us": per_unit("queries.quantile", 1e6),
        "stats.accepted_batches": counters["batches"],
        "stats.rejected_busy": counters["rejected_busy"],
        "stats.duplicates_dropped": counters["duplicates_dropped"],
        "stats.deferred_batches": counters["deferred_batches"],
        "stats.worker_batches": counters["worker_batches"],
        "stats.worker_errors": counters["worker_errors"],
        "tail.ingest_p99_ms": percentile(run.ingest_latencies, 99.0),
        "tail.query_p99_ms": percentile(run.query_ms, 99.0),
        "trace.ingest_reports_per_s": run.result.metrics["ingest_reports_per_s"],
    })
    # Spans recorded inside the timed phases (client side only).
    timed = sum(
        totals.get(name, {"calls": 0})["calls"]
        for name in ("phase.ingest_epoch", "http.ingest", "http.close", "http.query")
    ) + len(run.noop_ms)
    timed_wall = run.phase_wall["ingest"] + run.phase_wall["query"]
    metrics["trace.overhead_pct"] = 100.0 * timed * _span_cost_s() / timed_wall
    return {name: float(value) for name, value in metrics.items()}


def stage_table(run: PipelineRun) -> List[str]:
    """Self time of each stage against the end-to-end wall time of its phase."""
    totals = _span_totals(run.tracer.spans)
    ingest_units = {
        "report": run.ingest_reports,
        "batch": run.ingest_reports / run.workload.batch_size,
        "epoch": run.ingest_epochs,
    }
    queries = run.n_queries
    phase_units = {
        "ingest": ingest_units,
        "query": {
            "query": queries,
            "range": queries * RANGES_PER_QUERY,
            "quantile": queries * QUANTILES_PER_QUERY,
        },
        "recover": {"cycle": run.rounds},
    }
    walls = {
        "ingest": run.phase_wall["ingest"],
        "query": run.phase_wall["query"],
        "recover": run.phase_wall.get("recover", 0.0),
    }
    lines = [
        f"{'stage':24} {'layer':36} {'calls':>7} {'self ms':>10} "
        f"{'per unit':>14} {'share of phase wall':>20}"
    ]
    for name, (layer, phase, unit) in STAGES.items():
        entry = totals.get(name)
        if not entry or not entry["units"]:
            continue
        per = entry["self_s"] / entry["units"]
        projected = per * phase_units[phase][unit]
        share = 100.0 * projected / walls[phase] if walls[phase] else float("nan")
        lines.append(
            f"{name:24} {layer:36} {entry['calls']:7d} "
            f"{entry['self_s'] * 1e3:10.1f} {per * 1e6:9.2f} us/{unit:<5} "
            f"{share:8.1f}% of {phase}"
        )
    lines.append(
        "shares project each stage's per-unit self time onto the phase's "
        "measured work; stages in different processes overlap, so shares "
        "may sum past 100%"
    )
    return lines


def noop_probe(run: PipelineRun):
    """A ``GET /healthz`` prober to run beside the ingest phase."""

    def probe(stop) -> None:
        client = QueryClient(run.service.url)
        try:
            while not stop.is_set():
                started = time.perf_counter()
                try:
                    status, _ = client.get("/healthz")
                except (OSError, http.client.HTTPException):
                    continue
                if status == 200:
                    run.noop_ms.append((time.perf_counter() - started) * 1e3)
                stop.wait(0.005)
        finally:
            client.close()

    return probe
