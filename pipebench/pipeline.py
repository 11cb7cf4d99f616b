"""The pipeline workloads, driven from outside through the service's HTTP API.

Every workload runs the same pipeline on one gateway process
(:class:`repro.service.ServiceProcess`, shard workers included) and differs
in protocol, batch size, store size and how many operations each phase
gets:

1. **set-up** -- boot the service until its first ``/stats`` answer, three
   times, on a fresh WAL (plus, on ``query-windows``, building the sealed
   store once beforehand), then ingest one unmeasured warm-up epoch;
2. **rounds**, each of them:

   a. *ingest* -- closed-loop epochs: ``POST /ingest`` from ``nproc``
      keep-alive connections, then ``POST /close``;
   b. *query* -- one unmeasured pass over every window, then two
      closed-loop analysts sending ``GET /query``;
   c. *crash and recover* -- one open epoch is acknowledged, the gateway is
      SIGKILLed and restarted on its own directory, and the clock runs
      until the replayed epoch is closed and answered.  The recovered
      gateway serves the next round.

Interleaving the phases spreads every metric's samples over the whole run,
so a slow stretch of the machine shifts all of them a little rather than
one of them a lot.

Inputs are framed report batches encoded from the seed before each epoch's
clock starts; no blob is sent twice in a run.  Every answer is checked
against an in-process reference before any number is reported.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote, urlsplit

import numpy as np

from repro.core.serialization import pack_report_batch
from repro.core.session import protocol_from_spec
from repro.data.synthetic import make_population
from repro.engine import Engine, parse_window, resolve_window
from repro.service import ServiceProcess, ingest_batches_single_process, request_json
from repro.service.gateway import retry_delay_s
from repro.service.loadgen import _GatewayClient, percentile

HH_OUE = {
    "name": "hh", "domain_size": 1024, "epsilon": 1.1, "branching": 4,
    "oracle": "oue",
}
HAAR_HRR = {"name": "haar", "domain_size": 1024, "epsilon": 1.1}

#: Window kinds every query phase cycles through.  ``last-K`` is clamped to
#: the epochs the store holds, so on a short store several kinds coincide.
WINDOW_KINDS = ("last-1", "last-7", "last-64", "last-512", "all", "scattered")
RANGES_PER_QUERY = 16
QUANTILES_PER_QUERY = 4
SCATTERED_EPOCHS = 16
SCATTERED_POOL = 8
#: One unmeasured query per window kind and per scattered window.
WARM_QUERIES = len(WINDOW_KINDS) + SCATTERED_POOL

#: Latency samples per run, so that p99 keeps >= 10 samples beyond it.
MIN_LATENCY_SAMPLES = 1000
SETUP_REPEATS = 3
MIN_ROUNDS = 3
#: Reports in each epoch the set-up store build seals (one batch each).
STORE_EPOCH_REPORTS = 64


@dataclass(frozen=True)
class Workload:
    """One traffic mix; phase sizes are given for a 10-second run."""

    name: str
    why: str
    spec: dict
    batch_size: int
    epoch_reports: int
    #: Measured ingest epochs, queries and crash/recover rounds per 10 s.
    epochs_per_10s: int
    queries_per_10s: int
    rounds_per_10s: int
    #: Sealed epochs built in-process during set-up (0: empty store).
    store_epochs: int = 0

    def phase_sizes(self, seconds: float) -> Tuple[int, int, int]:
        """``(rounds, ingest epochs per round, queries per round)``.

        Totals scale with ``seconds`` but keep floors, so every percentile
        has at least ten samples beyond it and ``recovery_s`` has a median
        of three cycles on every workload.
        """
        scale = seconds / 10.0
        rounds = max(MIN_ROUNDS, round(self.rounds_per_10s * scale))
        batches = math.ceil(self.epoch_reports / self.batch_size)
        epochs = max(
            math.ceil(MIN_LATENCY_SAMPLES / batches), round(self.epochs_per_10s * scale)
        )
        queries = max(MIN_LATENCY_SAMPLES, round(self.queries_per_10s * scale))
        return rounds, math.ceil(epochs / rounds), math.ceil(queries / rounds)


_NO_CACHE = "; no OLH, so its hash cache is bypassed, and no blob is resent"

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ingest-hh-oue",
            why="the paper's hierarchical method, ~274 B/report: bytes-moving "
            "layers (HTTP body, WAL, pipe, decode) do most work" + _NO_CACHE,
            spec=HH_OUE,
            batch_size=2000,
            epoch_reports=100_000,
            epochs_per_10s=21,
            queries_per_10s=1000,
            rounds_per_10s=3,
        ),
        Workload(
            name="ingest-haar-small",
            why="the paper's wavelet method, ~32 B/report in batches of 250: "
            "per-request and per-frame costs dominate" + _NO_CACHE,
            spec=HAAR_HRR,
            batch_size=250,
            epoch_reports=25_000,
            epochs_per_10s=24,
            queries_per_10s=1000,
            rounds_per_10s=3,
        ),
        Workload(
            name="query-windows",
            why="1024 sealed hh-OUE epochs built in set-up, six window kinds: "
            "plan, aggregate/leaf mmap reads, gather, finalize" + _NO_CACHE,
            spec=HH_OUE,
            batch_size=2000,
            epoch_reports=100_000,
            epochs_per_10s=20,
            queries_per_10s=1200,
            rounds_per_10s=3,
            store_epochs=1024,
        ),
        Workload(
            name="recover-wal",
            why="five SIGKILL/restart rounds, each replaying a 100k-report open "
            "hh-OUE epoch from the WAL, then close and answer" + _NO_CACHE,
            spec=HH_OUE,
            batch_size=2000,
            epoch_reports=100_000,
            epochs_per_10s=20,
            queries_per_10s=1000,
            rounds_per_10s=5,
        ),
    )
}


class WrongAnswer(Exception):
    """The service answered differently from the in-process reference, or
    failed requests left nothing to check the answer against."""


def derive_seed(seed: int, *tags: int) -> int:
    """An independent 63-bit seed for one input stream of a run."""
    state = np.random.SeedSequence([int(seed), *map(int, tags)]).generate_state(2)
    return int((int(state[0]) << 31) ^ int(state[1])) & ((1 << 63) - 1)


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
class Tracer:
    """In-memory spans: name, start, end, parent and a shared trace id.

    Disabled, a span costs one small object and two method calls, so the
    untraced run carries the same span sites at next to no cost.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: List[dict] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def span(self, name: str, trace: Optional[int] = None, units: int = 0):
        """A context manager recording one span; ``units`` counts its work."""
        return _Span(self, name, trace, units)

    def new_trace(self) -> Optional[int]:
        return self._new_id() if self.enabled else None


class _Span:
    __slots__ = ("tracer", "name", "trace", "units", "record")

    def __init__(
        self, tracer: Tracer, name: str, trace: Optional[int], units: int
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.trace = trace
        self.units = units
        self.record = None

    def __enter__(self):
        tracer = self.tracer
        if not tracer.enabled:
            return self
        stack = getattr(tracer._local, "stack", None)
        if stack is None:
            stack = tracer._local.stack = []
        parent = stack[-1] if stack else None
        span_id = tracer._new_id()
        trace = self.trace
        if trace is None:
            trace = parent["trace"] if parent is not None else span_id
        self.record = {
            "id": span_id,
            "parent": parent["id"] if parent is not None else None,
            "trace": trace,
            "name": self.name,
            "units": int(self.units),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(self.record)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self.record
        if record is None:
            return
        record["end"] = time.perf_counter()
        self.tracer._local.stack.pop()
        with self.tracer._lock:
            self.tracer.spans.append(record)


# ---------------------------------------------------------------------- #
# processes
# ---------------------------------------------------------------------- #
def _proc_state(pid: int) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("State:"):
                    return line.split()[1]
    except OSError:
        return None
    return None


def wait_gone(pids: Sequence[int], timeout: float = 30.0) -> None:
    """Wait until every pid has exited (SIGKILL stragglers at the deadline)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while _proc_state(pid) not in (None, "Z"):
            if time.monotonic() > deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    break
                deadline = time.monotonic() + 5.0
            time.sleep(0.005)


def _cpu_ticks() -> List[int]:
    """The machine-wide CPU tick counters of ``/proc/stat``."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def proc_cpu_s(pid: int) -> float:
    """utime + stime of one process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Service:
    """One gateway process, the worker pids it reported, and the load's
    keep-alive connections to it."""

    def __init__(self, spec: dict, store_dir: str, wal_dir: str, workers: int):
        self.process = ServiceProcess(
            spec, num_workers=workers, store_dir=store_dir, wal_dir=wal_dir
        )
        self.worker_pids: List[int] = []
        self.ingest_clients: List[_GatewayClient] = []
        self.query_clients: List[QueryClient] = []

    def start(self) -> "Service":
        self.process.start()
        return self

    @property
    def url(self) -> str:
        return self.process.url

    @property
    def pid(self) -> int:
        return self.process.pid

    def stats(self) -> dict:
        document = request_json(self.url + "/stats")
        self.worker_pids = [
            int(worker["pid"]) for worker in document["workers"] if "pid" in worker
        ]
        return document

    def connect(self, connections: int, analysts: int) -> None:
        """Open the load's connections, each warmed by one ``GET /healthz``."""
        self.ingest_clients = [_GatewayClient(self.url) for _ in range(connections)]
        self.query_clients = [QueryClient(self.url) for _ in range(analysts)]
        for client in [*self.ingest_clients, *self.query_clients]:
            client.get("/healthz")

    def kill(self) -> None:
        """SIGKILL the gateway; its workers exit on pipe EOF -- wait for them."""
        for client in [*self.ingest_clients, *self.query_clients]:
            client.close()
        self.process.kill()
        wait_gone(self.worker_pids)


# ---------------------------------------------------------------------- #
# clients
# ---------------------------------------------------------------------- #
class QueryClient:
    """One keep-alive analyst connection; retries like the load generator."""

    def __init__(self, url: str, max_retries: int = 2) -> None:
        parts = urlsplit(url)
        self._host, self._port = parts.hostname, parts.port
        self._max_retries = max_retries
        self._conn: Optional[http.client.HTTPConnection] = None

    def get(self, path: str) -> Tuple[int, bytes]:
        for attempt in range(self._max_retries + 1):
            try:
                if self._conn is None:
                    self._conn = http.client.HTTPConnection(
                        self._host, self._port, timeout=60
                    )
                self._conn.request("GET", path)
                response = self._conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException):
                self.close()
                if attempt < self._max_retries:
                    time.sleep(retry_delay_s(attempt))
                    continue
                raise
            if response.status in (429, 503) and attempt < self._max_retries:
                time.sleep(
                    retry_delay_s(
                        attempt, retry_after=response.getheader("Retry-After")
                    )
                )
                continue
            return response.status, body
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def closed_loop(clients: Sequence, count: int, call: Callable):
    """Send ``count`` requests; each client sends its next once answered.

    ``call(client, index)`` performs request ``index``.  Returns the
    per-request ``(latency_ms, result)`` -- ``None`` where the transport
    failed after retries -- and the wall seconds of the whole loop.  Unlike
    ``run_loadgen``, which opens fresh connections per call, the clients
    (and their keep-alive connections) outlive the loop.
    """
    cursor = [0]
    lock = threading.Lock()
    results: List[Optional[Tuple[float, object]]] = [None] * count

    def drive(client) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= count:
                    return
                cursor[0] = index + 1
            started = time.perf_counter()
            try:
                result = call(client, index)
            except (OSError, http.client.HTTPException):
                continue
            results[index] = ((time.perf_counter() - started) * 1e3, result)

    threads = [threading.Thread(target=drive, args=(client,)) for client in clients]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - started


def encode_epoch(
    protocol, batch_size: int, n_users: int, seed: int, tracer: Tracer
) -> List[bytes]:
    """Device side: privatize one epoch's population into framed batches."""
    spec = protocol.spec()
    dataset = make_population(
        "zipf", int(spec["domain_size"]), n_users, rng=np.random.default_rng(seed)
    )
    with tracer.span("client.encode", units=n_users):
        reports = protocol.client().encode_batches(
            np.asarray(dataset.items), batch_size, rng=np.random.default_rng(seed + 1)
        )
    with tracer.span("serialization.pack", units=n_users):
        return [pack_report_batch(protocol, [report]) for report in reports]


def reference_frequencies(spec: dict, blobs: Sequence[bytes]) -> List[float]:
    server = ingest_batches_single_process(spec, blobs)
    return [float(value) for value in server.finalize().estimated_frequencies()]


# ---------------------------------------------------------------------- #
# one run
# ---------------------------------------------------------------------- #
@dataclass
class Query:
    kind: str
    window: str
    ranges: List[Tuple[int, int]]
    quantiles: List[float]

    @property
    def path(self) -> str:
        ranges = ",".join(f"{left}:{right}" for left, right in self.ranges)
        quantiles = ",".join(f"{phi:g}" for phi in self.quantiles)
        return (
            f"/query?window={quote(self.window, safe=':,')}"
            f"&ranges={ranges}&quantiles={quantiles}"
        )


@dataclass
class RunResult:
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


class PipelineRun:
    """Drive one workload end to end and collect its numbers."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        workdir: str,
        tracer: Tracer,
        nproc: int,
    ) -> None:
        self.workload = workload
        self.spec = dict(workload.spec)
        self.protocol = protocol_from_spec(self.spec)
        self.seed = int(seed)
        self.workdir = workdir
        self.tracer = tracer
        self.nproc = int(nproc)
        #: One core is left to the gateway (and the load generator).
        self.workers = max(1, self.nproc - 1)
        self.connections = self.nproc
        self.analysts = min(2, self.nproc)
        self.rounds, self.epochs_per_round, self.queries_per_round = (
            workload.phase_sizes(seconds)
        )
        self.result = RunResult()
        self.service: Optional[Service] = None
        self.store_dir = os.path.join(workdir, "svc", "store")
        self.wal_dir = os.path.join(workdir, "svc", "wal")
        self._stream = 0
        self._next_epoch = workload.store_epochs
        # Samples, merged into metrics at the end of the run.
        self.ingest_latencies: List[float] = []
        self.close_ms: List[float] = []
        self.epoch_rates: List[float] = []
        self.query_ms: List[float] = []
        self.recovery_s: List[float] = []
        self.recovery_ms: List[float] = []
        self.peak_rss: List[float] = []
        # Filled for the traced per-layer replays and the stage table.
        self.sample_blobs: List[List[bytes]] = []
        self.queries: List[Query] = []
        self.crashed_wal: Optional[str] = None
        self.phase_wall: Dict[str, float] = {"ingest": 0.0, "query": 0.0,
                                             "recover": 0.0}
        self.ingest_reports = 0
        self.ingest_bytes = 0
        self.cpu: Dict[str, float] = {}
        self.noop_ms: List[float] = []
        self.steal_pct = 0.0

    @property
    def ingest_epochs(self) -> int:
        return self.rounds * self.epochs_per_round

    @property
    def n_queries(self) -> int:
        return self.rounds * self.queries_per_round

    # -- helpers -------------------------------------------------------- #
    def _next_seed(self) -> int:
        self._stream += 1
        return derive_seed(self.seed, self._stream)

    def _count(self, attempted: int, failed: int = 0) -> None:
        self.result.attempted += int(attempted)
        self.result.failed += int(failed)

    def _cpu_sample(self) -> Optional[Dict[str, float]]:
        """CPU seconds so far of gateway, workers and this process (traced)."""
        if not self.tracer.enabled:
            return None
        return {
            "gateway": proc_cpu_s(self.service.pid),
            "workers": sum(proc_cpu_s(pid) for pid in self.service.worker_pids),
            "loadgen": sum(os.times()[:2]),
        }

    def _frequencies(self, url: str, epoch: int) -> List[float]:
        self._count(1)
        return request_json(f"{url}/query?window={epoch}&frequencies=1")["frequencies"]

    def _stats(self) -> dict:
        self._count(1)
        return self.service.stats()

    def _post(self, blobs: Sequence[bytes], key_prefix: str):
        """Closed-loop ``POST /ingest`` of every blob; latencies and wall s."""
        results, elapsed = closed_loop(
            self.service.ingest_clients, len(blobs),
            lambda client, index: client.post_batch(
                blobs[index], key=f"{key_prefix}:{index}"
            ),
        )
        failed = sum(1 for result in results if result is None or result[1] != 200)
        self._count(len(blobs), failed)
        if failed:
            raise WrongAnswer(f"{failed} of {len(blobs)} ingest requests failed")
        return [result[0] for result in results], elapsed

    def _add_counters(self, stats: dict) -> None:
        """Fold one gateway incarnation's ``/stats`` counts into the run's."""
        for name, value in stats_counters(stats).items():
            if name.startswith("store_"):
                self.result.counters[name] = value
            else:
                self.result.counters[name] = self.result.counters.get(name, 0) + value

    # -- set-up ---------------------------------------------------------- #
    def _build_store(self) -> float:
        """Seal ``store_epochs`` epochs in-process; returns the seconds taken.

        Encoding the device reports is input generation and stays outside
        the clock; decode, accumulate, absorb and seal are timed.
        """
        workload = self.workload
        n = workload.store_epochs * STORE_EPOCH_REPORTS
        dataset = make_population(
            "zipf", int(self.spec["domain_size"]), n,
            rng=np.random.default_rng(self._next_seed()),
        )
        reports = self.protocol.client().encode_batches(
            np.asarray(dataset.items), STORE_EPOCH_REPORTS,
            rng=np.random.default_rng(self._next_seed()),
        )
        blobs = [pack_report_batch(self.protocol, [report]) for report in reports]
        started = time.perf_counter()
        with self.tracer.span("setup.build_store"):
            engine = Engine.open(self.spec, store_dir=self.store_dir)
            store = engine.store
            if self.tracer.enabled:
                trace_store(self.tracer, store)
            for epoch, blob in enumerate(blobs):
                state = ingest_batches_single_process(self.spec, [blob]).state
                with self.tracer.span("engine.absorb_shard", units=1):
                    engine.absorb_shard(state, epoch=epoch)
                with self.tracer.span("engine.seal_epoch", units=1):
                    engine.seal_epoch(epoch)
            store.close()
        return time.perf_counter() - started

    def _boot(self, store_dir: str, wal_dir: str) -> Service:
        service = Service(self.spec, store_dir, wal_dir, self.workers).start()
        try:
            service.stats()
        except BaseException:
            service.kill()
            raise
        self._count(1)
        return service

    def setup(self) -> None:
        build_s = self._build_store() if self.workload.store_epochs else 0.0
        boots = []
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            base = os.path.join(self.workdir, "svc" if last else f"boot{attempt}")
            store_dir = self.store_dir if self.workload.store_epochs else (
                os.path.join(base, "store")
            )
            started = time.perf_counter()
            with self.tracer.span("setup.boot"):
                service = self._boot(store_dir, os.path.join(base, "wal"))
            boots.append(time.perf_counter() - started)
            if last:
                self.service = service
                service.connect(self.connections, self.analysts)
            else:
                service.kill()
                shutil.rmtree(base, ignore_errors=True)
        self.result.metrics["setup_s"] = build_s + median(boots)
        self.result.samples["setup_s"] = len(boots)

    # -- ingest ---------------------------------------------------------- #
    def _ingest_epoch(self, record: bool) -> None:
        """One closed-loop epoch: encode, post every batch, close, check."""
        service = self.service
        workload = self.workload
        epoch = self._next_epoch
        blobs = encode_epoch(
            self.protocol, workload.batch_size, workload.epoch_reports,
            self._next_seed(), self.tracer,
        )
        n_users = workload.epoch_reports
        cpu_before = self._cpu_sample() if record else None
        with self.tracer.span("phase.ingest_epoch"):
            with self.tracer.span("http.ingest", units=n_users):
                latencies, elapsed = self._post(blobs, f"e{epoch}")
            close_started = time.perf_counter()
            with self.tracer.span("http.close", units=1):
                closed = request_json(service.url + "/close", method="POST")
            close_s = time.perf_counter() - close_started
        if cpu_before is not None:
            for name, seconds in self._cpu_sample().items():
                self.cpu[name] = self.cpu.get(name, 0.0) + seconds - cpu_before[name]
        self._count(1)
        if closed.get("epoch") != epoch or closed.get("reports") != n_users:
            raise WrongAnswer(f"epoch {epoch} closed as {closed}")
        if self._frequencies(service.url, epoch) != reference_frequencies(
            self.spec, blobs
        ):
            raise WrongAnswer(
                f"epoch {epoch}: estimates differ from single-process ingest "
                "of the same batches"
            )
        self._next_epoch += 1
        if not record:
            return
        wall = elapsed + close_s
        self.ingest_latencies.extend(latencies)
        self.close_ms.append(close_s * 1e3)
        self.epoch_rates.append(n_users / wall)
        self.phase_wall["ingest"] += wall
        self.ingest_reports += n_users
        self.ingest_bytes += sum(len(blob) for blob in blobs)
        if self.tracer.enabled and len(self.sample_blobs) < 2:
            self.sample_blobs.append(blobs)

    # -- query ----------------------------------------------------------- #
    def _make_queries(self, epochs: List[int], count: int) -> List[Query]:
        """One warm-up pass over every window, then ``count`` queries."""
        rng = np.random.default_rng(self._next_seed())
        domain = int(self.spec["domain_size"])
        scattered = [
            ",".join(
                str(epoch)
                for epoch in sorted(
                    rng.choice(epochs, size=min(SCATTERED_EPOCHS, len(epochs)),
                               replace=False).tolist()
                )
            )
            for _ in range(SCATTERED_POOL)
        ]
        windows = {
            kind: f"last:{min(int(kind[5:]), len(epochs))}"
            for kind in WINDOW_KINDS
            if kind.startswith("last-")
        }
        windows["all"] = "all"
        queries = []
        for index in range(WARM_QUERIES + count):
            kind = WINDOW_KINDS[index % len(WINDOW_KINDS)]
            window = (
                scattered[(index // len(WINDOW_KINDS)) % SCATTERED_POOL]
                if kind == "scattered"
                else windows[kind]
            )
            ranges = [
                tuple(sorted(rng.integers(0, domain, size=2).tolist()))
                for _ in range(RANGES_PER_QUERY)
            ]
            quantiles = [
                round(float(rng.uniform(0.01, 0.99)), 2)
                for _ in range(QUANTILES_PER_QUERY)
            ]
            queries.append(Query(kind, window, ranges, quantiles))
        return queries

    def _send_queries(self, queries: Sequence[Query], analysts: int):
        """Closed loop: each analyst sends its next query once answered."""

        def call(client, index):
            trace = self.tracer.new_trace()
            with self.tracer.span("http.query", trace=trace, units=1):
                return client.get(queries[index].path)

        return closed_loop(self.service.query_clients[:analysts], len(queries), call)

    def _query_block(self) -> None:
        epochs = list(self._stats()["epochs"])
        queries = self._make_queries(epochs, self.queries_per_round)
        warm_answers, _ = self._send_queries(queries[:WARM_QUERIES], 1)
        answers, wall = self._send_queries(queries[WARM_QUERIES:], self.analysts)
        answers = warm_answers + answers
        self.phase_wall["query"] += wall
        self.queries = queries
        failed = sum(1 for answer in answers if answer is None or answer[1][0] != 200)
        self._count(len(queries), failed)
        self._check_queries(queries, answers, epochs)
        self.query_ms.extend(
            answer[0] for answer in answers[WARM_QUERIES:]
            if answer is not None and answer[1][0] == 200
        )

    def _check_queries(self, queries, answers, epochs) -> None:
        """Every answer must equal an in-process engine on the same store."""
        engine = Engine.open(None, store_dir=self.store_dir)
        estimators: Dict[str, object] = {}
        try:
            for query, answer in zip(queries, answers):
                if answer is None or answer[1][0] != 200:
                    continue
                payload = json.loads(answer[1][1])
                window = parse_window(query.window)
                estimator = estimators.get(query.window)
                if estimator is None:
                    estimator = estimators[query.window] = engine.estimator(window)
                expected_ranges = {
                    f"{left}:{right}": estimator.range_query((left, right))
                    for left, right in query.ranges
                }
                expected_quantiles = {
                    f"{phi:g}": int(estimator.quantile_query(phi))
                    for phi in query.quantiles
                }
                if (
                    payload["epochs"] != resolve_window(window, epochs)
                    or payload["ranges"] != expected_ranges
                    or payload["quantiles"] != expected_quantiles
                ):
                    raise WrongAnswer(
                        f"query {query.path} differs from the in-process engine"
                    )
        finally:
            engine.store.close()

    # -- crash and recover ---------------------------------------------- #
    def _crash_and_recover(self, keep_wal: bool) -> None:
        """Acknowledge an open epoch, SIGKILL the gateway, time its restart."""
        epoch = self._next_epoch
        blobs = encode_epoch(
            self.protocol, self.workload.batch_size, self.workload.epoch_reports,
            self._next_seed(), self.tracer,
        )
        self._post(blobs, f"open{epoch}")
        self._add_counters(self._stats())
        self.peak_rss.append(peak_rss_mb(self.service.pid))
        self.service.kill()
        self.service = None
        if keep_wal:
            self.crashed_wal = os.path.join(self.workdir, "crashed-wal")
            shutil.copytree(self.wal_dir, self.crashed_wal)
        expected = reference_frequencies(self.spec, blobs)

        started = time.perf_counter()
        with self.tracer.span("phase.recover_cycle", units=1):
            self.service = Service(
                self.spec, self.store_dir, self.wal_dir, self.workers
            ).start()
            closed = request_json(self.service.url + "/close", method="POST")
            answer = self._frequencies(self.service.url, epoch)
        seconds = time.perf_counter() - started
        self._count(2)
        if (closed.get("epoch"), closed.get("reports")) != (
            epoch, self.workload.epoch_reports
        ):
            raise WrongAnswer(f"recovered epoch closed as {closed}")
        if answer != expected:
            raise WrongAnswer(
                "recovered epoch differs from the reference over the "
                "acknowledged batches"
            )
        stats = self._stats()
        self.service.connect(self.connections, self.analysts)
        self.recovery_s.append(seconds)
        self.recovery_ms.append(float(stats["wal"]["recovery_ms"]))
        self.phase_wall["recover"] += seconds
        self._next_epoch += 1

    # -- whole run ------------------------------------------------------ #
    def run(self, probe_factory=None) -> RunResult:
        """Set up, warm up, then the rounds; ``probe_factory`` (traced runs)
        builds a prober that runs beside the first round's ingest."""
        cpu_before = _cpu_ticks()
        try:
            self.setup()
            self._ingest_epoch(record=False)  # warm-up: fresh workers
            for round_index in range(self.rounds):
                probe = None
                if probe_factory is not None and round_index == 0:
                    probe = probe_factory(self)
                with _beside(probe):
                    for _ in range(self.epochs_per_round):
                        self._ingest_epoch(record=True)
                self._query_block()
                self._crash_and_recover(
                    keep_wal=self.tracer.enabled and round_index == self.rounds - 1
                )
            self._add_counters(self._stats())  # the last incarnation
            self.peak_rss.append(peak_rss_mb(self.service.pid))
        finally:
            if self.service is not None:
                self.service.kill()
        ticks = [after - before for before, after in zip(cpu_before, _cpu_ticks())]
        # /proc/stat order: user nice system idle iowait irq softirq steal
        self.steal_pct = 100.0 * ticks[7] / max(1, sum(ticks))
        self._finish()
        return self.result

    def distributions(self) -> List[str]:
        """One line per latency sample set: its count and every percentile
        with at least ten samples beyond it."""
        lines = []
        for name, samples in (("ingest", self.ingest_latencies),
                              ("query", self.query_ms),
                              ("close", self.close_ms)):
            parts = [f"{name}_ms", f"n={len(samples)}"]
            parts += [
                f"p{q}={percentile(samples, q):.3f}"
                for q in (50, 90, 95, 99)
                if len(samples) * (100 - q) >= 1000
            ]
            parts.append(f"max={max(samples):.3f}")
            lines.append(" ".join(parts))
        return lines

    def _finish(self) -> None:
        metrics = self.result.metrics
        samples = self.result.samples
        metrics["ingest_reports_per_s"] = median(self.epoch_rates)
        metrics["ingest_p50_ms"] = percentile(self.ingest_latencies, 50.0)
        metrics["close_p50_ms"] = percentile(self.close_ms, 50.0)
        metrics["query_p50_ms"] = percentile(self.query_ms, 50.0)
        metrics["recovery_s"] = median(self.recovery_s)
        metrics["peak_rss_mb"] = max(self.peak_rss)
        attempted = max(1, self.result.attempted)
        metrics["ops_ok_share"] = 1.0 - self.result.failed / attempted
        samples.update(
            ingest_reports_per_s=len(self.epoch_rates),
            ingest_p50_ms=len(self.ingest_latencies),
            close_p50_ms=len(self.close_ms),
            query_p50_ms=len(self.query_ms),
            recovery_s=len(self.recovery_s),
            peak_rss_mb=len(self.peak_rss),
            ops_ok_share=attempted,
        )


def stats_counters(stats: dict) -> Dict[str, int]:
    """The exact ``/stats`` counts a run must repeat for the same seed."""
    accepted = stats["accepted"]
    workers = stats["workers"]
    wal = stats["wal"] or {}
    store = stats["store"] or {}
    return {
        "batches": int(accepted["batches"]),
        "reports": int(accepted["reports"]),
        "worker_batches": sum(int(worker.get("batches", 0)) for worker in workers),
        "worker_errors": sum(int(worker.get("errors", 0)) for worker in workers),
        "wal_records": int(wal.get("records_appended", 0)),
        "wal_bytes": int(wal.get("bytes_appended", 0)),
        "store_epochs": len(stats["epochs"]),
        "store_aggregates": int(store.get("aggregates", {}).get("segments", 0)),
        "store_bytes": int(store.get("on_disk_bytes", 0)),
        "rejected_busy": int(accepted["rejected_busy"]),
        "duplicates_dropped": int(accepted["duplicates_dropped"]),
        "deferred_batches": int(accepted["deferred_batches"]),
    }


@contextmanager
def _beside(target: Optional[Callable[[threading.Event], None]]):
    """Run ``target(stop)`` on a thread for the duration of the block."""
    if target is None:
        yield
        return
    stop = threading.Event()
    thread = threading.Thread(target=target, args=(stop,), name="beside")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def trace_store(tracer: Tracer, store) -> None:
    """Wrap the store's write path of one instance in spans."""
    for name in ("write_segment", "build_aggregates", "save_manifest"):
        method = getattr(store, name)

        def wrapper(*args, _method=method, _name=f"store.{name}", **kwargs):
            with tracer.span(_name, units=1):
                return _method(*args, **kwargs)

        setattr(store, name, wrapper)
