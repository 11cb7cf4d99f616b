#!/usr/bin/env python3
"""Pipeline benchmark: device encode -> gateway -> WAL -> workers -> seal ->
store -> windowed ``/query``, measured from outside the service.

Run one workload (what a regression check does)::

    python3 pipebench/run.py --workload ingest-hh-oue --seed 1 --seconds 10 --trace 0

or every workload and its correctness gates in one go::

    python3 pipebench/run.py --workload all

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same pipeline with spans, replays each layer's public
calls on the run's inputs and reports the per-layer metrics, the stage
table and the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

FLUSH_POLICY = (
    "WAL sync off (each append is written and flushed to the OS before the "
    "ack); store fsyncs every sealed segment and manifest"
)
PAGE_CACHE = "warm: every read follows a write of the same run"


def _commit() -> str:
    """The checkout's commit from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(run, args) -> dict:
    import numpy

    import repro
    from repro.core.kernels import resolve_backend

    return {
        "workload": run.workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": run.nproc,
        "shard_workers": run.workers,
        "ingest_connections": run.connections,
        "query_analysts": run.analysts,
        "rounds": {
            "count": run.rounds,
            "ingest_epochs_each": run.epochs_per_round,
            "queries_each": run.queries_per_round,
            "crash_recover_each": 1,
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "kernel_backend": resolve_backend().name,
        "numba": (
            "installed" if importlib.util.find_spec("numba") else
            "absent: numba figures are CI-only"
        ),
        "commit": _commit(),
        "source_digest": _source_digest(),
        "flush_policy": FLUSH_POLICY,
        "page_cache": PAGE_CACHE,
    }


def _source_digest() -> str:
    """A short digest of the program's source, so counts compare per version."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _check_counters(out_dir: Path, args, counters: dict) -> str:
    """Compare the exact ``/stats`` counts with an earlier run of this seed."""
    path = out_dir / (
        f"counters-{args.workload}-seed{args.seed}-s{args.seconds}-"
        f"{_source_digest()}.json"
    )
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            return f"differ from the earlier run recorded in {path.name}: {earlier}"
        return "repeat exactly the earlier run of this seed"
    path.write_text(json.dumps(counters, sort_keys=True))
    return "recorded (first run of this seed)"


def run_workload(name: str, args, spec: dict, out_dir: Path) -> dict:
    """One workload: the result object of the output contract."""
    from layers import (
        LAYER_MOVES,
        layer_metrics,
        noop_probe,
        replay_layers,
        stage_table,
    )
    from pipeline import WORKLOADS, PipelineRun, Tracer, WrongAnswer

    nproc = len(os.sched_getaffinity(0))
    workdir = ROOT / ".pipebench" / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer(bool(args.trace))
    run = PipelineRun(WORKLOADS[name], args.seed, args.seconds, str(workdir),
                      tracer, nproc)
    print("env " + json.dumps(_environment(run, args), sort_keys=True), flush=True)
    try:
        try:
            result = run.run(noop_probe if args.trace else None)
            replayed = replay_layers(run) if args.trace else {}
        except WrongAnswer as exc:
            print(f"WRONG ANSWER on {name}: {exc}", flush=True)
            return {"correct": False, "attempted": max(1, run.result.attempted),
                    "failed": run.result.failed, "metrics": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    repeat = _check_counters(out_dir, args, result.counters)
    correct = not repeat.startswith("differ")
    print(f"counters {json.dumps(result.counters, sort_keys=True)} -- {repeat}")
    for line in run.distributions():
        print(line)
    print(
        f"machine: {run.steal_pct:.2f}% of CPU time was stolen by the "
        "hypervisor during the run (other tenants; high values slow every metric)"
    )

    if args.trace:
        values = layer_metrics(run, replayed)
        wanted = spec["per_layer"]
        for line in stage_table(run):
            print(line)
        spans_path = out_dir / f"spans-{name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
        print(
            f"tracing overhead: {values['trace.overhead_pct']:.3f}% of the timed "
            f"phases ({len(tracer.spans)} spans written to {spans_path.name}); "
            "traced ingest_reports_per_s "
            f"{values['trace.ingest_reports_per_s']:.0f} -- compare with the "
            "untraced run of the same seed"
        )
    else:
        values = result.metrics
        wanted = spec["end_to_end"]
    metrics = {}
    note = "should move" if args.trace else "samples"
    print(f"{name}: {'metric':38} {'value':>14} {'unit':10} {note}")
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if args.trace:
            note = LAYER_MOVES[entry["name"]]
        else:
            note = result.samples[entry["name"]]
        print(f"{name}: {entry['name']:38} {value:14.6g} {entry['unit']:10} {note}")
    return {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for spawn."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the services it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        from pipeline import WORKLOADS
    except (OSError, ImportError) as exc:
        print(f"pipebench: cannot load the program or BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    out_dir = ROOT / ".pipebench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = run_workload(name, args, spec, out_dir)
            if len(names) > 1:
                print(f"{name} " + json.dumps(results[name]), flush=True)
    finally:
        _stop_resource_tracker()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
