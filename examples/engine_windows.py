#!/usr/bin/env python3
"""Sliding-window estimates from an epoch-aware aggregation service.

A long-running LDP aggregation service does not see one static population:
traffic arrives continuously and the underlying distribution drifts.  The
:class:`repro.engine.Engine` façade models this directly:

1. each *epoch* (here: a "day" of traffic) is absorbed into its own
   mergeable accumulator shard -- historical epochs are never touched;
2. queries are answered over *windows* of epochs -- all-time, or a
   sliding ``last(k)`` -- by lazily merging exactly the selected shards;
3. with ``store_dir=`` the same service is *durable and out of core*:
   each sealed day spills to its own mmap segment file, the engine
   restarts from the manifest alone (``Engine.open(None,
   store_dir=...)``), and windowed queries answer from disk
   bit-identically.

The population drifts upward over the week, so the sliding window tracks
the current median while the all-time estimate lags behind it.

Run with:  python examples/engine_windows.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro.data import cauchy_population
from repro.engine import Engine, last

DOMAIN_SIZE = 1024
USERS_PER_DAY = 40_000
N_DAYS = 7
EPSILON = 1.1


def daily_items(day: int, rng: np.random.Generator) -> np.ndarray:
    """One day of traffic; the population center drifts right over time."""
    center = 0.25 + 0.06 * day  # fraction of the domain
    return cauchy_population(
        domain_size=DOMAIN_SIZE,
        n_users=USERS_PER_DAY,
        center_fraction=center,
        rng=rng,
    ).items


def main() -> None:
    rng = np.random.default_rng(0)
    engine = Engine.open(
        "hh", domain_size=DOMAIN_SIZE, epsilon=EPSILON, branching=4
    )

    # --- the service absorbs one epoch per day ------------------------- #
    true_medians = []
    for day in range(N_DAYS):
        items = daily_items(day, rng)
        true_medians.append(int(np.median(items)))
        engine.session(epoch=day).absorb(items, rng=rng)
    print(f"service state: {engine.describe()}")

    # --- windowed queries: sliding window vs all-time ------------------ #
    print()
    print(f"{'day':>4} {'true median':>12} {'last-2 window':>14} {'all-time':>9}")
    for day in range(1, N_DAYS):
        window = [epoch for epoch in range(max(0, day - 1), day + 1)]
        sliding = engine.estimator(window=window)
        alltime = engine.estimator(window=range(day + 1))
        print(
            f"{day:>4} {true_medians[day]:>12} "
            f"{sliding.quantile_query(0.5):>14} "
            f"{alltime.quantile_query(0.5):>9}"
        )

    # ``last(k)`` resolves against whatever epochs exist right now.
    recent = engine.estimator(window=last(2))
    print()
    print(
        "current last-2-day median estimate:",
        recent.quantile_query(0.5),
        f"(true median of day {N_DAYS - 1}: {true_medians[-1]})",
    )
    print(
        "reports per window:",
        {
            "last(2)": engine.n_reports(last(2)),
            "all": engine.n_reports(),
        },
    )

    # --- the same week, durable and out of core ------------------------ #
    # Seal each day into its own segment file: live memory stays O(1) in
    # the number of days, restart reads only the manifest, and the
    # windowed answers match the in-RAM engine bit for bit.
    store_dir = os.path.join(tempfile.mkdtemp(), "epochstore")
    rng = np.random.default_rng(0)  # replay the exact same week
    stored = Engine.open(
        "hh", domain_size=DOMAIN_SIZE, epsilon=EPSILON, branching=4,
        store_dir=store_dir,
    )
    for day in range(N_DAYS):
        stored.session(epoch=day).absorb(daily_items(day, rng), rng=rng)
        stored.seal_epoch(day)  # spill to epoch-%08d.seg, evict from RAM
    stored.checkpoint()  # incremental: manifest only, nothing is dirty
    print()
    print(f"epoch store: {len(stored.sealed_epochs)} sealed segments, "
          f"{stored.store.total_bytes():,} bytes in {store_dir}")

    # Restart: lazy, so no segment is read until a window needs it.
    restored = Engine.open(None, store_dir=store_dir)
    print(f"restored:      {restored.describe()}")
    answer = restored.estimator(window=last(2)).quantile_query(0.5)
    print("last-2-day median from sealed segments:", answer)
    print("matches the in-RAM engine:", answer == recent.quantile_query(0.5))


if __name__ == "__main__":
    main()
