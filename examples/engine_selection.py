"""Choosing an execution engine and reading the unified telemetry.

The per-split reduction loop — the paper's intra-rank OpenMP region —
is pluggable: ``EnginePolicy(backend=...)`` selects ``"serial"`` (default,
deterministic), ``"thread"`` (persistent thread pool; profitable when
the batch kernel hands the GIL to numpy), or ``"process"``
(the calling thread as thread 0 plus a persistent process pool over a
shared-memory copy of the partition; the GIL-free path for scalar chunk
loops).  All three produce
bit-identical results; this example demonstrates that, shows the pooled
engines creating exactly one pool per scheduler lifetime, and reads the
unified telemetry snapshot that replaced ad-hoc statistics.

Run:  python examples/engine_selection.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import Histogram, KMeans, make_blobs
from repro.core import EnginePolicy, ExecutionPolicy

ELEMENTS = 60_000


def histogram_counts(engine: str, data: np.ndarray) -> tuple[dict, dict]:
    """Run the histogram under one engine; return (counts, snapshot)."""
    # Schedulers are context managers: closing releases the engine pool.
    with Histogram(
        ExecutionPolicy(engine=EnginePolicy(backend=engine, num_threads=3)),
        lo=-4, hi=4, num_buckets=64,
    ) as app:
        app.run(data)
        counts = {k: v.count for k, v in app.get_combination_map().sorted_items()}
        return counts, app.telemetry_snapshot()


def main() -> None:
    data = np.random.default_rng(11).normal(size=ELEMENTS)

    print(f"histogram over {ELEMENTS} elements, 3 splits per run")
    reference = None
    for engine in ("serial", "thread", "process"):
        counts, snap = histogram_counts(engine, data)
        if reference is None:
            reference = counts
        agree = "identical" if counts == reference else "DIFFERENT"
        splits = snap["counters"].get("engine.splits", 0)
        pools = snap["counters"].get("engine.pools_created", 0)
        # In-process engines time each split; the process engine times
        # whole blocks (its workers keep their own per-split clocks).
        timers = snap["timers"]
        timed = timers.get("engine.block_seconds") or timers.get("engine.split_seconds", {})
        print(
            f"  engine={engine:<8} counts {agree} to serial | "
            f"splits={splits} pools={pools} reduce_time={timed.get('seconds', 0.0) * 1e3:.2f} ms"
        )

    # One pool per scheduler *lifetime*: repeated runs reuse it.
    flat, _ = make_blobs(2_000, 4, 6, seed=11)
    init = flat.reshape(-1, 4)[:6].copy()
    with KMeans(
        ExecutionPolicy(
            engine=EnginePolicy(backend="thread", num_threads=2),
            chunk_size=4,
            num_iters=4,
            extra_data=init,
        ),
        dims=4,
    ) as app:
        for _ in range(3):
            app.reset()
            app.run(flat)
        snap = app.telemetry_snapshot()
        print(
            f"k-means x3 runs on engine={snap['engine']}: "
            f"pools_created={snap['counters']['engine.pools_created']} "
            f"(one per scheduler lifetime), "
            f"iterations={snap['counters']['run.iterations_run']}, "
            f"state={snap['counters']['run.state_nbytes']} bytes"
        )


if __name__ == "__main__":
    main()
