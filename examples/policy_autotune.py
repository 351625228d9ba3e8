"""Policy advice: let the runtime pick the engine and the wire.

The runtime's knobs (engine backend, combine fallback, wire format) are
transparent — every setting produces bit-identical results — so choosing
them is purely a performance question.  ``ExecutionPolicy.auto(...)``
describes the workload (element count, thread budget, schema shape) and
lets :class:`~repro.core.autotune.PolicyAdvisor` pick the engine and the
wire format.  No combine algorithm is chosen: a map whose schema merges
columnar — k-means' clusters included — is always combined by the key
vote's contiguous allreduce, which the second half of this example shows
on a 2-rank k-means run.

Run:  python examples/policy_autotune.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import KMeans
from repro.comm import TrafficProfiler, spmd_launch
from repro.core import ExecutionPolicy

RANKS = 2
POINTS = 400
DIMS = 3
CLUSTERS = 4


def launch_advice() -> None:
    print("== launch advice ==")
    for label, hints in [
        ("small histogram",
         dict(elements=2048, schema_mergeable=True, has_batch_path=True)),
        ("wide window, 2 threads",
         dict(elements=1 << 16, threads=2, schema_mergeable=True,
              has_batch_path=True)),
        ("big scalar loop, 4 threads",
         dict(elements=1 << 20, threads=4)),
    ]:
        p = ExecutionPolicy.auto(**hints)
        print(f"  {label}:")
        print(f"    engine={p.engine.backend} threads={p.engine.num_threads} "
              f"algo={p.combine.algorithm} wire={p.combine.wire_format} "
              f"map={p.engine.map_path}")


def kmeans_rank(comm):
    rng = np.random.default_rng(42)
    flat = rng.normal(size=POINTS * DIMS).reshape(-1, DIMS)
    flat[: POINTS // 2] += 5.0  # two well-separated blobs per axis pair
    data = np.array_split(flat, comm.size)[comm.rank].reshape(-1)

    policy = ExecutionPolicy.auto(
        elements=len(data), chunk_size=DIMS, num_iters=4,
        schema_mergeable=True, extra_data=flat[:CLUSTERS].copy())
    with KMeans(policy, comm, dims=DIMS) as app:
        app.run(data.copy())
        return app.centroids(), policy.fingerprint()


def advised_kmeans() -> None:
    print(f"\n== advised k-means, {RANKS} ranks ==")
    profiler = TrafficProfiler()
    results = spmd_launch(RANKS, kmeans_rank, profiler=profiler)
    centroids, fingerprint = results[0]
    print(f"  policy: {fingerprint}")
    wire = {op: calls for op, (calls, _) in profiler.snapshot().items()
            if op.startswith("wire.")}
    print(f"  combine wire tallies (calls): {wire}")
    same = all(np.array_equal(centroids, c) for c, _ in results)
    print(f"  centroids identical on all ranks: {same}")
    print(f"  centroids:\n{np.round(centroids, 3)}")


if __name__ == "__main__":
    launch_advice()
    advised_kmeans()
