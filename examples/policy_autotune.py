"""Policy autotuning: launch advice and mid-run combine adaptation.

The runtime's knobs (engine backend, combine algorithm, wire format) are
transparent — every setting produces bit-identical results — so choosing
them is purely a performance question, and performance questions belong
to the cost model.  This example closes that loop twice:

1. **Launch advice.**  ``ExecutionPolicy.auto(...)`` describes the
   workload (element count, ranks, key estimate, schema shape) and lets
   :class:`~repro.core.autotune.PolicyAdvisor` pick the knobs from
   :mod:`repro.perfmodel`'s calibrated combine models.
2. **Mid-run adaptation.**  A k-means job starts on the paper-default
   gather combine; a :class:`~repro.core.autotune.CombineSwitch`
   installed as the scheduler's ``policy_adaptor`` watches the observed
   combination-map size after every iteration and flips the policy to
   allreduce when it crosses the calibrated gather/allreduce crossover
   (forced low here so a small example fires it).  Every decision lands
   in ``policy.*`` telemetry.

Run:  python examples/policy_autotune.py
"""

from __future__ import annotations

import numpy as np

from repro.core import CombineSwitch, ExecutionPolicy, PolicyAdvisor
from repro.analytics import KMeans
from repro.comm import spmd_launch

RANKS = 2
POINTS = 400
DIMS = 3
CLUSTERS = 4


def launch_advice() -> None:
    advisor = PolicyAdvisor()
    print("== launch advice ==")
    for label, hints in [
        ("small histogram, 1 rank",
         dict(elements=2048, ranks=1, key_estimate=32,
              schema_mergeable=True, has_batch_path=True)),
        ("wide window, 4 ranks",
         dict(elements=1 << 16, ranks=4, threads=2, key_estimate=1 << 16,
              schema_mergeable=True, has_batch_path=True)),
        ("big scalar loop, 4 threads",
         dict(elements=1 << 20, ranks=1, threads=4, key_estimate=16)),
    ]:
        advice = advisor.advise_with_detail(**hints)
        p = advice.policy
        print(f"  {label}:")
        print(f"    engine={p.engine.backend} threads={p.engine.num_threads} "
              f"algo={p.combine.algorithm} wire={p.combine.wire_format} "
              f"map={p.engine.map_path}")
        print(f"    crossover={advice.crossover_keys} keys  "
              f"(gather {advice.gather_seconds * 1e3:.3f} ms vs "
              f"allreduce {advice.allreduce_seconds * 1e3:.3f} ms at the "
              f"estimate)")


def kmeans_rank(comm):
    rng = np.random.default_rng(42)
    flat = rng.normal(size=POINTS * DIMS).reshape(-1, DIMS)
    flat[: POINTS // 2] += 5.0  # two well-separated blobs per axis pair
    data = np.array_split(flat, comm.size)[comm.rank].reshape(-1)

    policy = ExecutionPolicy.parse("chunk=3,iters=4").evolve(
        extra_data=flat[:CLUSTERS].copy())
    app = KMeans(policy, comm, dims=DIMS)
    # Force the crossover below k-means' k=4 keys so the tiny example
    # adapts; a real deployment omits crossover_keys and inherits the
    # machine model's calibrated boundary.
    switch = CombineSwitch(crossover_keys=2)
    app.policy_adaptor = switch
    with app:
        app.run(data.copy())
        counters = {k: v for k, v in
                    app.telemetry_snapshot()["counters"].items()
                    if k.startswith("policy.")}
        return (app.centroids(), list(switch.history),
                app.policy.combine.algorithm, counters)


def mid_run_switch() -> None:
    print("\n== mid-run combine switch (k-means, 2 ranks) ==")
    results = spmd_launch(RANKS, kmeans_rank)
    centroids, history, algorithm, counters = results[0]
    for iteration, keys, src, dst in history:
        print(f"  iteration {iteration}: observed {keys} keys -> "
              f"switched {src} to {dst}")
    print(f"  final combine algorithm: {algorithm}")
    print("  policy.* telemetry:")
    for name in sorted(counters):
        print(f"    {name} = {counters[name]}")
    same = all(np.array_equal(centroids, c) for c, _, _, _ in results)
    print(f"  centroids identical on all ranks: {same}")
    print(f"  centroids:\n{np.round(centroids, 3)}")


if __name__ == "__main__":
    launch_advice()
    mid_run_switch()
