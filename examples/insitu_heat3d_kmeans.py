"""Distributed in-situ k-means over a Heat3D simulation (paper Listing 1).

Launches a 4-rank SPMD job.  Each rank runs its slab of the Heat3D grid;
after every time-step, the rank-local output partition is handed to the
Smart scheduler (3 added lines in the simulation loop — the paper's
ease-of-use claim), and k-means centroids are combined globally.  After
the parallel region converges, the sequential code reads the final
centroids from the master — the hybrid programming view of Section 2.3.2.

The analytics tracks how the temperature-field clusters move as heat
diffuses through the domain (the paper's "k-means tracks the movement of
centroids in different time-steps" use case).

Run:  python examples/insitu_heat3d_kmeans.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import KMeans
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy
from repro.sim import Heat3D

GRID = (24, 32, 32)  # global (nz, ny, nx), decomposed along z
RANKS = 4
STEPS = 20
DIMS = 4  # consecutive temperature samples form one feature vector
K = 5


def simulation_with_insitu_analytics(comm):
    """The SPMD body: a simulation loop with 3 lines of Smart calls."""
    simulation = Heat3D(GRID, comm)
    init_centroids = np.linspace(0.0, 100.0, K)[:, None] * np.ones((K, DIMS))

    args = ExecutionPolicy(
        engine=EnginePolicy(num_threads=2),
        chunk_size=DIMS,
        num_iters=3,
        extra_data=init_centroids,
    )
    smart = KMeans(args, comm, dims=DIMS)

    trajectory = []
    for step in range(STEPS):
        partition = simulation.advance()  # this rank's new time-step
        usable = (partition.shape[0] // DIMS) * DIMS
        smart.run(partition[:usable])  # <- the in-situ analytics launch
        if comm.is_master and step % 5 == 4:
            trajectory.append(smart.centroids().mean(axis=1).copy())

    # Sequential programming view: the global result is readable after the
    # parallel code converges.
    return trajectory if comm.is_master else None


def main() -> None:
    results = spmd_launch(RANKS, simulation_with_insitu_analytics)
    trajectory = results[0]
    print(f"in-situ k-means on Heat3D {GRID} over {STEPS} steps, {RANKS} ranks")
    print("centroid mean temperature after every 5 steps (heat diffusing):")
    for i, centroids in enumerate(trajectory):
        formatted = ", ".join(f"{c:7.2f}" for c in sorted(centroids))
        print(f"  step {5 * (i + 1):3d}: [{formatted}]")
    spread_first = max(trajectory[0]) - min(trajectory[0])
    spread_last = max(trajectory[-1]) - min(trajectory[-1])
    print(f"cluster spread {spread_first:.2f} -> {spread_last:.2f} "
          "(clusters track the evolving field)")


if __name__ == "__main__":
    main()
