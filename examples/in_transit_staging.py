"""In-transit and hybrid analytics placement (extension; paper Section 6).

Five SPMD ranks: three run independent emulated simulations, two are
dedicated staging ranks running the Smart histogram.  The same job runs
twice — in-transit (raw time-steps shipped to the staging ranks) and
hybrid (each simulation rank reduces locally and ships only its compact
combination map) — and reports the byte volumes, the trade these
placements exist for.

Run:  python examples/in_transit_staging.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import Histogram
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy, InTransitDriver, split_staging_comm
from repro.sim import GaussianEmulator

RANKS = 5
STAGING = 2
STEPS = 4
STEP_ELEMENTS = 20_000


def job(comm, mode):
    driver = InTransitDriver(comm, num_staging=STAGING, mode=mode)
    staging_comm = split_staging_comm(comm, STAGING)

    if driver.placement.is_staging:
        app = Histogram(
            ExecutionPolicy(), staging_comm,
            lo=-4.0, hi=4.0, num_buckets=24,
        )
        driver.run_staging_side(app)
        return ("staging", app.counts())

    simulation = GaussianEmulator(STEP_ELEMENTS, seed=900 + comm.rank)
    local_scheduler = (
        Histogram(ExecutionPolicy(), lo=-4.0, hi=4.0, num_buckets=24)
        if mode == "hybrid"
        else None
    )
    shipped = driver.run_simulation_side(
        simulation, STEPS, local_scheduler=local_scheduler
    )
    return ("simulation", shipped)


def main() -> None:
    n_sim = RANKS - STAGING
    print(f"{n_sim} simulation ranks -> {STAGING} staging ranks, "
          f"{STEPS} steps x {STEP_ELEMENTS:,} doubles each\n")

    reference = None
    for mode in ("in_transit", "hybrid"):
        results = spmd_launch(RANKS, job, args_per_rank=[(mode,)] * RANKS)
        shipped = sum(v for role, v in results if role == "simulation")
        counts = next(v for role, v in results if role == "staging")
        if reference is None:
            reference = counts
        assert np.array_equal(counts, reference), "modes must agree"
        print(f"{mode:11s}: shipped {shipped / 1024:8.1f} KiB from simulation "
              f"to staging ranks ({counts.sum():,} elements analyzed)")

    raw = n_sim * STEPS * STEP_ELEMENTS * 8
    print(f"\nhybrid ships local combination maps instead of raw partitions: "
          f"{raw / 1024:.0f} KiB of raw data never crosses the network.")


if __name__ == "__main__":
    main()
