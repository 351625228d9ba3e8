"""Space-sharing mode: simulation and analytics run concurrently (Listing 2).

One group of cores keeps the LULESH-proxy simulation advancing while
another drains time-steps from the circular buffer and runs a histogram
of the energy field — the producer/consumer structure of the paper's
Figure 4.  The buffer's blocking statistics show the coupling: whenever
analytics falls behind, the simulation blocks on a full buffer.

Run:  python examples/space_sharing_lulesh.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import Histogram
from repro.core import CoreSplit, EnginePolicy, ExecutionPolicy, SpaceSharingDriver
from repro.sim import LuleshProxy

EDGE = 24
STEPS = 12
BUFFER_CELLS = 3


def main() -> None:
    simulation = LuleshProxy(EDGE)
    histogram = Histogram(
        ExecutionPolicy(
            engine=EnginePolicy(num_threads=1), buffer_capacity=BUFFER_CELLS
        ),
        lo=0.0, hi=float(EDGE), num_buckets=24,
    )
    driver = SpaceSharingDriver(
        simulation, histogram, CoreSplit(sim_threads=1, analytics_threads=1)
    )

    result = driver.run(num_steps=STEPS)

    counts = histogram.counts()
    print(f"space-sharing run: Lulesh proxy edge={EDGE}, {STEPS} steps, "
          f"{BUFFER_CELLS}-cell circular buffer")
    print(f"elements analyzed: {counts.sum():,} "
          f"(= {STEPS} steps x {simulation.partition_elements:,})")
    print(f"elapsed {result.elapsed_seconds * 1e3:.0f} ms "
          f"(producer {result.producer_seconds * 1e3:.0f} ms || "
          f"consumer {result.consumer_seconds * 1e3:.0f} ms)")
    print(f"producer blocked on full buffer:  {result.producer_blocks}x")
    print(f"consumer blocked on empty buffer: {result.consumer_blocks}x")

    print("\nenergy distribution (log-scaled bars):")
    nonzero = counts > 0
    log_counts = np.zeros_like(counts, dtype=float)
    log_counts[nonzero] = np.log10(counts[nonzero] + 1)
    scale = 50 / max(log_counts.max(), 1.0)
    width = EDGE / 24
    for i, count in enumerate(counts):
        if count:
            print(f"  [{i * width:5.1f}, {(i + 1) * width:5.1f}) "
                  f"{'#' * int(log_counts[i] * scale):50s} {count}")


if __name__ == "__main__":
    main()
