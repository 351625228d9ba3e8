"""Quickstart: write and run a Smart analytics application.

This is the paper's Listing 3 (equi-width histogram) end to end: define a
reduction object, derive a scheduler with three sequential callbacks, and
run it in-situ over a simulation's time-steps — no parallelization code
anywhere in the application.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    EnginePolicy,
    ExecutionPolicy,
    RedObj,
    Scheduler,
    TimeSharingDriver,
)
from repro.sim import GaussianEmulator


# Step 1 - derive a reduction object (the value type of the reduction and
# combination maps).  One Bucket per histogram bin.
class Bucket(RedObj):
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


# Step 2 - derive a system scheduler: gen_key / accumulate / merge are
# plain sequential code; Smart handles splitting, threading, and global
# combination.
class Histogram(Scheduler):
    LO, HI, BUCKETS = -4.0, 4.0, 20

    def gen_key(self, chunk, data, combination_map):
        width = (self.HI - self.LO) / self.BUCKETS
        key = int((data[chunk.start] - self.LO) / width)
        return min(max(key, 0), self.BUCKETS - 1)

    def accumulate(self, chunk, data, red_obj, key):
        if red_obj is None:
            red_obj = Bucket()
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj, out, key):
        out[key] = red_obj.count


def main() -> None:
    # Step 3 - attach the analytics to a running simulation.  The driver
    # alternates simulate/analyze per time-step (time-sharing mode); the
    # partition is analyzed in place through a read pointer, never copied.
    simulation = GaussianEmulator(step_elements=50_000, seed=7)
    histogram = Histogram(
        ExecutionPolicy(engine=EnginePolicy(num_threads=2), chunk_size=1)
    )
    driver = TimeSharingDriver(simulation, histogram)

    result = driver.run(num_steps=10)

    out = np.zeros(Histogram.BUCKETS, dtype=np.int64)
    for key, bucket in histogram.get_combination_map().items():
        out[key] = bucket.count

    print(f"analyzed {out.sum():,} elements over 10 time-steps")
    print(f"simulation time: {result.simulate_seconds * 1e3:.1f} ms, "
          f"analytics time: {result.analyze_seconds * 1e3:.1f} ms")
    peak = histogram.telemetry.counter("run.peak_red_objects")
    print(f"peak reduction objects: {peak} (vs {out.sum():,} input elements)")
    width = (Histogram.HI - Histogram.LO) / Histogram.BUCKETS
    print("\nhistogram:")
    scale = 60 / out.max()
    for i, count in enumerate(out):
        lo = Histogram.LO + i * width
        print(f"  [{lo:+5.1f}, {lo + width:+5.1f}) {'#' * int(count * scale):60s} {count}")


if __name__ == "__main__":
    main()
