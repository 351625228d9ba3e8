"""A Smart analytics pipeline: range discovery feeding a histogram.

Paper Listing 3 assumes the histogram's value range "can be taken as a
priori knowledge or be retrieved by an earlier Smart analytics job".
This example is that two-job pipeline, run distributed: a MinMax job
(global combination on, so every rank learns the range) followed by a
histogram over exactly that range — plus a mutual-information job
relating the simulated field to its own smoothed version, the paper's
"nuanced MapReduce pipeline" case.

Run:  python examples/analytics_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.analytics import Histogram, MinMax, MovingAverage, MutualInformation
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy
from repro.sim import LuleshProxy

RANKS = 3
STEPS = 5
EDGE = 16


def pipeline(comm):
    simulation = LuleshProxy(EDGE, comm)

    # Job 1: discover the global value range of the energy field.
    minmax = MinMax(ExecutionPolicy(), comm)
    for _ in range(STEPS):
        minmax.run(simulation.advance())
    lo, hi = minmax.value_range

    # Job 2: histogram over the discovered range (fresh pass over new
    # steps, as a persistent in-situ deployment would).
    histogram = Histogram(
        ExecutionPolicy(), comm,
        lo=lo, hi=np.nextafter(hi, np.inf), num_buckets=16,
    )
    simulation.reset()
    last_partition = None
    for _ in range(STEPS):
        last_partition = simulation.advance().copy()
        histogram.run(last_partition)

    # Job 3: mutual information between the raw field and its smoothed
    # version.  The smoothing stage is a *local* preprocessing job (global
    # combination off — each rank smooths its own partition, the paper's
    # pipeline pattern from Section 3.1); the MI job then combines
    # globally.
    n = last_partition.shape[0]
    smoother = MovingAverage(ExecutionPolicy(), comm, win_size=5)
    smoother.set_global_combination(False)
    smoothed = np.full(n, np.nan)
    smoother.run2(last_partition, smoothed, global_offset=0, total_len=n)
    # Blast energy is concentrated near zero; compare in log space so the
    # joint histogram resolves the field's actual dynamic range.
    log_raw = np.log10(last_partition + 1e-9)
    log_smooth = np.log10(np.maximum(smoothed, 0.0) + 1e-9)
    log_lo, log_hi = np.log10(lo + 1e-9), np.log10(hi + 1e-9)
    pairs = np.column_stack([log_raw, log_smooth]).reshape(-1)
    mi = MutualInformation(
        ExecutionPolicy(chunk_size=2), comm,
        x_range=(log_lo, log_hi), y_range=(log_lo, log_hi), bins=12,
    )
    mi.run(pairs)

    if comm.is_master:
        return dict(lo=lo, hi=hi, counts=histogram.counts(), mi=mi.mutual_information())
    return None


def main() -> None:
    result = spmd_launch(RANKS, pipeline)[0]
    print(f"pipeline over {RANKS} ranks, Lulesh proxy edge={EDGE}, {STEPS} steps")
    print(f"job 1 (MinMax):    global energy range [{result['lo']:.4g}, {result['hi']:.4g}]")
    counts = result["counts"]
    print(f"job 2 (Histogram): {counts.sum():,} elements, "
          f"mode bucket {int(np.argmax(counts))} of 16")
    print(f"job 3 (MI):        raw vs smoothed field MI = {result['mi']:.3f} nats "
          "(> 0: the smoothed field retains information about the raw field)")


if __name__ == "__main__":
    main()
