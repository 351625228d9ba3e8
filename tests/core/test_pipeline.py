"""The paper's pipeline case, chained by hand: one Smart job's output
configures the next (Sections 3.1 and 3.5)."""

import numpy as np

from repro.analytics import Histogram, MinMax, reference_histogram
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy


class TestRangeThenHistogram:
    """The paper's Listing-3 scenario: an earlier Smart job finds the value
    range, the histogram uses it (Section 3.5)."""

    def test_single_rank(self):
        data = np.random.default_rng(0).normal(size=2000)
        minmax = MinMax(ExecutionPolicy())
        minmax.run(data)
        lo, hi = minmax.value_range
        hist = Histogram(ExecutionPolicy(), lo=lo, hi=hi + 1e-9, num_buckets=20)
        hist.run(data)
        assert hist.counts().sum() == 2000
        assert np.array_equal(
            hist.counts(), reference_histogram(data, lo, hi + 1e-9, 20)
        )

    def test_multi_rank_pipeline_object(self):
        data = np.random.default_rng(1).normal(size=1200)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            minmax = MinMax(ExecutionPolicy(), comm)
            minmax.run(part)  # global combination on: all ranks learn range
            lo, hi = minmax.value_range
            hist = Histogram(ExecutionPolicy(), comm, lo=lo, hi=hi + 1e-9, num_buckets=10)
            hist.run(part)
            return (lo, hi, hist.counts())

        results = spmd_launch(3, body, timeout=30)
        lo, hi, counts = results[0]
        assert lo == data.min()
        assert hi == data.max()
        assert counts.sum() == 1200
        for other in results[1:]:
            assert np.array_equal(other[2], counts)
