"""Figure 10 bench: time sharing vs space sharing.

Benchmarks the two real drivers end to end on the same workload (the
functional core of the comparison) and regenerates the modeled Xeon Phi
sweep with its three paper outcomes.
"""


from benchmarks.conftest import regenerate
from repro.analytics import Histogram
from repro.core import CoreSplit, ExecutionPolicy, SpaceSharingDriver, TimeSharingDriver
from repro.harness import fig10
from repro.sim import LuleshProxy


def test_fig10_regenerate(figure_results, benchmark):
    results = regenerate(figure_results, "fig10", fig10.run, benchmark)
    # Paper outcomes: histogram prefers time sharing; k-means's best space
    # scheme is 50_10 and wins; moving median's best is 30_30 and wins big.
    assert results["histogram"]["improvement_pct"] < 0
    assert results["kmeans"]["best"] == "50_10"
    assert results["kmeans"]["improvement_pct"] > 0
    assert results["moving_median"]["best"] == "30_30"
    assert results["moving_median"]["improvement_pct"] > 15


def _make_histogram():
    return Histogram(
        ExecutionPolicy(buffer_capacity=2),
        lo=-1.0, hi=60.0, num_buckets=64,
    )


def test_bench_time_sharing_driver(benchmark):
    def run():
        driver = TimeSharingDriver(LuleshProxy(16), _make_histogram())
        return driver.run(4)

    benchmark(run)


def test_bench_space_sharing_driver(benchmark):
    def run():
        driver = SpaceSharingDriver(
            LuleshProxy(16), _make_histogram(), CoreSplit(1, 1)
        )
        return driver.run(4)

    benchmark(run)


def test_bench_circular_buffer_throughput(benchmark):
    """put/get round trips through the space-sharing buffer."""
    import numpy as np

    from repro.core import CircularBuffer

    payload = np.zeros(4096)
    buf = CircularBuffer(4)

    def roundtrip():
        for _ in range(8):
            buf.put(payload.copy())
            buf.get()

    benchmark(roundtrip)
