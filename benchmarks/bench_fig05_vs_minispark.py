"""Figure 5 bench: Smart vs mini-Spark on LR / k-means / histogram.

Benchmarks both engines on identical emulator data (the measured core of
Fig. 5) and regenerates the full figure rows including the thread model
and memory-footprint audit.
"""

import pytest

from benchmarks.conftest import regenerate
from repro.analytics import Histogram, KMeans, LogisticRegression
from repro.baselines.minispark import (
    MiniSparkContext,
    spark_histogram,
    spark_kmeans,
    spark_logistic_regression,
)
from repro.core import EnginePolicy, ExecutionPolicy
from repro.harness import fig05


def test_fig05_regenerate(figure_results, benchmark):
    results = regenerate(figure_results, "fig5", fig05.run, benchmark)
    # Headline claim: Smart outperforms Spark by at least an order of
    # magnitude on all three applications.
    for app in ("histogram", "kmeans", "logistic_regression"):
        assert results[app]["spark"] / results[app]["smart"] > 10.0
        assert results[app]["spark_mem"] > 10.0 * results[app]["smart_mem"]


class TestHistogram:
    def test_bench_smart(self, benchmark, emulator_stream):
        app = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=100)
        benchmark(lambda: (app.reset(), app.run(emulator_stream)))

    def test_bench_smart_scalar_chunk_loop(self, benchmark, emulator_stream):
        data = emulator_stream[:8000]
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(map_path="scalar")),
            lo=-4, hi=4, num_buckets=100,
        )
        benchmark(lambda: (app.reset(), app.run(data)))

    def test_bench_minispark(self, benchmark, emulator_stream):
        data = emulator_stream[:8000]
        with MiniSparkContext(1) as ctx:
            benchmark(lambda: spark_histogram(ctx, data, -4, 4, 100))


class TestKMeans:
    DIMS, K, ITERS = 64, 8, 10

    @pytest.fixture(scope="class")
    def points(self, emulator_stream):
        usable = (len(emulator_stream) // self.DIMS) * self.DIMS
        return emulator_stream[:usable]

    def test_bench_smart(self, benchmark, points):
        init = points.reshape(-1, self.DIMS)[: self.K].copy()
        app = KMeans(
            ExecutionPolicy(
                chunk_size=self.DIMS, num_iters=self.ITERS, extra_data=init
            ),
            dims=self.DIMS,
        )
        benchmark(lambda: (app.reset(), app.run(points)))

    def test_bench_minispark(self, benchmark, points):
        small = points[: 40 * self.DIMS]  # pure-Python distance loops are slow
        init = small.reshape(-1, self.DIMS)[: self.K].copy()
        with MiniSparkContext(1) as ctx:
            benchmark(lambda: spark_kmeans(ctx, small, init, 2))


class TestLogisticRegression:
    DIMS, ITERS = 15, 10

    @pytest.fixture(scope="class")
    def samples(self, emulator_stream):
        row = self.DIMS + 1
        usable = (len(emulator_stream) // row) * row
        data = emulator_stream[:usable].copy()
        data.reshape(-1, row)[:, self.DIMS] = (
            data.reshape(-1, row)[:, self.DIMS] > 0
        )
        return data

    def test_bench_smart(self, benchmark, samples):
        app = LogisticRegression(
            ExecutionPolicy(chunk_size=self.DIMS + 1, num_iters=self.ITERS),
            dims=self.DIMS,
        )
        benchmark(lambda: (app.reset(), app.run(samples)))

    def test_bench_minispark(self, benchmark, samples):
        small = samples[: 200 * (self.DIMS + 1)]
        with MiniSparkContext(1) as ctx:
            benchmark(
                lambda: spark_logistic_regression(ctx, small, self.DIMS, 2)
            )
