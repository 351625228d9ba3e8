"""Figure 6 bench: Smart vs hand-written low-level analytics.

Benchmarks the identical kernels through both code paths (the measured
core of Fig. 6) plus the serialization step that explains Smart's
overhead, and regenerates the figure's overhead/programmability tables.
"""

import numpy as np
import pytest

from benchmarks.conftest import regenerate
from repro.analytics import KMeans, LogisticRegression, make_blobs, make_logreg_samples
from repro.baselines.lowlevel import lowlevel_kmeans, lowlevel_logreg
from repro.core import ExecutionPolicy
from repro.core.serialization import deserialize_map, serialize_map
from repro.harness import fig06


def test_fig06_regenerate(figure_results, benchmark):
    results = regenerate(figure_results, "fig6", fig06.run, benchmark)
    # Shape: Smart stays within a small factor of the manual code —
    # the paper reports <= 9% (k-means) and unnoticeable (LR).
    for app in ("kmeans", "logistic_regression"):
        for nodes, overhead in results["overheads"][app].items():
            assert overhead < 25.0, (app, nodes, overhead)


class TestKMeansKernels:
    @pytest.fixture(scope="class")
    def data(self):
        flat, _ = make_blobs(4000, 64, 8, seed=61)
        init = flat.reshape(-1, 64)[:8].copy()
        return flat, init

    def test_bench_smart(self, benchmark, data):
        flat, init = data
        app = KMeans(
            ExecutionPolicy(chunk_size=64, num_iters=10, extra_data=init),
            dims=64,
        )
        benchmark(lambda: (app.reset(), app.run(flat)))

    def test_bench_lowlevel(self, benchmark, data):
        flat, init = data
        benchmark(lambda: lowlevel_kmeans(flat, init, 10))


class TestLogRegKernels:
    @pytest.fixture(scope="class")
    def data(self):
        flat, _ = make_logreg_samples(8000, 15, seed=62)
        return flat

    def test_bench_smart(self, benchmark, data):
        app = LogisticRegression(
            ExecutionPolicy(chunk_size=16, num_iters=10), dims=15
        )
        benchmark(lambda: (app.reset(), app.run(data)))

    def test_bench_lowlevel(self, benchmark, data):
        benchmark(lambda: lowlevel_logreg(data, 15, 10))


class TestSerializationOverheadSource:
    """The paper attributes Smart's Fig. 6 overhead to serializing
    noncontiguous reduction objects; these benches measure exactly that
    against the contiguous-buffer alternative."""

    @pytest.fixture(scope="class")
    def com_map(self):
        flat, _ = make_blobs(500, 64, 8, seed=63)
        init = flat.reshape(-1, 64)[:8].copy()
        app = KMeans(
            ExecutionPolicy(chunk_size=64, num_iters=1, extra_data=init),
            dims=64,
        )
        app.run(flat)
        return app.get_combination_map()

    def test_bench_serialize_reduction_map(self, benchmark, com_map):
        benchmark(lambda: deserialize_map(serialize_map(com_map)))

    def test_bench_contiguous_buffer_pack(self, benchmark):
        sums = np.random.default_rng(0).random((8, 64))
        sizes = np.random.default_rng(1).random(8)
        buf = np.empty(8 * 64 + 8)

        def pack():
            buf[: 8 * 64] = sums.reshape(-1)
            buf[8 * 64 :] = sizes
            return buf.copy()

        benchmark(pack)
