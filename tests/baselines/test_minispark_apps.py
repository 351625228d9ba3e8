"""Mini-Spark comparison apps agree with the references (fair Fig. 5)."""

import numpy as np

from repro.analytics import (
    make_blobs,
    make_logreg_samples,
    reference_histogram,
    reference_kmeans,
    reference_logreg,
)
from repro.baselines.minispark import (
    MiniSparkContext,
    spark_histogram,
    spark_kmeans,
    spark_logistic_regression,
)


class TestHistogram:
    def test_matches_reference(self, rng):
        data = rng.normal(size=2000)
        with MiniSparkContext(2) as ctx:
            counts = spark_histogram(ctx, data, -4, 4, 25)
        assert np.array_equal(counts, reference_histogram(data, -4, 4, 25))

    def test_clamping(self):
        data = np.array([-100.0, 0.5, 100.0])
        with MiniSparkContext(1) as ctx:
            counts = spark_histogram(ctx, data, 0.0, 1.0, 4)
        assert counts.sum() == 3
        assert counts[0] == 1 and counts[-1] == 1


class TestKMeans:
    def test_matches_reference(self):
        flat, _ = make_blobs(400, 3, 4, seed=21)
        init = flat.reshape(-1, 3)[:4].copy()
        with MiniSparkContext(2) as ctx:
            centroids = spark_kmeans(ctx, flat, init, 4)
        assert np.allclose(centroids, reference_kmeans(flat, init, 4), atol=1e-8)

    def test_agrees_with_smart(self):
        from repro.analytics import KMeans
        from repro.core import ExecutionPolicy

        flat, _ = make_blobs(300, 2, 3, seed=22)
        init = flat.reshape(-1, 2)[:3].copy()
        with MiniSparkContext(1) as ctx:
            spark_c = spark_kmeans(ctx, flat, init, 5)
        smart = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=5, extra_data=init),
            dims=2,
        )
        smart.run(flat)
        assert np.allclose(spark_c, smart.centroids(), atol=1e-8)


class TestLogisticRegression:
    def test_matches_reference(self):
        flat, _ = make_logreg_samples(500, 4, seed=23)
        with MiniSparkContext(2) as ctx:
            w = spark_logistic_regression(ctx, flat, 4, 6)
        assert np.allclose(w, reference_logreg(flat, 4, 6), atol=1e-8)

    def test_agrees_with_smart(self):
        from repro.analytics import LogisticRegression
        from repro.core import ExecutionPolicy

        flat, _ = make_logreg_samples(400, 3, seed=24)
        with MiniSparkContext(1) as ctx:
            spark_w = spark_logistic_regression(ctx, flat, 3, 4)
        smart = LogisticRegression(
            ExecutionPolicy(chunk_size=4, num_iters=4), dims=3
        )
        smart.run(flat)
        assert np.allclose(spark_w, smart.weights, atol=1e-8)
