"""Hand-written low-level baselines agree with Smart and the references."""

import numpy as np
import pytest

from repro.analytics import (
    make_blobs,
    make_logreg_samples,
    reference_histogram,
    reference_kmeans,
    reference_logreg,
    reference_mutual_information,
)
from repro.baselines import (
    lowlevel_histogram,
    lowlevel_kmeans,
    lowlevel_logreg,
    lowlevel_mutual_information,
)
from repro.comm import spmd_launch


class TestSingleRank:
    def test_kmeans(self):
        flat, _ = make_blobs(400, 3, 4, seed=31)
        init = flat.reshape(-1, 3)[:4].copy()
        assert np.allclose(
            lowlevel_kmeans(flat, init, 5), reference_kmeans(flat, init, 5), atol=1e-10
        )

    def test_logreg(self):
        flat, _ = make_logreg_samples(400, 4, seed=32)
        assert np.allclose(
            lowlevel_logreg(flat, 4, 6), reference_logreg(flat, 4, 6), atol=1e-10
        )

    def test_histogram(self, rng):
        data = rng.normal(size=1000)
        assert np.array_equal(
            lowlevel_histogram(data, -4, 4, 20), reference_histogram(data, -4, 4, 20)
        )

    def test_mutual_information(self, rng):
        xy = np.column_stack([rng.normal(size=500), rng.normal(size=500)]).reshape(-1)
        assert lowlevel_mutual_information(xy, (-4, 4), (-4, 4), 10) == pytest.approx(
            reference_mutual_information(xy, (-4, 4), (-4, 4), 10), abs=1e-12
        )


class TestMultiRank:
    @pytest.mark.parametrize("ranks", [2, 3])
    def test_kmeans_rank_invariant(self, ranks):
        flat, _ = make_blobs(300, 3, 4, seed=33)
        init = flat.reshape(-1, 3)[:4].copy()
        expected = reference_kmeans(flat, init, 4)

        def body(comm):
            pts = flat.reshape(-1, 3)
            part = np.array_split(pts, comm.size)[comm.rank].reshape(-1)
            return lowlevel_kmeans(part, init, 4, comm)

        for result in spmd_launch(ranks, body, timeout=30):
            assert np.allclose(result, expected, atol=1e-8)

    def test_logreg_rank_invariant(self):
        flat, _ = make_logreg_samples(300, 3, seed=34)
        expected = reference_logreg(flat, 3, 5)

        def body(comm):
            rows = flat.reshape(-1, 4)
            part = np.array_split(rows, comm.size)[comm.rank].reshape(-1)
            return lowlevel_logreg(part, 3, 5, comm=comm)

        for result in spmd_launch(2, body, timeout=30):
            assert np.allclose(result, expected, atol=1e-8)

    def test_histogram_rank_invariant(self, rng):
        data = rng.normal(size=600)
        expected = reference_histogram(data, -4, 4, 12)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            return lowlevel_histogram(part, -4, 4, 12, comm)

        for counts in spmd_launch(3, body, timeout=30):
            assert np.array_equal(counts, expected)


class TestAgreementWithSmart:
    def test_kmeans_identical_trajectories(self):
        from repro.analytics import KMeans
        from repro.core import ExecutionPolicy

        flat, _ = make_blobs(200, 2, 3, seed=35)
        init = flat.reshape(-1, 2)[:3].copy()
        smart = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=7, extra_data=init),
            dims=2,
        )
        smart.run(flat)
        assert np.allclose(
            smart.centroids(), lowlevel_kmeans(flat, init, 7), atol=1e-10
        )
