"""K-means application (paper Listing 4)."""

import numpy as np
import pytest

from repro.analytics import KMeans, make_blobs, reference_kmeans
from repro.comm import spmd_launch
from repro.core import SchedArgs


def build(init, iters=5, kernel=False, comm=None, threads=1):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    dims = init.shape[1]
    return KMeans(
        SchedArgs(
            chunk_size=dims, num_iters=iters, extra_data=init,
            map_path="auto" if kernel else "scalar", num_threads=threads,
        ),
        comm, dims=dims,
    )


@pytest.fixture
def blobs():
    flat, centers = make_blobs(600, 3, 4, seed=11)
    init = flat.reshape(-1, 3)[:4].copy()
    return flat, init, centers


class TestCorrectness:
    def test_matches_reference_lloyd(self, blobs):
        flat, init, _ = blobs
        app = build(init)
        app.run(flat)
        assert np.allclose(app.centroids(), reference_kmeans(flat, init, 5), atol=1e-10)

    def test_vectorized_equals_scalar(self, blobs):
        flat, init, _ = blobs
        scalar, vector = build(init), build(init, kernel=True)
        scalar.run(flat)
        vector.run(flat)
        assert np.allclose(scalar.centroids(), vector.centroids(), atol=1e-10)

    def test_recovers_blob_centers(self, blobs):
        flat, init, centers = blobs
        app = build(init, iters=25, kernel=True)
        app.run(flat)
        found = app.centroids()
        # Each true centre has a recovered centroid nearby.
        for c in centers:
            assert np.min(np.linalg.norm(found - c, axis=1)) < 0.5

    def test_empty_cluster_keeps_centroid(self):
        points = np.array([[0.0, 0.0], [0.1, 0.1], [0.2, 0.0]])
        init = np.array([[0.0, 0.0], [100.0, 100.0]])  # second never wins
        app = build(init, iters=3)
        app.run(points.reshape(-1))
        assert np.allclose(app.centroids()[1], [100.0, 100.0])

    def test_converged_assignment_is_fixed_point(self, blobs):
        flat, init, _ = blobs
        app = build(init, iters=40, kernel=True)
        app.run(flat)
        c40 = app.centroids()
        assert np.allclose(c40, reference_kmeans(flat, init, 41), atol=1e-8)

    @pytest.mark.parametrize("ranks", [2, 4])
    @pytest.mark.parametrize("kernel", [False, True])
    def test_rank_invariant(self, blobs, ranks, kernel):
        flat, init, _ = blobs
        expected = reference_kmeans(flat, init, 4)

        def body(comm):
            pts = flat.reshape(-1, 3)
            part = np.array_split(pts, comm.size)[comm.rank].reshape(-1)
            app = build(init, iters=4, kernel=kernel, comm=comm)
            app.run(part)
            return app.centroids()

        for c in spmd_launch(ranks, body, timeout=60):
            assert np.allclose(c, expected, atol=1e-8)

    def test_thread_invariant(self, blobs):
        flat, init, _ = blobs
        single, multi = build(init), build(init, threads=4)
        single.run(flat)
        multi.run(flat)
        assert np.allclose(single.centroids(), multi.centroids(), atol=1e-8)

    def test_centroids_tracked_across_time_steps(self, blobs):
        flat, init, _ = blobs
        app = build(init, iters=2)
        app.run(flat)
        first = app.centroids().copy()
        app.run(flat)  # process_extra_data must NOT reinitialize
        assert np.allclose(app.centroids(), reference_kmeans(flat, init, 4), atol=1e-8)
        assert not np.allclose(app.centroids(), init)
        assert not np.array_equal(first, init)


class TestValidation:
    def test_requires_extra_data(self):
        app = KMeans(SchedArgs(chunk_size=2), dims=2)
        with pytest.raises(ValueError, match="centroids"):
            app.run(np.zeros(4))

    def test_chunk_size_must_equal_dims(self):
        with pytest.raises(ValueError, match="chunk_size"):
            KMeans(SchedArgs(chunk_size=3), dims=2)

    def test_centroid_shape_checked(self):
        app = KMeans(SchedArgs(chunk_size=2, extra_data=np.zeros((4, 3))), dims=2)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            app.run(np.zeros(4))
