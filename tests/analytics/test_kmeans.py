"""K-means application (paper Listing 4)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import KMeans, make_blobs, reference_kmeans
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


def build(init, iters=5, kernel=False, comm=None, threads=1, engine="serial",
          block_size=None):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    dims = init.shape[1]
    return KMeans(
        ExecutionPolicy(
            engine=EnginePolicy(
                backend=engine, num_threads=threads,
                map_path="auto" if kernel else "scalar",
            ),
            chunk_size=dims, num_iters=iters, extra_data=init, block_size=block_size,
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


def lattice(n, dims, seed):
    """Integer-valued points: every partial sum is exact in float64, so
    the kernel must equal the scalar loop bit for bit however the
    additions are grouped."""
    rng = np.random.default_rng(seed)
    return rng.integers(-50, 50, size=n * dims).astype(np.float64)


class TestBatchKernel:
    """``batch_reduce`` against the paper's ``gen_key``/``accumulate`` loop."""

    @staticmethod
    def both(flat, init, iters=3, **args):
        results = []
        for kernel in (False, True):
            with build(init, iters=iters, kernel=kernel, **args) as app:
                app.run(flat)
                assert bool(app.telemetry.counter("run.batch_reduce_calls")) is kernel
                results.append(app.centroids())
        return results

    def test_duplicate_centroids_tie_to_lowest_key(self, blobs):
        flat, init, _ = blobs
        init = init.copy()
        init[2] = init[0]  # exact tie: key 0 takes every point, key 2 none
        scalar, kernel = self.both(flat, init, iters=1)
        assert np.array_equal(scalar, kernel)
        assert np.array_equal(kernel[2], init[2])
        assert not np.array_equal(kernel[0], init[0])

    def test_cluster_without_points_keeps_centroid(self):
        points = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 0.0])
        init = np.array([[0.0, 0.0], [100.0, 100.0]])  # second never wins
        scalar, kernel = self.both(points, init)
        assert np.array_equal(scalar, kernel)
        assert np.array_equal(kernel, [[1.0, 1 / 3], [100.0, 100.0]])

    @pytest.mark.parametrize("args", [
        dict(threads=2),  # the second split starts at a non-zero offset
        dict(block_size=96),  # later blocks continue from seeded totals
        dict(threads=3, block_size=150),
        dict(threads=3, engine="thread"),
    ], ids=["offset", "blocks", "blocks-and-splits", "thread-engine"])
    def test_equals_scalar_loop(self, args):
        flat = lattice(500, 3, seed=5)
        init = flat.reshape(-1, 3)[:5].copy()
        scalar, kernel = self.both(flat, init, **args)
        assert np.array_equal(scalar, kernel)
        assert not np.array_equal(kernel, init)

    def test_kernels_of_different_shape_share_scratch(self):
        """Two schedulers alternate on one thread: the shared scratch arrays
        grow for the larger ``(k, n)`` and are resliced for the smaller."""
        small, large = lattice(120, 2, seed=1), lattice(400, 3, seed=2)
        cases = [(small, small.reshape(-1, 2)[:3].copy()),
                 (large, large.reshape(-1, 3)[:7].copy())] * 2
        for flat, init in cases:  # the scalar twin in between uses no scratch
            scalar, kernel = self.both(flat, init)
            assert np.array_equal(scalar, kernel)

    @given(
        k=st.integers(1, 9),  # k = 1: the running minimum has no row to scan
        dims=st.integers(1, 5),
        n=st.integers(1, 80),
        duplicate=st.booleans(),
        threads=st.sampled_from([1, 3]),
        block_size=st.sampled_from([None, 96]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_loop_on_lattices(
        self, k, dims, n, duplicate, threads, block_size, seed
    ):
        """One Lloyd step from lattice centroids: every distance and sum is
        exact, so the kernel must equal the scalar loop bit for bit."""
        flat = lattice(n, dims, seed)
        init = lattice(k, dims, seed + 1).reshape(k, dims)
        if duplicate:
            init[-1] = init[0]  # an exact tie, resolved to the lower key
        if block_size is not None:  # whole points, as conform rounds blocks
            block_size -= block_size % dims
        scalar, kernel = self.both(
            flat, init, iters=1, threads=threads, block_size=block_size
        )
        assert np.array_equal(scalar, kernel)

    def test_no_split_sized_float_temporary(self):
        """Outside the module scratch a split allocates only the
        accumulator and ``k × dims`` temporaries: 5.5–7 KB measured for
        n = 32 768, k = 8, dims = 4.  The 16 KiB bound is half the split's
        smallest array, its n-byte running-minimum mask."""
        n, k, dims = 32768, 8, 4
        flat = np.random.default_rng(0).uniform(0.0, 100.0, n * dims)
        app = build(flat.reshape(-1, dims)[:k].copy(), kernel=True)
        app.process_extra_data(app.policy.extra_data, app.combination_map_)

        def reduce_split():
            acc = app.make_accumulator(0, len(flat))
            acc.load_from(app.combination_map_)
            app.batch_reduce(flat, 0, len(flat), acc)
            return acc

        reduce_split()  # warm: the scratch now fits the split
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            acc = reduce_split()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(acc.column("size").sum()) == n
        assert peak - before < 16 * 1024


class TestNonFinitePoints:
    """A point with no finite distance to any centroid is rejected alike
    on every map path and engine, before any arithmetic on it warns."""

    POINTS = np.array([0.0, 0.0, 1.0, 1.0, np.nan, 2.0, 5.0, 5.0])
    INIT = np.array([[0.0, 0.0], [5.0, 5.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("args", [
        dict(kernel=False),
        dict(kernel=True),
        dict(kernel=False, engine="process", threads=2),
        dict(kernel=True, engine="process", threads=2),
    ], ids=["scalar", "batch", "scalar-process", "batch-process"])
    def test_rejected_with_its_offset(self, args, bad):
        points = self.POINTS.copy()
        points[4] = bad
        with build(self.INIT, iters=1, **args) as app:
            with pytest.raises(ValueError, match="element offset 4 has no finite"):
                app.run(points)

    def test_rejected_at_its_global_offset_in_a_later_block(self):
        points = np.tile(self.POINTS[:4], 50)
        points[150] = np.nan
        with build(self.INIT, iters=1, kernel=True, block_size=64) as app:
            with pytest.raises(ValueError, match="element offset 150 "):
                app.run(points)


class TestValidation:
    def test_requires_extra_data(self):
        app = KMeans(ExecutionPolicy(chunk_size=2), dims=2)
        with pytest.raises(ValueError, match="centroids"):
            app.run(np.zeros(4))

    def test_chunk_size_must_equal_dims(self):
        with pytest.raises(ValueError, match="chunk_size"):
            KMeans(ExecutionPolicy(chunk_size=3), dims=2)

    def test_centroid_shape_checked(self):
        app = KMeans(ExecutionPolicy(chunk_size=2, extra_data=np.zeros((4, 3))), dims=2)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            app.run(np.zeros(4))

    @pytest.mark.parametrize("kernel", [False, True])
    def test_no_centroids_rejected_on_both_map_paths(self, kernel):
        app = build(np.empty((0, 2)), kernel=kernel)
        with pytest.raises(ValueError, match=r"k >= 1.*\(0, 2\)"):
            app.run(np.zeros(4))

    @pytest.mark.parametrize("kernel", [False, True])
    def test_non_finite_centroid_rejected_on_both_map_paths(self, kernel):
        app = build(np.array([[0.0, 0.0], [np.inf, 5.0]]), kernel=kernel)
        with pytest.raises(ValueError, match="centroids must be finite"):
            app.run(np.zeros(4))
