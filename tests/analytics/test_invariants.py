"""Algorithmic invariants of the analytics (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    GridAggregation,
    KMeans,
    MovingAverage,
    make_blobs,
    reference_kmeans,
)
from repro.core import ExecutionPolicy


def sse(points, centroids):
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return float(np.min(d2, axis=1).sum())


class TestKMeansLloydInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_sse_never_increases(self, seed):
        """Lloyd's algorithm monotonically decreases within-cluster SSE —
        the defining invariant of k-means; our scheduler must preserve it
        through seeding/combination/post_combine."""
        flat, _ = make_blobs(200, 2, 3, seed=seed)
        points = flat.reshape(-1, 2)
        init = points[:3].copy()
        prev = sse(points, init)
        app = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=1, extra_data=init),
            dims=2,
        )
        for _ in range(6):
            app.run(flat)  # one Lloyd iteration per run
            current = sse(points, app.centroids())
            assert current <= prev + 1e-9
            prev = current

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        iters=st.integers(min_value=1, max_value=6),
    )
    def test_iteration_composition(self, seed, iters):
        """Running num_iters=k once equals running num_iters=1 k times —
        iteration state lives entirely in the combination map."""
        flat, _ = make_blobs(150, 2, 3, seed=seed)
        init = flat.reshape(-1, 2)[:3].copy()

        once = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=iters, extra_data=init),
            dims=2,
        )
        once.run(flat)

        stepped = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=1, extra_data=init),
            dims=2,
        )
        for _ in range(iters):
            stepped.run(flat)
        assert np.allclose(once.centroids(), stepped.centroids(), atol=1e-10)
        assert np.allclose(once.centroids(), reference_kmeans(flat, init, iters),
                           atol=1e-10)


class TestAggregationInvariants:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=300),
        grid=st.integers(min_value=1, max_value=50),
    )
    def test_grid_aggregation_conserves_mass(self, seed, n, grid):
        """Σ (grid mean x grid population) == Σ data, for any grid size."""
        data = np.random.default_rng(seed).normal(size=n)
        app = GridAggregation(ExecutionPolicy(), grid_size=grid)
        app.run(data)
        com = app.get_combination_map()
        assert sum(o.count for o in com.values()) == n
        assert sum(o.total for o in com.values()) == pytest.approx(data.sum())

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        win=st.sampled_from([3, 5, 7, 9]),
    )
    def test_moving_average_bounded_by_data_range(self, seed, win):
        """A mean of window values can never leave [min, max] of the data."""
        data = np.random.default_rng(seed).normal(size=80)
        out = np.full(80, np.nan)
        MovingAverage(ExecutionPolicy(), win_size=win).run2(data, out)
        assert out.min() >= data.min() - 1e-12
        assert out.max() <= data.max() + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_moving_average_idempotent_on_constants(self, seed):
        value = float(np.random.default_rng(seed).normal())
        data = np.full(40, value)
        out = np.full(40, np.nan)
        MovingAverage(ExecutionPolicy(), win_size=5).run2(data, out)
        assert np.allclose(out, value)
