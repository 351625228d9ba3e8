"""The four window-based applications (paper Section 4 + Listing 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    GaussianKernelSmoother,
    MovingAverage,
    MovingMedian,
    SavitzkyGolay,
    reference_gaussian_smoother,
    reference_moving_average,
    reference_moving_median,
    reference_savgol,
    window_bounds,
    window_coverage,
)
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy, merge_distributed_output

APPS = {
    "moving_average": (
        lambda args, comm, w: MovingAverage(args, comm, win_size=w),
        reference_moving_average,
    ),
    "moving_median": (
        lambda args, comm, w: MovingMedian(args, comm, win_size=w),
        reference_moving_median,
    ),
    "gaussian": (
        lambda args, comm, w: GaussianKernelSmoother(args, comm, win_size=w),
        reference_gaussian_smoother,
    ),
    "savgol": (
        lambda args, comm, w: SavitzkyGolay(args, comm, win_size=w, polyorder=2),
        lambda data, w: reference_savgol(data, w, 2),
    ),
}


class TestWindowGeometry:
    def test_bounds_interior(self):
        assert window_bounds(10, 5, 100) == (8, 13)

    def test_bounds_clipped_at_edges(self):
        assert window_bounds(0, 5, 100) == (0, 3)
        assert window_bounds(99, 5, 100) == (97, 100)

    def test_coverage(self):
        assert window_coverage(10, 5, 100) == 5
        assert window_coverage(0, 5, 100) == 3
        assert window_coverage(99, 5, 100) == 3

    def test_win_size_must_be_odd(self):
        with pytest.raises(ValueError):
            MovingAverage(ExecutionPolicy(), win_size=4)

    def test_chunk_size_must_be_one(self):
        with pytest.raises(ValueError):
            MovingAverage(ExecutionPolicy(chunk_size=2), win_size=3)


@pytest.mark.parametrize("name", list(APPS))
@pytest.mark.parametrize("win", [3, 7])
class TestAgainstReferences:
    def test_single_rank_matches_reference(self, rng, name, win):
        factory, reference = APPS[name]
        data = rng.normal(size=150)
        app = factory(ExecutionPolicy(), None, win)
        out = np.full(150, np.nan)
        app.run2(data, out)
        assert np.allclose(out, reference(data, win), atol=1e-9)

    def test_multi_rank_matches_reference(self, rng, name, win):
        factory, reference = APPS[name]
        data = rng.normal(size=120)
        expected = reference(data, win)

        def body(comm):
            parts = np.array_split(data, comm.size)
            offset = sum(len(p) for p in parts[: comm.rank])
            app = factory(ExecutionPolicy(), comm, win)
            out = np.full(120, np.nan)
            app.run2(parts[comm.rank], out, global_offset=offset, total_len=120)
            return merge_distributed_output(comm, out)

        for merged in spmd_launch(3, body, timeout=60):
            assert np.allclose(merged, expected, atol=1e-9)


class TestSpecificBehaviours:
    def test_moving_average_constant_signal(self):
        data = np.full(40, 3.5)
        app = MovingAverage(ExecutionPolicy(), win_size=7)
        out = np.full(40, np.nan)
        app.run2(data, out)
        assert np.allclose(out, 3.5)

    def test_moving_average_vectorized_equals_scalar(self, rng):
        data = rng.normal(size=200)
        out_s = np.full(200, np.nan)
        out_v = np.full(200, np.nan)
        scalar = ExecutionPolicy(engine=EnginePolicy(map_path="scalar"))
        MovingAverage(scalar, win_size=9).run2(data, out_s)
        MovingAverage(ExecutionPolicy(), win_size=9).run2(data, out_v)
        assert np.array_equal(out_s, out_v)

    def test_median_robust_to_outlier(self):
        data = np.zeros(21)
        data[10] = 1e9  # single spike
        out = np.full(21, np.nan)
        MovingMedian(ExecutionPolicy(), win_size=5).run2(data, out)
        assert out[10] == 0.0  # median suppresses the spike
        avg = np.full(21, np.nan)
        MovingAverage(ExecutionPolicy(), win_size=5).run2(data, avg)
        assert avg[10] > 1e8  # mean does not

    def test_median_order_independence_across_splits(self, rng):
        data = rng.normal(size=100)
        a = np.full(100, np.nan)
        b = np.full(100, np.nan)
        for threads, out in ((1, a), (4, b)):
            policy = ExecutionPolicy(engine=EnginePolicy(num_threads=threads))
            MovingMedian(policy, win_size=7).run2(data, out)
        assert np.allclose(a, b)

    def test_gaussian_weights_follow_kernel(self):
        app = GaussianKernelSmoother(ExecutionPolicy(), win_size=9, bandwidth=2.0)
        assert app.kernel(0) == pytest.approx(1.0)
        assert app.kernel(2) == pytest.approx(np.exp(-0.5))
        assert app.kernel(-2) == app.kernel(2)

    def test_gaussian_smoother_reduces_noise_variance(self, rng):
        data = rng.normal(size=400)
        out = np.full(400, np.nan)
        GaussianKernelSmoother(ExecutionPolicy(), win_size=11).run2(data, out)
        assert out.std() < data.std()

    def test_savgol_interior_matches_scipy(self, rng):
        import scipy.signal

        data = rng.normal(size=100)
        out = np.full(100, np.nan)
        SavitzkyGolay(ExecutionPolicy(), win_size=9, polyorder=3).run2(data, out)
        expected = scipy.signal.savgol_filter(data, 9, 3)
        assert np.allclose(out[4:-4], expected[4:-4], atol=1e-9)

    def test_savgol_preserves_polynomial_signals(self):
        # A degree-2 filter reproduces quadratics exactly (interior).
        x = np.arange(60, dtype=float)
        data = 0.5 * x**2 - 3 * x + 2
        out = np.full(60, np.nan)
        SavitzkyGolay(ExecutionPolicy(), win_size=11, polyorder=2).run2(data, out)
        assert np.allclose(out, data, atol=1e-6)

    def test_savgol_polyorder_validation(self):
        with pytest.raises(ValueError):
            SavitzkyGolay(ExecutionPolicy(), win_size=5, polyorder=5)

    def test_gaussian_bandwidth_validation(self):
        with pytest.raises(ValueError):
            GaussianKernelSmoother(ExecutionPolicy(), win_size=5, bandwidth=-1.0)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=5, max_size=60,
    ),
    win=st.sampled_from([3, 5, 7]),
)
def test_moving_average_property_equals_reference(data, win):
    arr = np.asarray(data)
    out = np.full(len(arr), np.nan)
    MovingAverage(ExecutionPolicy(), win_size=win).run2(arr, out)
    assert np.allclose(out, reference_moving_average(arr, win), atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    win=st.sampled_from([3, 5]),
    ranks=st.integers(min_value=1, max_value=3),
)
def test_moving_median_rank_invariance_property(seed, win, ranks):
    data = np.random.default_rng(seed).normal(size=48)
    expected = reference_moving_median(data, win)

    def body(comm):
        parts = np.array_split(data, comm.size)
        offset = sum(len(p) for p in parts[: comm.rank])
        app = MovingMedian(ExecutionPolicy(), comm, win_size=win)
        out = np.full(48, np.nan)
        app.run2(parts[comm.rank], out, global_offset=offset, total_len=48)
        return merge_distributed_output(comm, out)

    for merged in spmd_launch(ranks, body, timeout=30):
        assert np.allclose(merged, expected)
