"""Histogram application."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import Histogram, reference_histogram
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


def build(kernel=False, threads=1, lo=-4.0, hi=4.0, buckets=32, engine="serial"):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    return Histogram(
        ExecutionPolicy(
            engine=EnginePolicy(
                backend=engine,
                num_threads=threads,
                map_path="auto" if kernel else "scalar",
            ),
        ),
        lo=lo, hi=hi, num_buckets=buckets,
    )


class TestCorrectness:
    def test_matches_reference(self, rng):
        data = rng.normal(size=3000)
        app = build()
        app.run(data)
        assert np.array_equal(app.counts(), reference_histogram(data, -4, 4, 32))

    def test_vectorized_equals_scalar(self, rng):
        data = rng.normal(size=2000)
        scalar, vector = build(), build(kernel=True)
        scalar.run(data)
        vector.run(data)
        assert np.array_equal(scalar.counts(), vector.counts())
        assert vector.telemetry.counter("run.batch_reduce_calls")
        assert not scalar.telemetry.counter("run.batch_reduce_calls")

    def test_values_past_int64_bucket_like_scalar(self):
        # Clamped as floats before the cast: a value past the int64 range
        # lands in the edge bucket bucket_of gives it, with no cast warning.
        data = np.array([1e300, -1e300, 5e18, 0.1, 3.9])
        scalar, kernel = build(buckets=64), build(kernel=True, buckets=64)
        scalar.run(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel.run(data)
        expected = np.zeros(64, dtype=np.int64)
        expected[[0, 32, 63]] = [1, 1, 3]
        assert np.array_equal(scalar.counts(), expected)
        assert np.array_equal(kernel.counts(), expected)

    def test_kernel_scratch_is_per_thread(self, rng):
        """The kernel's temporaries are reused from run to run; under the
        thread engine four splits share one scheduler, so they must not
        share the scratch.  Partition lengths vary, so the scratch is
        grown and sliced; counts equal the serial scalar loop's each run."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with build() as scalar, build(kernel=True, threads=4, engine="thread") as kernel:
                for run in range(50):
                    data = rng.normal(scale=2.0, size=int(rng.integers(4, 3000)))
                    scalar.run(data)
                    kernel.run(data)
                    assert np.array_equal(kernel.counts(), scalar.counts()), run
                assert kernel.telemetry.counter("run.batch_reduce_calls") >= 4 * 50 - 50
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dtype", ["f4", "i4", "u1"])
    def test_kernel_equals_scalar_for_other_dtypes(self, rng, dtype):
        data = (rng.normal(size=500) * 3).astype(dtype)
        scalar, kernel = build(), build(kernel=True)
        scalar.run(data)
        kernel.run(data)
        assert np.array_equal(kernel.counts(), scalar.counts())

    def test_out_of_range_clamps(self):
        app = build(lo=0.0, hi=1.0, buckets=4)
        app.run(np.array([-5.0, 0.5, 99.0]))
        counts = app.counts()
        assert counts[0] == 1  # clamped low
        assert counts[-1] == 1  # clamped high
        assert counts.sum() == 3

    def test_exact_boundary_values(self):
        app = build(lo=0.0, hi=1.0, buckets=4)
        app.run(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert np.array_equal(app.counts(), [1, 1, 1, 2])

    def test_bucket_of_formula(self):
        app = build(lo=0.0, hi=10.0, buckets=10)
        assert app.bucket_of(0.0) == 0
        assert app.bucket_of(9.99) == 9
        assert app.bucket_of(10.0) == 9
        assert app.bucket_of(-1.0) == 0

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    @pytest.mark.parametrize("kernel", [False, True])
    def test_rank_invariant(self, rng, ranks, kernel):
        data = rng.normal(size=1000)
        expected = reference_histogram(data, -4, 4, 32)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            app = Histogram(
                ExecutionPolicy(
                    engine=EnginePolicy(map_path="auto" if kernel else "scalar")
                ),
                comm,
                lo=-4, hi=4, num_buckets=32,
            )
            app.run(part)
            return app.counts()

        for counts in spmd_launch(ranks, body, timeout=30):
            assert np.array_equal(counts, expected)

    def test_accumulates_across_time_steps(self, rng):
        app = build()
        a, b = rng.normal(size=500), rng.normal(size=500)
        app.run(a)
        app.run(b)
        expected = reference_histogram(np.concatenate([a, b]), -4, 4, 32)
        assert np.array_equal(app.counts(), expected)

    def test_convert_fills_out_array(self, rng):
        data = rng.normal(size=200)
        app = build()
        out = np.zeros(32, dtype=np.int64)
        app.run(data, out)
        assert np.array_equal(out, reference_histogram(data, -4, 4, 32))


class TestValidation:
    def test_bad_range(self):
        with pytest.raises(ValueError):
            build(lo=1.0, hi=1.0)

    def test_bad_buckets(self):
        with pytest.raises(ValueError):
            build(buckets=0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=1, max_size=200,
    ),
    buckets=st.integers(min_value=1, max_value=40),
)
def test_mass_conservation_property(data, buckets):
    """Every input element lands in exactly one bucket (clamping included)."""
    arr = np.asarray(data)
    app = Histogram(ExecutionPolicy(), lo=-10.0, hi=10.0, num_buckets=buckets)
    app.run(arr)
    assert app.counts().sum() == len(data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), threads=st.integers(1, 4))
def test_thread_count_never_changes_counts(seed, threads):
    data = np.random.default_rng(seed).normal(size=300)
    base = build()
    base.run(data)
    threaded = build(threads=threads)
    threaded.run(data)
    assert np.array_equal(base.counts(), threaded.counts())
