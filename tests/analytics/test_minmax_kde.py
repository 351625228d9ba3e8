"""MinMax helper job and the value-grid KDE extension app."""

import numpy as np
import pytest

from repro.analytics import MinMax, ValueGridKDE, reference_value_grid_kde
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


class TestMinMax:
    def test_single_rank(self, rng):
        data = rng.normal(size=500)
        app = MinMax(ExecutionPolicy())
        app.run(data)
        lo, hi = app.value_range
        assert lo == data.min()
        assert hi == data.max()

    def test_vectorized_equals_scalar(self, rng):
        data = rng.normal(size=300)
        s = MinMax(ExecutionPolicy(engine=EnginePolicy(map_path="scalar")))
        v = MinMax(ExecutionPolicy())
        s.run(data)
        v.run(data)
        assert s.value_range == v.value_range

    def test_multi_rank(self, rng):
        data = rng.normal(size=400)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            app = MinMax(ExecutionPolicy(), comm)
            app.run(part)
            return app.value_range

        for lo, hi in spmd_launch(3, body, timeout=30):
            assert lo == data.min()
            assert hi == data.max()

    def test_convert(self, rng):
        data = rng.normal(size=100)
        app = MinMax(ExecutionPolicy())
        out = np.zeros(2)
        app.run(data, out)
        assert out[0] == data.min()
        assert out[1] == data.max()

    def test_single_element(self):
        app = MinMax(ExecutionPolicy())
        app.run(np.array([7.5]))
        assert app.value_range == (7.5, 7.5)

    @pytest.mark.parametrize("engine,threads", [
        ("serial", 1), ("thread", 2), ("process", 2),
    ])
    def test_batch_skips_nans_like_scalar(self, engine, threads):
        # Block 1 holds the maximum beside a NaN; block 2 is all NaN and
        # must leave the running value as it was.
        data = np.array([9.0, np.nan, -2.0, 7.0] + [np.nan] * 4)
        ranges = []
        for map_path in ("scalar", "batch"):
            policy = ExecutionPolicy(
                engine=EnginePolicy(backend=engine, num_threads=threads, map_path=map_path),
                block_size=4,
            )
            with MinMax(policy) as app:
                app.run(data)
                ranges.append(app.value_range)
        assert ranges == [(-2.0, 9.0), (-2.0, 9.0)]


class TestValueGridKDE:
    def test_matches_reference(self, rng):
        samples = rng.normal(size=800)
        grid = np.linspace(-4, 4, 41)
        app = ValueGridKDE(ExecutionPolicy(), grid=grid, bandwidth=0.4)
        app.run2(samples)
        assert np.allclose(
            app.density(800), reference_value_grid_kde(samples, grid, 0.4), atol=1e-12
        )

    def test_density_integrates_to_about_one(self, rng):
        samples = rng.normal(size=5000)
        grid = np.linspace(-6, 6, 121)
        app = ValueGridKDE(ExecutionPolicy(), grid=grid, bandwidth=0.3)
        app.run2(samples)
        density = app.density(5000)
        assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.02)

    def test_multi_rank(self, rng):
        samples = rng.normal(size=600)
        grid = np.linspace(-4, 4, 21)
        expected = reference_value_grid_kde(samples, grid, 0.5)

        def body(comm):
            part = np.array_split(samples, comm.size)[comm.rank]
            app = ValueGridKDE(ExecutionPolicy(), comm, grid=grid, bandwidth=0.5)
            app.run2(part)
            return app.density(600)

        for density in spmd_launch(2, body, timeout=30):
            assert np.allclose(density, expected, atol=1e-12)

    def test_cutoff_truncates_far_contributions(self, rng):
        grid = np.linspace(0, 10, 11)
        app = ValueGridKDE(ExecutionPolicy(), grid=grid, bandwidth=0.1, cutoff=3.0)
        app.run2(np.array([5.0]))
        density = app.density(1)
        assert density[5] > 0
        assert density[0] == 0.0  # 50 bandwidths away: truncated

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ValueGridKDE(ExecutionPolicy(), grid=np.array([1.0, 0.5]), bandwidth=0.1)
        with pytest.raises(ValueError):
            ValueGridKDE(ExecutionPolicy(), grid=np.linspace(0, 1, 5), bandwidth=0.0)
