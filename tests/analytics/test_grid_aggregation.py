"""Grid aggregation (structural analytics needing positional info)."""

import numpy as np
import pytest

from repro.analytics import GridAggregation, reference_grid_aggregation
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


def run_app(data, grid_size, kernel=False, threads=1):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    app = GridAggregation(
        ExecutionPolicy(
            engine=EnginePolicy(
                num_threads=threads, map_path="auto" if kernel else "scalar",
            ),
        ),
        grid_size=grid_size,
    )
    app.run(data)
    out = np.zeros(-(-len(data) // grid_size))
    for k, obj in app.get_combination_map().items():
        out[k] = obj.total / obj.count
    return app, out


class TestCorrectness:
    def test_matches_reference(self, rng):
        data = rng.normal(size=1000)
        _, out = run_app(data, 37)
        assert np.allclose(out, reference_grid_aggregation(data, 37))

    def test_vectorized_equals_scalar(self, rng):
        data = rng.normal(size=500)
        _, scalar = run_app(data, 10)
        _, vector = run_app(data, 10, kernel=True)
        assert np.array_equal(scalar, vector)

    def test_partial_trailing_grid(self):
        data = np.array([1.0, 2.0, 3.0, 10.0])
        _, out = run_app(data, 3)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(10.0)  # average of the short grid

    def test_grid_size_one_is_identity(self, rng):
        data = rng.normal(size=50)
        _, out = run_app(data, 1)
        assert np.allclose(out, data)

    @pytest.mark.parametrize("ranks", [2, 3])
    @pytest.mark.parametrize("kernel", [False, True])
    def test_rank_invariant_with_global_positions(self, rng, ranks, kernel):
        """Grids spanning rank boundaries must still aggregate correctly —
        this is the positional-information property Section 5.8 claims."""
        data = rng.normal(size=400)
        expected = reference_grid_aggregation(data, 37)  # 37 does not divide evenly

        def body(comm):
            parts = np.array_split(data, comm.size)
            offset = sum(len(p) for p in parts[: comm.rank])
            app = GridAggregation(
                ExecutionPolicy(
                    engine=EnginePolicy(map_path="auto" if kernel else "scalar")
                ),
                comm,
                grid_size=37,
            )
            app.run(parts[comm.rank], global_offset=offset, total_len=len(data))
            out = np.zeros(len(expected))
            for k, obj in app.get_combination_map().items():
                out[k] = obj.total / obj.count
            return out

        for out in spmd_launch(ranks, body, timeout=30):
            assert np.allclose(out, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridAggregation(ExecutionPolicy(), grid_size=0)
