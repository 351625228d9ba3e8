"""Grid aggregation (structural analytics needing positional info)."""

import numpy as np
import pytest

from repro.analytics import GridAggregation, reference_grid_aggregation
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


def run_app(data, grid_size, kernel=False, threads=1, block_size=None, offset=0):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    app = GridAggregation(
        ExecutionPolicy(
            engine=EnginePolicy(
                num_threads=threads, map_path="auto" if kernel else "scalar",
            ),
            block_size=block_size,
        ),
        grid_size=grid_size,
    )
    app.run(data, global_offset=offset, total_len=offset + len(data))
    out = np.zeros(-(-(offset + len(data)) // grid_size))
    for k, obj in app.get_combination_map().items():
        out[k] = obj.total / obj.count
    return app, out


def columns(com_map):
    """The map's keys and raw ``total``/``count`` columns, key order."""
    items = com_map.sorted_items()
    return (
        np.array([k for k, _ in items], dtype=np.int64),
        np.array([o.total for _, o in items], dtype=np.float64),
        np.array([o.count for _, o in items], dtype=np.int64),
    )


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

    @pytest.mark.parametrize("n, grid_size, offset, threads, block_size", [
        pytest.param(1000, 37, 13, 1, None, id="offset_off_grid"),
        pytest.param(1000, 37, 0, 3, None, id="splits_mid_cell"),
        pytest.param(1000, 37, 5, 2, 100, id="blocks_seed_rows"),
        pytest.param(600, 2, 1, 3, 64, id="grid_2_blocks"),
        pytest.param(500, 1, 3, 3, None, id="grid_1"),
        pytest.param(100, 40, 10, 1, None, id="one_whole_cell"),
        pytest.param(300, 128, 7, 3, None, id="grid_beyond_split"),
    ])
    def test_kernel_columns_bit_exact(self, rng, n, grid_size, offset, threads,
                                      block_size):
        """The run-sum kernel leaves the scalar loop's raw columns: each
        cell's total continues from its seed in element order."""
        data = rng.normal(size=n)
        runs = [run_app(data, grid_size, kernel, threads, block_size, offset)[0]
                for kernel in (False, True)]
        scalar, kernel = (columns(app.get_combination_map()) for app in runs)
        assert runs[1].telemetry.counter("run.batch_reduce_calls")
        assert not runs[0].telemetry.counter("run.batch_reduce_calls")
        for want, got in zip(scalar, kernel):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("ranks", [2, 3])
    @pytest.mark.parametrize("kernel", [False, True])
    def test_rank_invariant_with_global_positions(self, rng, ranks, kernel):
        """Grids spanning rank boundaries must still aggregate correctly —
        this is the positional-information property Section 5.8 claims.
        The kernel's columns equal the scalar loop's exactly."""
        data = rng.normal(size=400)
        expected = reference_grid_aggregation(data, 37)  # 37 does not divide evenly

        def body(comm, map_path):
            parts = np.array_split(data, comm.size)
            offset = sum(len(p) for p in parts[: comm.rank])
            app = GridAggregation(
                ExecutionPolicy(engine=EnginePolicy(map_path=map_path)),
                comm,
                grid_size=37,
            )
            app.run(parts[comm.rank], global_offset=offset, total_len=len(data))
            return columns(app.get_combination_map())

        def launch(map_path):
            return spmd_launch(ranks, body, args_per_rank=[(map_path,)] * ranks,
                               timeout=30)

        got = launch("auto" if kernel else "scalar")
        if kernel:
            for want, rank_got in zip(launch("scalar"), got):
                for a, b in zip(want, rank_got):
                    assert np.array_equal(a, b)
        for keys, total, count in got:
            assert np.array_equal(keys, np.arange(len(expected)))
            assert np.allclose(total / count, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridAggregation(ExecutionPolicy(), grid_size=0)
