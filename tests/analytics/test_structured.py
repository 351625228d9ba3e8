"""3-D structural analytics (tile aggregation, cubic moving average)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    MovingAverage3D,
    TileAggregation3D,
    reference_moving_average_3d,
    reference_tile_aggregation_3d,
)
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy, merge_distributed_output

SHAPE = (6, 5, 4)


@pytest.fixture
def field(rng):
    return rng.normal(size=SHAPE)


def slab_partition(field, size, rank):
    z_sizes = [len(a) for a in np.array_split(np.arange(field.shape[0]), size)]
    z0 = sum(z_sizes[:rank])
    part = field[z0 : z0 + z_sizes[rank]].reshape(-1)
    offset = z0 * field.shape[1] * field.shape[2]
    return part, offset


class TestTileAggregation:
    def test_matches_reference(self, field):
        app = TileAggregation3D(ExecutionPolicy(), shape=SHAPE, tile=(2, 2, 2))
        app.run(field.reshape(-1))
        assert np.allclose(app.means(), reference_tile_aggregation_3d(field, (2, 2, 2)))

    def test_vectorized_equals_scalar(self, field):
        scalar = TileAggregation3D(
            ExecutionPolicy(engine=EnginePolicy(map_path="scalar")),
            shape=SHAPE, tile=(3, 2, 2),
        )
        vector = TileAggregation3D(ExecutionPolicy(), shape=SHAPE, tile=(3, 2, 2))
        scalar.run(field.reshape(-1))
        vector.run(field.reshape(-1))
        assert np.array_equal(scalar.means(), vector.means())
        assert vector.telemetry.counter("run.batch_reduce_calls")
        assert not scalar.telemetry.counter("run.batch_reduce_calls")

    def test_partial_edge_tiles(self, field):
        # 5 and 4 are not multiples of 3: edge tiles must average only the
        # cells they actually cover.
        app = TileAggregation3D(ExecutionPolicy(), shape=SHAPE, tile=(3, 3, 3))
        app.run(field.reshape(-1))
        assert np.allclose(app.means(), reference_tile_aggregation_3d(field, (3, 3, 3)))

    def test_tile_of_ones_is_identity(self, field):
        app = TileAggregation3D(ExecutionPolicy(), shape=SHAPE, tile=(1, 1, 1))
        app.run(field.reshape(-1))
        assert np.allclose(app.means(), field)

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_rank_invariant_with_slab_offsets(self, field, ranks):
        expected = reference_tile_aggregation_3d(field, (2, 2, 2))

        def body(comm):
            part, offset = slab_partition(field, comm.size, comm.rank)
            app = TileAggregation3D(ExecutionPolicy(), comm, shape=SHAPE, tile=(2, 2, 2))
            app.run(part, global_offset=offset, total_len=field.size)
            return app.means()

        for means in spmd_launch(ranks, body, timeout=30):
            assert np.allclose(means, expected)

    def test_mass_conservation(self, field):
        """Sum over (tile mean x tile population) equals the field sum."""
        app = TileAggregation3D(ExecutionPolicy(), shape=SHAPE, tile=(2, 3, 2))
        app.run(field.reshape(-1))
        total = sum(o.total for o in app.get_combination_map().values())
        count = sum(o.count for o in app.get_combination_map().values())
        assert total == pytest.approx(field.sum())
        assert count == field.size

    def test_validation(self):
        with pytest.raises(ValueError):
            TileAggregation3D(ExecutionPolicy(), shape=SHAPE, tile=(0, 1, 1))
        with pytest.raises(ValueError):
            TileAggregation3D(
                ExecutionPolicy(chunk_size=2), shape=SHAPE, tile=(1, 1, 1)
            )


class TestMovingAverage3D:
    def test_matches_reference(self, field):
        app = MovingAverage3D(ExecutionPolicy(), shape=SHAPE, win_size=3)
        out = np.full(field.size, np.nan)
        app.run2(field.reshape(-1), out)
        assert np.allclose(
            out.reshape(SHAPE), reference_moving_average_3d(field, 3)
        )

    def test_early_emission_fires_for_interior(self, field):
        app = MovingAverage3D(ExecutionPolicy(), shape=SHAPE, win_size=3)
        out = np.full(field.size, np.nan)
        app.run2(field.reshape(-1), out)
        interior = (SHAPE[0] - 2) * (SHAPE[1] - 2) * (SHAPE[2] - 2)
        assert app.telemetry.counter("run.early_emissions") == interior

    def test_trigger_disabled_same_results(self, field):
        on = MovingAverage3D(ExecutionPolicy(), shape=SHAPE, win_size=3)
        off = MovingAverage3D(
            ExecutionPolicy(disable_early_emission=True), shape=SHAPE, win_size=3
        )
        out_on = np.full(field.size, np.nan)
        out_off = np.full(field.size, np.nan)
        on.run2(field.reshape(-1), out_on)
        off.run2(field.reshape(-1), out_off)
        assert np.allclose(out_on, out_off)
        assert (off.telemetry.counter("run.peak_red_objects")
                > on.telemetry.counter("run.peak_red_objects"))

    def test_constant_field_unchanged(self):
        field = np.full(SHAPE, 2.5)
        app = MovingAverage3D(ExecutionPolicy(), shape=SHAPE, win_size=3)
        out = np.full(field.size, np.nan)
        app.run2(field.reshape(-1), out)
        assert np.allclose(out, 2.5)

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_rank_invariant(self, field, ranks):
        expected = reference_moving_average_3d(field, 3)

        def body(comm):
            part, offset = slab_partition(field, comm.size, comm.rank)
            app = MovingAverage3D(ExecutionPolicy(), comm, shape=SHAPE, win_size=3)
            out = np.full(field.size, np.nan)
            app.run2(part, out, global_offset=offset, total_len=field.size)
            return merge_distributed_output(comm, out)

        for merged in spmd_launch(ranks, body, timeout=60):
            assert np.allclose(merged.reshape(SHAPE), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            MovingAverage3D(ExecutionPolicy(), shape=SHAPE, win_size=4)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    tz=st.integers(min_value=1, max_value=4),
    ty=st.integers(min_value=1, max_value=4),
    tx=st.integers(min_value=1, max_value=4),
)
def test_tile_means_property(seed, tz, ty, tx):
    field = np.random.default_rng(seed).normal(size=(4, 5, 3))
    app = TileAggregation3D(ExecutionPolicy(), shape=(4, 5, 3), tile=(tz, ty, tx))
    app.run(field.reshape(-1))
    assert np.allclose(
        app.means(), reference_tile_aggregation_3d(field, (tz, ty, tx))
    )
