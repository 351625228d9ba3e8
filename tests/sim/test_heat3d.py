"""Heat3D: correctness of the decomposed stencil simulation."""

import hashlib

import numpy as np
import pytest

from repro.comm import spmd_launch
from repro.sim import Heat3D, reference_heat3d_sequential
from repro.sim.heat3d import _BLOCK

SHAPE = (12, 8, 8)
#: sha256 of ``Heat3D((24, 48, 48))``'s interior after 25 steps, computed
#: with the original 3-D-slice stencil.  The benchmark oracles rebuild the
#: simulation from the code under test, so only this catches a changed field.
GOLDEN_24_48_48 = "bdb634f6f2689100b1483137775bf4660542ffce8ab0d0846b8ebabaf619aa51"


class TestSingleRank:
    def test_partition_shape_and_output(self):
        sim = Heat3D(SHAPE)
        out = sim.advance()
        assert out.shape == (12 * 8 * 8,)
        assert sim.partition_elements == 12 * 8 * 8

    def test_output_is_view_not_copy(self):
        sim = Heat3D(SHAPE)
        out = sim.advance()
        assert out.base is not None  # time sharing's read pointer

    def test_stability_and_boundedness(self):
        sim = Heat3D(SHAPE)
        for _ in range(50):
            out = sim.advance()
        assert np.isfinite(out).all()
        assert out.min() >= sim.cold_value - 1e-9
        assert out.max() <= sim.hot_value + 1e-9

    def test_heat_diffuses_from_hot_face(self):
        sim = Heat3D(SHAPE)
        for _ in range(30):
            sim.advance()
        field = sim.interior
        center_near_hot = field[1, 4, 4]
        center_far = field[-2, 4, 4]
        assert center_near_hot > center_far

    def test_deterministic(self):
        a = Heat3D(SHAPE)
        b = Heat3D(SHAPE)
        for _ in range(5):
            ra, rb = a.advance(), b.advance()
        assert np.array_equal(ra, rb)

    def test_reset_restores_initial_state(self):
        sim = Heat3D(SHAPE)
        initial = sim.interior.copy()
        sim.advance()
        sim.reset()
        assert sim.step == 0
        assert np.array_equal(sim.interior, initial)

    def test_step_counter(self):
        sim = Heat3D(SHAPE)
        sim.advance()
        sim.advance()
        assert sim.step == 2

    def test_memory_accounting(self):
        # Two fields with one halo plane per z side, plus two block buffers
        # of the owned planes' size, capped at one block.
        for shape, block in ((SHAPE, 12 * 8 * 8), ((64, 64, 64), _BLOCK)):
            nz, ny, nx = shape
            sim = Heat3D(shape)
            assert sim.memory_nbytes == 8 * (2 * (nz + 2) * ny * nx + 2 * block)

    def test_golden_digest(self):
        sim = Heat3D((24, 48, 48))
        for _ in range(25):
            sim.advance()
        digest = hashlib.sha256(np.ascontiguousarray(sim.interior).tobytes())
        assert digest.hexdigest() == GOLDEN_24_48_48

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            Heat3D(SHAPE, alpha=0.5)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            Heat3D((2, 8, 8))


def _decomposed_run(ranks, shape, steps, **params):
    def body(comm):
        sim = Heat3D(shape, comm, **params)
        for _ in range(steps):
            sim.advance()
        return sim.interior.copy()

    return np.concatenate(spmd_launch(ranks, body, timeout=60), axis=0)


class TestDecomposed:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    def test_matches_sequential_solution(self, ranks):
        reference = reference_heat3d_sequential(SHAPE, 6)
        assert np.array_equal(_decomposed_run(ranks, SHAPE, 6), reference)

    @pytest.mark.parametrize("ranks", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "shape, params",
        [
            # One rank's flat range is more than a block and not a multiple.
            ((17, 33, 65), {}),
            ((40, 70, 90), {}),
            ((9, 10, 11), dict(alpha=0.125, hot_value=37.5, cold_value=-2.0)),
        ],
    )
    def test_blocked_sweep_matches_sequential_solution(self, ranks, shape, params):
        reference = reference_heat3d_sequential(shape, 6, **params)
        assert np.array_equal(_decomposed_run(ranks, shape, 6, **params), reference)

    def test_partition_sizes_cover_grid(self):
        def body(comm):
            return Heat3D(SHAPE, comm).partition_elements

        sizes = spmd_launch(3, body, timeout=30)
        assert sum(sizes) == 12 * 8 * 8
