"""LULESH-like proxy: determinism, boundedness, cubic memory."""

import hashlib

import numpy as np
import pytest

from repro.comm import spmd_launch
from repro.sim import LuleshProxy
from repro.sim.lulesh import _laplacian

#: sha256 over the four fields of ``LuleshProxy(16)`` after 25 steps, in
#: ``fields()`` order, computed with the take/concatenate Laplacian below.
GOLDEN_16 = "64667f4b306ba73c596efa766818b9497e0c358793e1d7256e3ef69a431e9362"


def _take_concat_laplacian(field):
    """The original formulation: shifted copies by take + concatenate."""
    lap = -6.0 * field
    for axis in range(3):
        upper = np.concatenate(
            (np.take(field, range(1, field.shape[axis]), axis=axis),
             np.take(field, [-1], axis=axis)),
            axis=axis,
        )
        lower = np.concatenate(
            (np.take(field, [0], axis=axis),
             np.take(field, range(0, field.shape[axis] - 1), axis=axis)),
            axis=axis,
        )
        lap += upper + lower
    return lap


class TestSingleRank:
    def test_output_size_is_cubic(self):
        sim = LuleshProxy(10)
        assert sim.partition_elements == 1000
        assert sim.advance().shape == (1000,)

    def test_memory_grows_cubically(self):
        small, big = LuleshProxy(8), LuleshProxy(16)
        assert big.memory_nbytes == 8 * small.memory_nbytes

    def test_moderate_output_fraction_of_working_set(self):
        # The paper picked Lulesh for its moderate output: one field of four.
        sim = LuleshProxy(12)
        assert sim.partition_nbytes * 4 == sim.memory_nbytes

    def test_deterministic(self):
        a, b = LuleshProxy(8, seed=5), LuleshProxy(8, seed=5)
        for _ in range(10):
            ra, rb = a.advance(), b.advance()
        assert np.array_equal(ra, rb)

    def test_seed_changes_field(self):
        a, b = LuleshProxy(8, seed=1), LuleshProxy(8, seed=2)
        assert not np.array_equal(a.advance(), b.advance())

    def test_bounded_trajectories(self):
        sim = LuleshProxy(10)
        for _ in range(60):
            out = sim.advance()
        assert np.isfinite(out).all()
        assert (out >= 0).all()  # energy stays non-negative

    def test_blast_spreads(self):
        sim = LuleshProxy(12)
        e0 = sim.e.copy()
        for _ in range(30):
            sim.advance()
        # Point deposit diffuses: peak decreases, neighbourhood heats up.
        assert sim.e[0, 0, 0] < e0[0, 0, 0]
        assert sim.e[1, 1, 1] > e0[1, 1, 1]

    def test_reset(self):
        sim = LuleshProxy(8)
        initial = sim.e.copy()
        for _ in range(4):
            sim.advance()
        sim.reset()
        assert sim.step == 0
        assert np.array_equal(sim.e, initial)

    @pytest.mark.parametrize("edge", [3, 4, 17])
    def test_laplacian_matches_take_concat_form(self, edge):
        field = np.random.default_rng(edge).normal(size=(edge, edge, edge))
        assert np.array_equal(_laplacian(field), _take_concat_laplacian(field))

    def test_golden_digest(self):
        sim = LuleshProxy(16)
        for _ in range(25):
            sim.advance()
        digest = hashlib.sha256()
        for field in sim.fields().values():
            digest.update(field.tobytes())
        assert digest.hexdigest() == GOLDEN_16

    def test_invalid_edge(self):
        with pytest.raises(ValueError):
            LuleshProxy(2)

    def test_invalid_cfl(self):
        with pytest.raises(ValueError):
            LuleshProxy(8, cfl=0.9)


class TestDecomposed:
    def test_multi_rank_runs_finite(self):
        def body(comm):
            sim = LuleshProxy(8, comm)
            for _ in range(5):
                out = sim.advance()
            return out.copy()

        outs = spmd_launch(2, body, timeout=30)
        assert all(np.isfinite(o).all() for o in outs)

    def test_halo_exchange_averages_boundary_planes(self):
        def body(comm):
            sim = LuleshProxy(6, comm)
            sim.e[:] = float(comm.rank)  # rank 0 all zeros, rank 1 all ones
            sim._exchange_halos()
            return float(sim.e[0].mean()), float(sim.e[-1].mean())

        (r0_lo, r0_hi), (r1_lo, r1_hi) = spmd_launch(2, body, timeout=30)
        assert r0_lo == 0.0  # rank 0 has no lower neighbour
        assert r0_hi == 0.5  # averaged with rank 1's plane of ones
        assert r1_lo == 0.5  # averaged with rank 0's plane of zeros
        assert r1_hi == 1.0  # rank 1 has no upper neighbour

    def test_deterministic_across_runs(self):
        def body(comm):
            sim = LuleshProxy(6, comm)
            for _ in range(4):
                out = sim.advance()
            return out.copy()

        first = spmd_launch(2, body, timeout=30)
        second = spmd_launch(2, body, timeout=30)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
