"""In-transit / hybrid processing extension."""

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, reference_histogram
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy, InTransitDriver, Placement, split_staging_comm
from repro.sim import GaussianEmulator


class TestPlacement:
    def test_roles(self):
        p = Placement(0, 5, 2)
        assert not p.is_staging
        assert p.num_simulation == 3
        assert Placement(3, 5, 2).is_staging
        assert Placement(4, 5, 2).staging_index == 1

    def test_forwarding_assignment(self):
        assert Placement(0, 5, 2).my_staging_rank == 3
        assert Placement(1, 5, 2).my_staging_rank == 4
        assert Placement(2, 5, 2).my_staging_rank == 3

    def test_producers_partition_simulation_ranks(self):
        p = Placement(3, 5, 2)
        producers = [p.producers_for(i) for i in range(2)]
        assert sorted(r for group in producers for r in group) == [0, 1, 2]

    def test_role_guards(self):
        with pytest.raises(ValueError):
            Placement(0, 5, 2).staging_index
        with pytest.raises(ValueError):
            Placement(4, 5, 2).my_staging_rank

    def test_invalid_staging_count(self):
        with pytest.raises(ValueError):
            Placement(0, 4, 0)
        with pytest.raises(ValueError):
            Placement(0, 4, 4)

    def test_invalid_mode(self):

        with pytest.raises(ValueError, match="mode"):
            InTransitDriver(_FakeComm(0, 3), 1, mode="offline")


class _FakeComm:
    """Minimal stand-in so Placement-level validation is testable alone."""

    def __init__(self, rank, size):
        self.rank = rank
        self.size = size


def _expected_counts(n_sim, steps, buckets=16):
    total = np.zeros(buckets, dtype=np.int64)
    for r in range(n_sim):
        em = GaussianEmulator(400, seed=70 + r)
        for t in range(steps):
            total += reference_histogram(em.regenerate(t), -4, 4, buckets)
    return total


def _histogram_body(mode):
    def body(comm):
        driver = InTransitDriver(comm, num_staging=2, mode=mode)
        staging = split_staging_comm(comm, 2)
        if driver.placement.is_staging:
            app = Histogram(
                ExecutionPolicy(), staging, lo=-4, hi=4, num_buckets=16
            )
            driver.run_staging_side(app)
            return ("staging", app.counts())
        sim = GaussianEmulator(400, seed=70 + comm.rank)
        local = (
            Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
            if mode == "hybrid"
            else None
        )
        shipped = driver.run_simulation_side(sim, 3, local_scheduler=local)
        return ("simulation", shipped)

    return body


class TestEndToEnd:
    @pytest.mark.parametrize("mode", ["in_transit", "hybrid"])
    def test_staging_ranks_compute_global_result(self, mode):
        results = spmd_launch(5, _histogram_body(mode), timeout=60)
        expected = _expected_counts(n_sim=3, steps=3)
        for role, value in results:
            if role == "staging":
                assert np.array_equal(value, expected)

    def test_hybrid_ships_fewer_bytes_than_in_transit(self):
        transit = spmd_launch(5, _histogram_body("in_transit"), timeout=60)
        hybrid = spmd_launch(5, _histogram_body("hybrid"), timeout=60)
        transit_bytes = sum(v for role, v in transit if role == "simulation")
        hybrid_bytes = sum(v for role, v in hybrid if role == "simulation")
        # Raw partitions: 3 ranks x 3 steps x 400 doubles; hybrid ships
        # 16-bucket maps instead.
        assert transit_bytes == 3 * 3 * 400 * 8
        assert hybrid_bytes < transit_bytes / 10

    def test_hybrid_requires_local_scheduler(self):
        def body(comm):
            driver = InTransitDriver(comm, num_staging=1, mode="hybrid")
            staging = split_staging_comm(comm, 1)
            if driver.placement.is_staging:
                app = Histogram(ExecutionPolicy(), staging, lo=-4, hi=4, num_buckets=8)
                # Producer will fail before sending anything; expect abort.
                driver.run_staging_side(app)
                return None
            driver.run_simulation_side(GaussianEmulator(10), 1)

        from repro.comm import SpmdError

        with pytest.raises(SpmdError):
            spmd_launch(2, body, timeout=20)

    def test_iterative_analytics_on_staging_ranks(self):
        """K-means over forwarded raw data (in-transit) converges to the
        same centroids as a direct run over the union of the streams."""
        steps = 2
        dims, k = 2, 3

        def body(comm):
            driver = InTransitDriver(comm, num_staging=1, mode="in_transit")
            staging = split_staging_comm(comm, 1)
            if driver.placement.is_staging:
                init = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])
                app = KMeans(
                    ExecutionPolicy(chunk_size=dims, num_iters=1, extra_data=init),
                    staging, dims=dims,
                )
                driver.run_staging_side(app)
                return app.centroids()
            sim = GaussianEmulator(200, seed=80 + comm.rank, dims=dims)
            driver.run_simulation_side(sim, steps)
            return None

        results = spmd_launch(3, body, timeout=60)
        centroids = results[2]
        assert centroids.shape == (k, dims)
        assert np.isfinite(centroids).all()


class TestTrailingGroupComm:
    def test_group_collectives_span_staging_only(self):
        def body(comm):
            staging = split_staging_comm(comm, 2)
            if staging is None:
                return None
            assert staging.size == 2
            total = staging.allreduce(staging.rank + 10)
            staging.barrier()
            gathered = staging.gather(staging.rank)
            bcast = staging.bcast("x" if staging.rank == 0 else None)
            return (total, gathered, bcast)

        results = spmd_launch(4, body, timeout=30)
        assert results[0] is None and results[1] is None
        assert results[2] == (21, [0, 1], "x")
        assert results[3] == (21, None, "x")

    def test_group_alltoall_and_scatter(self):
        def body(comm):
            staging = split_staging_comm(comm, 3)
            if staging is None:
                return None
            r = staging.rank
            a2a = staging.alltoall([r * 10 + j for j in range(3)])
            sc = staging.scatter([100, 200, 300] if r == 0 else None)
            return (a2a, sc)

        results = spmd_launch(4, body, timeout=30)
        for world_rank in (1, 2, 3):
            a2a, sc = results[world_rank]
            dest = world_rank - 1
            assert a2a == [src * 10 + dest for src in range(3)]
            assert sc == (dest + 1) * 100
