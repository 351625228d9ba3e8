"""Cross-module integration tests.

Full in-situ stacks: real simulation -> Smart runtime -> analytics ->
global combination, exercised across placement modes, rank counts, and
against the offline and hand-written baselines.  These are the tests that
catch seams the per-module suites cannot.
"""

import numpy as np
import pytest

from repro.analytics import (
    GaussianKernelSmoother,
    GridAggregation,
    Histogram,
    KMeans,
    LogisticRegression,
    MinMax,
    MovingAverage,
    MovingMedian,
    MutualInformation,
    SavitzkyGolay,
)
from repro.baselines import OfflineDriver, lowlevel_histogram
from repro.comm import TrafficProfiler, spmd_launch
from repro.core import (
    CoreSplit,
    ExecutionPolicy,
    SpaceSharingDriver,
    TimeSharingDriver,
    merge_distributed_output,
)
from repro.sim import GaussianEmulator, Heat3D


class TestNineApplicationsOnHeat3D:
    """Every paper application, attached to the real Heat3D simulation."""

    GRID = (12, 12, 12)
    STEPS = 3

    @pytest.fixture(scope="class")
    def field_steps(self):
        sim = Heat3D(self.GRID)
        return [sim.advance().copy() for _ in range(self.STEPS)]

    def _run_in_situ(self, app, multi_key=False, out_len=None):
        sim = Heat3D(self.GRID)
        for _ in range(self.STEPS):
            partition = sim.advance()
            out = np.full(out_len, np.nan) if out_len else None
            (app.run2 if multi_key else app.run)(partition, out)
        return app

    def test_grid_aggregation(self, field_steps):
        app = self._run_in_situ(
            GridAggregation(ExecutionPolicy(), grid_size=100)
        )
        total = sum(obj.count for obj in app.get_combination_map().values())
        assert total == self.STEPS * 12**3

    def test_histogram_and_minmax_agree_on_range(self, field_steps):
        minmax = self._run_in_situ(MinMax(ExecutionPolicy()))
        lo, hi = minmax.value_range
        data = np.concatenate(field_steps)
        assert lo == data.min() and hi == data.max()

    def test_mutual_information_of_field_with_itself(self, field_steps):
        app = MutualInformation(
            ExecutionPolicy(chunk_size=2),
            x_range=(0, 100), y_range=(0, 100), bins=10,
        )
        sim = Heat3D(self.GRID)
        for _ in range(self.STEPS):
            partition = sim.advance()
            pairs = np.column_stack([partition, partition]).reshape(-1)
            app.run(pairs)
        # Perfectly dependent variables: MI equals the marginal entropy.
        joint = app.joint_counts()
        assert np.count_nonzero(joint - np.diag(np.diag(joint))) == 0
        assert app.mutual_information() > 0

    def test_kmeans_and_logreg_run_iteratively(self, field_steps):
        init = np.array([[0.0], [50.0], [100.0]])
        km = self._run_in_situ(
            KMeans(ExecutionPolicy(chunk_size=1, num_iters=3, extra_data=init), dims=1)
        )
        assert km.centroids().shape == (3, 1)
        assert np.isfinite(km.centroids()).all()

        lr = LogisticRegression(
            ExecutionPolicy(chunk_size=2, num_iters=2), dims=1
        )
        sim = Heat3D(self.GRID)
        for _ in range(self.STEPS):
            partition = sim.advance()
            labels = (partition > 50.0).astype(np.float64)
            lr.run(np.column_stack([partition / 100.0, labels]).reshape(-1))
        assert lr.weights[0] > 0  # hotter -> label 1 learned

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: MovingAverage(ExecutionPolicy(), win_size=5),
            lambda: MovingMedian(ExecutionPolicy(), win_size=5),
            lambda: GaussianKernelSmoother(ExecutionPolicy(), win_size=5),
            lambda: SavitzkyGolay(ExecutionPolicy(), win_size=5, polyorder=2),
        ],
        ids=["moving_average", "moving_median", "gaussian", "savgol"],
    )
    def test_window_apps_smooth_each_step(self, factory):
        n = 12**3
        app = factory()
        sim = Heat3D(self.GRID)
        for _ in range(2):
            partition = sim.advance()
            out = np.full(n, np.nan)
            app.run2(partition, out)
            app.reset()  # windows are per-step
            assert not np.isnan(out).any()
            # Averaging smoothers stay within the field's range; the
            # Savitzky-Golay polynomial may overshoot at the sharp hot
            # boundary (standard Runge-style behaviour), so the bound is
            # loose but still catches divergence.
            assert out.min() >= -60.0 and out.max() <= 160.0


class TestPlacementModesAgree:
    """Time sharing, space sharing, offline, in-transit: same numbers."""

    def _expected(self, steps=4):
        em = GaussianEmulator(600, seed=55)
        from repro.analytics import reference_histogram

        total = np.zeros(12, dtype=np.int64)
        for t in range(steps):
            total += reference_histogram(em.regenerate(t), -4, 4, 12)
        return total

    def _make_app(self, **kw):
        return Histogram(ExecutionPolicy(**kw), lo=-4, hi=4, num_buckets=12)

    def test_all_single_node_modes_agree(self, tmp_path):
        expected = self._expected()

        ts = self._make_app()
        TimeSharingDriver(GaussianEmulator(600, seed=55), ts).run(4)
        assert np.array_equal(ts.counts(), expected)

        ss = self._make_app(buffer_capacity=2)
        SpaceSharingDriver(
            GaussianEmulator(600, seed=55), ss, CoreSplit(1, 1)
        ).run(4)
        assert np.array_equal(ss.counts(), expected)

        off = self._make_app()
        OfflineDriver(GaussianEmulator(600, seed=55), off, scratch_dir=tmp_path).run(4)
        assert np.array_equal(off.counts(), expected)

    def test_distributed_in_situ_equals_lowlevel(self):
        data = np.random.default_rng(56).normal(size=900)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            smart = Histogram(
                ExecutionPolicy(), comm, lo=-4, hi=4, num_buckets=10
            )
            smart.run(part)
            manual = lowlevel_histogram(part, -4, 4, 10, comm)
            return smart.counts(), manual

        for smart_counts, manual_counts in spmd_launch(3, body, timeout=30):
            assert np.array_equal(smart_counts, manual_counts)


class TestDistributedWindowPipeline:
    def test_heat3d_moving_average_across_ranks(self):
        """The full distributed window story: a real decomposed simulation,
        per-rank partitions with true global offsets, early emission, and
        boundary windows resolved by global combination."""
        from repro.analytics import reference_moving_average

        grid, steps, win = (8, 6, 6), 2, 5

        def body(comm):
            sim = Heat3D(grid, comm)
            app = MovingAverage(ExecutionPolicy(), comm, win_size=win)
            merged_steps = []
            for _ in range(steps):
                partition = sim.advance()
                total = comm.allreduce(partition.shape[0])
                sizes = comm.allgather(partition.shape[0])
                offset = sum(sizes[: comm.rank])
                out = np.full(total, np.nan)
                app.run2(partition, out, global_offset=offset, total_len=total)
                merged_steps.append(merge_distributed_output(comm, out))
                app.reset()
            return merged_steps

        per_rank = spmd_launch(2, body, timeout=60)

        # Reference: the same simulation run sequentially.
        sim = Heat3D(grid)
        for step in range(steps):
            field = sim.advance()
            expected = reference_moving_average(field, win)
            for rank_result in per_rank:
                assert np.allclose(rank_result[step], expected, atol=1e-9)


class TestTrafficAccounting:
    def test_global_combination_traffic_scales_with_state(self):
        profiler_small = TrafficProfiler()
        profiler_large = TrafficProfiler()

        def body(comm, buckets):
            data = np.random.default_rng(comm.rank).normal(size=300)
            app = Histogram(
                ExecutionPolicy(), comm, lo=-4, hi=4, num_buckets=buckets
            )
            app.run(data)

        spmd_launch(2, body, args_per_rank=[(8,), (8,)],
                    profiler=profiler_small, timeout=30)
        spmd_launch(2, body, args_per_rank=[(800,), (800,)],
                    profiler=profiler_large, timeout=30)
        # The key vote combines Histogram maps: its records ride allgathers.
        assert (profiler_large.bytes_for("allgather")
                > profiler_small.bytes_for("allgather"))
