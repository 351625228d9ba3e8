"""Automatic global-offset/total-length resolution for positional analytics."""

import numpy as np

from repro.analytics import MovingAverage, reference_moving_average
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy, merge_distributed_output


class TestAutoLayout:
    def test_single_rank_defaults(self):
        app = MovingAverage(ExecutionPolicy(), win_size=3)
        data = np.arange(10, dtype=float)
        out = np.full(10, np.nan)
        app.run2(data, out)
        assert app.global_offset_ == 0
        assert app.total_len_ == 10

    def test_explicit_layout_respected(self):
        app = MovingAverage(ExecutionPolicy(), win_size=3)
        app.run2(np.arange(5, dtype=float), np.full(20, np.nan),
                 global_offset=5, total_len=20)
        assert app.global_offset_ == 5
        assert app.total_len_ == 20

    def test_multi_rank_auto_derivation_matches_explicit(self):
        """Omitting offsets on a multi-rank window run derives them from an
        allgather of partition sizes — same result as passing them."""
        data = np.random.default_rng(77).normal(size=100)
        expected = reference_moving_average(data, 5)

        def body(comm):
            parts = np.array_split(data, comm.size)
            out = np.full(100, np.nan)
            app = MovingAverage(ExecutionPolicy(), comm, win_size=5)
            app.run2(parts[comm.rank], out)  # no offsets given
            return app.global_offset_, app.total_len_, merge_distributed_output(comm, out)

        results = spmd_launch(3, body, timeout=30)
        sizes = [len(p) for p in np.array_split(data, 3)]
        for rank, (offset, total, merged) in enumerate(results):
            assert total == 100
            assert offset == sum(sizes[:rank])
            assert np.allclose(merged, expected)

    def test_uneven_partitions_resolved(self):
        data = np.random.default_rng(78).normal(size=47)  # 16/16/15 split
        expected = reference_moving_average(data, 3)

        def body(comm):
            parts = np.array_split(data, comm.size)
            out = np.full(47, np.nan)
            app = MovingAverage(ExecutionPolicy(), comm, win_size=3)
            app.run2(parts[comm.rank], out)
            return merge_distributed_output(comm, out)

        for merged in spmd_launch(3, body, timeout=30):
            assert np.allclose(merged, expected)

    def test_single_key_apps_skip_the_collective(self):
        """Single-key analytics must not pay an allgather for layout they
        never read (all ranks still agree because none performs it)."""
        from repro.analytics import Histogram
        from repro.comm import TrafficProfiler

        prof = TrafficProfiler()

        def body(comm):
            app = Histogram(ExecutionPolicy(), comm,
                            lo=-4, hi=4, num_buckets=8)
            app.run(np.random.default_rng(comm.rank).normal(size=100))

        spmd_launch(2, body, profiler=prof, timeout=30)
        # Only the global combination's two allgathers a rank (the key
        # vote and its records), no layout allgather.
        assert prof.calls_for("allgather") == 2 * 2
