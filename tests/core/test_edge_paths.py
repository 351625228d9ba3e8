"""Edge-path coverage: batch kernels across block boundaries, failure
propagation out of user callbacks, and degenerate inputs."""

import numpy as np
import pytest

from repro.analytics import (
    CountObj,
    Histogram,
    MovingAverage,
    reference_moving_average,
)
from repro.comm import SpmdError, spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy, Scheduler


class TestVectorPathAcrossBlocks:
    @pytest.mark.parametrize("block", [16, 50, 128, None])
    def test_moving_average_vectorized_with_blocks(self, rng, block):
        """The batch kernel must be correct when the scheduler streams
        the partition block by block — window contributions routinely
        cross block boundaries."""
        data = rng.normal(size=300)
        app = MovingAverage(ExecutionPolicy(block_size=block), win_size=9)
        out = np.full(300, np.nan)
        app.run2(data, out)
        assert app.telemetry.counter("run.batch_reduce_calls") > 0
        assert np.allclose(out, reference_moving_average(data, 9), atol=1e-9)

    @pytest.mark.parametrize("block", [7, 100])
    def test_histogram_vectorized_with_blocks_and_threads(self, rng, block):
        data = rng.normal(size=500)
        base = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
        base.run(data)
        blocked = Histogram(
            ExecutionPolicy(engine=EnginePolicy(num_threads=3), block_size=block),
            lo=-4, hi=4, num_buckets=16,
        )
        blocked.run(data)
        assert np.array_equal(base.counts(), blocked.counts())


class TestFailurePropagation:
    class ExplodingApp(Scheduler):
        def accumulate(self, chunk, data, red_obj, key):
            if data[chunk.start] > 0.99:
                raise RuntimeError("poison value")
            if red_obj is None:
                red_obj = CountObj()
            red_obj.count += 1
            return red_obj

        def merge(self, red_obj, com_obj):
            com_obj.count += red_obj.count
            return com_obj

    def test_callback_exception_surfaces_single_rank(self):
        app = self.ExplodingApp(ExecutionPolicy())
        with pytest.raises(RuntimeError, match="poison"):
            app.run(np.array([0.0, 1.0]))

    def test_callback_exception_aborts_spmd_job(self):
        """One rank's analytics failure must not hang the peers blocked in
        global combination."""

        def body(comm):
            app = self.ExplodingApp(ExecutionPolicy(), comm)
            data = np.array([1.0 if comm.rank == 1 else 0.0] * 4)
            app.run(data)

        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(3, body, timeout=10)
        assert any(
            isinstance(e, RuntimeError) for e in exc_info.value.failures.values()
        )

    def test_exception_in_threaded_split_propagates(self):
        app = self.ExplodingApp(
            ExecutionPolicy(engine=EnginePolicy(backend="thread", num_threads=4))
        )
        data = np.zeros(100)
        data[77] = 1.0
        with app, pytest.raises(RuntimeError, match="poison"):
            app.run(data)


class TestDegenerateInputs:
    def test_single_element_window(self):
        app = MovingAverage(ExecutionPolicy(), win_size=5)
        out = np.full(1, np.nan)
        app.run2(np.array([3.0]), out)
        assert out[0] == 3.0

    def test_window_larger_than_input(self, rng):
        data = rng.normal(size=4)
        app = MovingAverage(ExecutionPolicy(), win_size=9)
        out = np.full(4, np.nan)
        app.run2(data, out)
        assert np.allclose(out, reference_moving_average(data, 9))

    def test_empty_partition_on_one_rank(self):
        """A rank whose partition is empty still participates in global
        combination (the collective must not be skipped)."""
        data = np.arange(3, dtype=float)

        def body(comm):
            part = data if comm.rank == 0 else np.empty(0)
            app = Histogram(ExecutionPolicy(), comm, lo=0, hi=4, num_buckets=4)
            app.run(part)
            return app.counts()

        for counts in spmd_launch(2, body, timeout=30):
            assert counts.sum() == 3

    def test_block_size_one(self, rng):
        data = rng.normal(size=40)
        app = Histogram(ExecutionPolicy(block_size=1), lo=-4, hi=4, num_buckets=8)
        app.run(data)
        assert app.counts().sum() == 40
