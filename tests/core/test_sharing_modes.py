"""Time-sharing and space-sharing drivers."""

import numpy as np
import pytest

from repro.analytics import Histogram, reference_histogram
from repro.comm import spmd_launch
from repro.core import (
    CoreSplit,
    EnginePolicy,
    ExecutionPolicy,
    SpaceSharingDriver,
    TimeSharingDriver,
)
from repro.sim import GaussianEmulator, Heat3D


def make_histogram(lo=-4.0, hi=4.0, num_buckets=16, **policy_kw):
    return Histogram(
        ExecutionPolicy(**policy_kw), lo=lo, hi=hi, num_buckets=num_buckets
    )


class TestTimeSharing:
    def test_analyzes_every_step(self):
        sim = GaussianEmulator(1000, seed=3)
        app = make_histogram()
        driver = TimeSharingDriver(sim, app)
        result = driver.run(5)
        assert app.counts().sum() == 5000
        assert len(result.steps) == 5
        assert result.total_seconds > 0

    def test_counts_match_reference(self):
        sim = GaussianEmulator(2000, seed=4)
        app = make_histogram()
        TimeSharingDriver(sim, app).run(3)
        expected = sum(
            reference_histogram(sim.regenerate(t), -4.0, 4.0, 16) for t in range(3)
        )
        assert np.array_equal(app.counts(), expected)

    def test_per_step_callback(self):
        seen = []
        sim = GaussianEmulator(100, seed=5)
        driver = TimeSharingDriver(
            sim, make_histogram(), per_step=lambda i, s, o: seen.append(i)
        )
        driver.run(4)
        assert seen == [0, 1, 2, 3]

    def test_phase_timings_split(self):
        sim = Heat3D((8, 8, 8))
        result = TimeSharingDriver(sim, make_histogram(lo=0, hi=100)).run(2)
        assert result.simulate_seconds > 0
        assert result.analyze_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.simulate_seconds + result.analyze_seconds
        )

    def test_output_is_combination_map_by_default(self):
        sim = GaussianEmulator(50, seed=6)
        result = TimeSharingDriver(sim, make_histogram()).run(1)
        assert result.output is not None


class TestCoreSplit:
    def test_label(self):
        assert CoreSplit(50, 10).label == "50_10"

    def test_total(self):
        assert CoreSplit(30, 30).total == 60

    def test_invalid(self):
        with pytest.raises(ValueError):
            CoreSplit(0, 4)


class TestSpaceSharing:
    @pytest.mark.parametrize("engine", ["serial", "thread", "process"])
    def test_concurrent_run_matches_time_sharing_result(self, engine):
        steps = 6
        ts_app = make_histogram()
        TimeSharingDriver(GaussianEmulator(500, seed=7), ts_app).run(steps)

        ss_app = make_histogram(
            buffer_capacity=2, engine=EnginePolicy(backend=engine, num_threads=2)
        )
        with ss_app:
            driver = SpaceSharingDriver(
                GaussianEmulator(500, seed=7), ss_app, CoreSplit(1, 1)
            )
            result = driver.run(steps)
            assert np.array_equal(ss_app.counts(), ts_app.counts())
        assert result.steps == steps

    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_multi_rank_run_matches_time_sharing_bit_for_bit(self, backend):
        """On each of 3 ranks, the simulation thread exchanges Heat3D halos
        on its tags while the analytics thread runs the global combination
        on the same communicator: one context is enough."""

        def body(comm):
            counts = []
            for drive in (lambda sim, app: TimeSharingDriver(sim, app),
                          lambda sim, app: SpaceSharingDriver(sim, app, CoreSplit(1, 1))):
                app = Histogram(ExecutionPolicy(buffer_capacity=2), comm,
                                lo=0.0, hi=100.0, num_buckets=16)
                drive(Heat3D((12, 10, 10), comm), app).run(5)
                counts.append(app.counts())
            return counts

        results = spmd_launch(3, body, comm_backend=backend, timeout=60)
        for time_counts, space_counts in results:
            assert time_counts.sum() > 0
            assert np.array_equal(space_counts, time_counts)
        assert all(np.array_equal(ts, results[0][0]) for ts, _ in results)

    def test_small_buffer_blocks_producer(self):
        class SlowConsumerHistogram(Histogram):
            def run(self, data=None, out=None, **kw):
                import time

                time.sleep(0.01)
                return super().run(data, out, **kw)

        app = SlowConsumerHistogram(
            ExecutionPolicy(buffer_capacity=1), lo=-4, hi=4, num_buckets=8
        )
        driver = SpaceSharingDriver(GaussianEmulator(100, seed=8), app, CoreSplit(1, 1))
        result = driver.run(5)
        assert result.producer_blocks >= 1

    def test_producer_failure_propagates(self):
        class ExplodingSim(GaussianEmulator):
            def advance(self):
                if self.step >= 2:
                    raise RuntimeError("sim crashed")
                return super().advance()

        driver = SpaceSharingDriver(
            ExplodingSim(100, seed=9), make_histogram(), CoreSplit(1, 1)
        )
        with pytest.raises(RuntimeError):
            driver.run(5)

    def test_timings_recorded(self):
        driver = SpaceSharingDriver(
            GaussianEmulator(200, seed=10), make_histogram(), CoreSplit(1, 1)
        )
        result = driver.run(3)
        assert result.elapsed_seconds > 0
        assert result.producer_seconds > 0
        assert result.consumer_seconds > 0

    def test_feed_copies_data(self):
        # Space sharing must copy: mutating the fed array afterwards must
        # not corrupt buffered steps (unlike time sharing's read pointer).
        app = make_histogram(lo=0.0, hi=2.0)
        arr = np.zeros(10)
        app.feed(arr)
        arr[:] = 100.0  # out of histogram range -> would clamp to last bucket
        app.run()
        counts = app.counts()
        assert counts[0] == 10  # saw the zeros, not the mutation
