"""Pipelined time sharing: overlap without losing bit-exactness.

The pipelined driver must produce exactly the serial driver's results on
every engine backend (steps analyzed in order against identical byte
streams), report coherent overlap timings, propagate producer failures,
and survive a fault-injected worker loss (the replacement is sent the
scheduler core afresh).
"""

import numpy as np
import pytest

from repro.analytics import Histogram, MovingAverage
from repro.core import (
    EnginePolicy,
    ExecutionPolicy,
    PipelinedTimeSharingDriver,
    TimeSharingDriver,
)
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.sim import GaussianEmulator

ENGINES = ("serial", "thread", "process")

STEPS = 4
ELEMENTS = 900

# Slack for wall-clock timing identities.  Per-phase timestamps are
# taken with separate clock reads, so sums can disagree by scheduler
# jitter; 50 ms is far above any observed skew while still catching
# genuinely broken accounting (overlap exceeding a whole phase).
TIMING_SLACK_SECONDS = 0.05


def counts_of(app):
    return {k: v.count for k, v in app.get_combination_map().sorted_items()}


def run_histogram(driver_cls, args, steps=STEPS, plan=None, **driver_kwargs):
    sim = GaussianEmulator(step_elements=ELEMENTS, seed=13)
    app = Histogram(args, lo=-4, hi=4, num_buckets=16)
    app.fault_plan = plan
    with app:
        result = driver_cls(sim, app, **driver_kwargs).run(steps)
        return counts_of(app), result, app.telemetry_snapshot()["counters"]


class TestBitExactness:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_matches_serial_driver(self, engine):
        ref_counts, _, _ = run_histogram(TimeSharingDriver, ExecutionPolicy())
        counts, result, counters = run_histogram(
            PipelinedTimeSharingDriver,
            ExecutionPolicy(engine=EnginePolicy(backend=engine, num_threads=2)),
        )
        assert counts == ref_counts
        assert len(result.steps) == STEPS
        assert counters["pipeline.steps"] == STEPS

    def test_multi_key_window_path(self):
        def run(driver_cls, args):
            sim = GaussianEmulator(step_elements=300, seed=5)
            app = MovingAverage(args, win_size=7)
            outs = []
            with app:
                driver_cls(
                    sim,
                    app,
                    multi_key=True,
                    out_factory=lambda p: np.full(len(p), np.nan),
                    per_step=lambda step, sched, out: outs.append(out.copy()),
                ).run(3)
            return outs

        # Same split structure both sides: multi-thread merge order at
        # split boundaries is a float-associativity effect, not pipelining.
        policy = ExecutionPolicy(engine=EnginePolicy(num_threads=2))
        ref = run(TimeSharingDriver, policy)
        got = run(PipelinedTimeSharingDriver, policy)
        assert len(ref) == len(got) == 3
        for a, b in zip(ref, got):
            assert np.array_equal(a, b, equal_nan=True)

    def test_per_step_observes_steps_in_order(self):
        seen = []
        sim = GaussianEmulator(step_elements=200, seed=3)
        app = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=8)
        with app:
            PipelinedTimeSharingDriver(
                sim, app, per_step=lambda step, sched, out: seen.append(step)
            ).run(5)
        assert seen == list(range(5))


class TestTimingSemantics:
    def test_overlap_bounded_by_phases(self):
        _, result, _ = run_histogram(
            PipelinedTimeSharingDriver,
            ExecutionPolicy(engine=EnginePolicy(num_threads=2)),
        )
        for step in result.steps:
            assert step.overlap_seconds >= 0.0
            assert step.overlap_seconds <= step.simulate + TIMING_SLACK_SECONDS
            assert step.total <= (
                step.simulate + step.analyze + TIMING_SLACK_SECONDS
            )
        assert result.total_seconds <= (
            result.simulate_seconds + result.analyze_seconds
            + TIMING_SLACK_SECONDS
        )
        assert result.overlap_seconds == pytest.approx(
            sum(s.overlap_seconds for s in result.steps)
        )

    def test_serial_driver_reports_zero_overlap(self):
        _, result, _ = run_histogram(TimeSharingDriver, ExecutionPolicy())
        assert result.overlap_seconds == 0.0
        assert result.total_seconds == pytest.approx(
            result.simulate_seconds + result.analyze_seconds
        )

    def test_depth_below_two_rejected(self):
        sim = GaussianEmulator(step_elements=10)
        app = Histogram(ExecutionPolicy(), lo=-1, hi=1, num_buckets=4)
        with pytest.raises(ValueError, match="depth"):
            PipelinedTimeSharingDriver(sim, app, depth=1)


class ExplodingSim(GaussianEmulator):
    def advance_into(self, out):
        if self.step == 2:
            raise RuntimeError("simulated crash at step 2")
        return super().advance_into(out)


class TestFailurePropagation:
    def test_producer_exception_reaches_the_caller(self):
        sim = ExplodingSim(step_elements=100, seed=1)
        app = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=8)
        with app:
            with pytest.raises(RuntimeError, match="step 2"):
                PipelinedTimeSharingDriver(sim, app).run(5)

    def test_worker_kill_respawn_invalidates_residency(self):
        """A worker lost mid-pipeline is replaced and sent the scheduler
        core afresh — results stay bit-exact."""
        ref_counts, _, _ = run_histogram(TimeSharingDriver, ExecutionPolicy())
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=3)])
        counts, _, counters = run_histogram(
            PipelinedTimeSharingDriver,
            ExecutionPolicy(
                engine=EnginePolicy(backend="process", num_threads=2),
                fault=FaultPolicy.retry(backoff=0.01),
            ),
            plan=plan,
        )
        assert counts == ref_counts
        assert counters["faults.detected.worker_dead"] == 1
        assert counters["engine.residency.invalidations"] == 1
        assert counters["faults.replays"] >= 1
