"""Process-engine supervision: worker kill/hang, recovery, shm hygiene."""

from pathlib import Path

import numpy as np
import pytest

from repro.analytics.histogram import Histogram
from repro.analytics.kmeans import KMeans
from repro.core import EnginePolicy, ExecutionPolicy
from repro.core.engine import process as process_engine
from repro.faults import EngineFaultError, FaultPlan, FaultPolicy, FaultSpec

DIMS = 3


def shm_segments() -> set[str]:
    shm_dir = Path("/dev/shm")
    return {p.name for p in shm_dir.iterdir()} if shm_dir.is_dir() else set()


@pytest.fixture
def kmeans_inputs(rng):
    points = rng.normal(size=(3000, DIMS)).ravel()
    centroids = rng.normal(size=(4, DIMS))
    return points, centroids


def run_kmeans(points, centroids, plan=None, policy="fail_fast", iters=3):
    args = ExecutionPolicy(
        engine=EnginePolicy(backend="process", num_threads=2),
        chunk_size=DIMS,
        extra_data=centroids,
        num_iters=iters,
        fault=policy,
    )
    sched = KMeans(args, dims=DIMS)
    sched.fault_plan = plan
    with sched:
        result = sched.run(points)
    snap = sched.telemetry_snapshot()
    cents = np.stack([result[k].centroid for k in sorted(result.keys())])
    return cents, snap["counters"], snap["timers"]


class TestWorkerKill:
    def test_retry_is_bit_exact(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        clean, _, _ = run_kmeans(points, centroids)
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=3)])
        cents, counters, timers = run_kmeans(
            points, centroids, plan, FaultPolicy.retry(backoff=0.01)
        )
        assert np.array_equal(clean, cents)
        assert counters["faults.injected.engine.kill"] == 1
        assert counters["faults.detected.worker_dead"] == 1
        assert counters["faults.replays"] == 1
        assert timers["faults.recovery_seconds"]["calls"] >= 1

    def test_degrade_drops_and_completes(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=3)])
        _, counters, _ = run_kmeans(points, centroids, plan, "degrade")
        assert counters["faults.dropped_splits"] >= 1
        assert counters["faults.detected.worker_dead"] == 1

    def test_fail_fast_raises_engine_fault(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=3)])
        with pytest.raises(EngineFaultError):
            run_kmeans(points, centroids, plan)

    def test_retry_exhaustion_reraises(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        # the fault strikes every dispatch, out-living two attempts
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=0, times=10)])
        with pytest.raises(EngineFaultError):
            run_kmeans(
                points,
                centroids,
                plan,
                FaultPolicy.retry(max_attempts=2, backoff=0.01),
            )


class TestWorkerHang:
    def test_hang_detected_and_replayed(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        clean, _, _ = run_kmeans(points, centroids)
        plan = FaultPlan([FaultSpec("engine", "hang", at_call=3, seconds=30.0)])
        cents, counters, _ = run_kmeans(
            points,
            centroids,
            plan,
            FaultPolicy.retry(backoff=0.01, task_deadline=0.5),
        )
        assert np.array_equal(clean, cents)
        assert counters["faults.detected.worker_hung"] == 1


class TestShmHygiene:
    def test_worker_crash_leaks_no_segments(self, kmeans_inputs, monkeypatch):
        """Satellite regression: a killed worker must not leak the
        parent's input segment nor its own return segments."""
        # Force every worker return through a named shm segment so the
        # orphan-reaping path is actually exercised.
        monkeypatch.setattr(process_engine, "_SHM_RETURN_MIN", 1)
        points, centroids = kmeans_inputs
        before = shm_segments()
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=3)])
        run_kmeans(points, centroids, plan, FaultPolicy.retry(backoff=0.01))
        leaked = shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_fail_fast_crash_leaks_no_segments(self, kmeans_inputs, monkeypatch):
        monkeypatch.setattr(process_engine, "_SHM_RETURN_MIN", 1)
        points, centroids = kmeans_inputs
        before = shm_segments()
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=3)])
        with pytest.raises(EngineFaultError):
            run_kmeans(points, centroids, plan)
        leaked = shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_healthy_run_leaks_no_segments(self, kmeans_inputs, monkeypatch):
        monkeypatch.setattr(process_engine, "_SHM_RETURN_MIN", 1)
        points, centroids = kmeans_inputs
        before = shm_segments()
        run_kmeans(points, centroids)
        leaked = shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


class TestHealthyFastPath:
    def test_no_plan_fail_fast_never_enters_supervisor(
        self, kmeans_inputs, monkeypatch
    ):
        """With no plan and the default policy, dispatch must stay on the
        plain pool.map path — zero supervision overhead when healthy."""

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("supervised path entered on a healthy run")

        monkeypatch.setattr(
            process_engine.ProcessEngine, "_supervised_map", boom
        )
        points, centroids = kmeans_inputs
        cents, counters, _ = run_kmeans(points, centroids)
        assert cents.shape == (4, DIMS)
        assert not any(k.startswith("faults.") for k in counters)

    def test_policy_alone_routes_through_supervisor(self, kmeans_inputs):
        """A non-default policy engages supervision even without a plan —
        and a fault-free supervised run matches the fast path exactly."""
        points, centroids = kmeans_inputs
        clean, _, _ = run_kmeans(points, centroids)
        cents, _, _ = run_kmeans(
            points, centroids, None, FaultPolicy.retry(backoff=0.01)
        )
        assert np.array_equal(clean, cents)


class TestHistogramDegrade:
    def test_degrade_mass_is_bounded(self, rng):
        """Dropping split contributions can only lose mass, never invent it."""
        data = rng.uniform(0, 1, 8000)
        args = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=2),
            chunk_size=1,
            fault="degrade",
        )
        sched = Histogram(args, lo=0.0, hi=1.0, num_buckets=8)
        sched.fault_plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)])
        out = np.zeros(8)
        with sched:
            sched.run(data, out)
        counters = sched.telemetry_snapshot()["counters"]
        assert counters["faults.dropped_splits"] >= 1
        assert 0 < out.sum() < len(data)
