"""One recovery contract for the three supervised layers.

The scheduler's iteration replay, ``supervised_launch``'s relaunch and
the elastic tier's respawn all retry through ``FaultPolicy.retry_step``,
so one fault under ``retry`` reads the same on each: one
``faults.retries`` and one ``faults.backoff_seconds`` of exactly
``backoff_for(1)``.
"""

import numpy as np
import pytest

from repro.analytics.histogram import Histogram
from repro.analytics.kmeans import KMeans
from repro.comm import supervised_launch
from repro.core import ElasticTier, EnginePolicy, ExecutionPolicy
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.telemetry import Recorder

POLICY = FaultPolicy.retry(backoff=0.01)
DIMS = 3


def scheduler_engine_kill() -> dict:
    """A process-engine worker killed in iteration 2 of 3."""
    rng = np.random.default_rng(2015)
    sched = KMeans(ExecutionPolicy(
        engine=EnginePolicy(backend="process", num_threads=2), chunk_size=DIMS,
        extra_data=rng.normal(size=(4, DIMS)), num_iters=3, fault=POLICY), dims=DIMS)
    sched.fault_plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)])
    with sched:
        sched.run(rng.normal(size=3000 * DIMS))
    return sched.telemetry_snapshot()


def _sum_rank(comm, value):
    comm.barrier()
    return comm.allreduce(value)


def launcher_rank_crash() -> dict:
    """Rank 1 of 2 crashes at its first comm call."""
    telemetry = Recorder()
    results = supervised_launch(
        2, _sum_rank, [(1,), (2,)], policy=POLICY, telemetry=telemetry,
        fault_plan=FaultPlan([FaultSpec("comm", "crash", target=1)]))
    assert results == [3, 3]
    return telemetry.snapshot()


def _histogram():
    return Histogram(ExecutionPolicy(), None, lo=-4.0, hi=4.0, num_buckets=16)


def elastic_worker_kill() -> dict:
    """Staging worker 1 of 2 is killed at its fourth partition."""
    telemetry = Recorder()
    parts = np.array_split(np.random.default_rng(2015).normal(size=6000), 12)
    with ElasticTier(_histogram, 2, policy=POLICY, telemetry=telemetry,
                     fault_plan=FaultPlan([FaultSpec("comm", "crash", at_call=3, target=1)]),
                     worker_timeout=1.0) as tier:
        for part in parts:
            tier.submit(part)
        total = sum(obj.count for _, obj in tier.drain().sorted_items())
    assert total == 6000
    return telemetry.snapshot()


@pytest.mark.parametrize("run", [scheduler_engine_kill, launcher_rank_crash,
                                 elastic_worker_kill],
                         ids=["scheduler", "supervised_launch", "elastic_tier"])
def test_one_fault_one_retry_one_backoff(run):
    snap = run()
    assert snap["counters"]["faults.retries"] == 1
    backoff = snap["timers"]["faults.backoff_seconds"]
    assert backoff["calls"] == 1
    assert backoff["seconds"] == POLICY.backoff_for(1)


def _old_backoff(attempt: int, base: float) -> float:
    """The schedule before the backoff knobs went, at their defaults
    (factor 2, cap 2 s, no jitter)."""
    delay = min(base * 2.0 ** (attempt - 1), 2.0)
    return max(delay, 0.0)


@pytest.mark.parametrize("base", [0.005, 0.01, 0.05, 0.25])
def test_backoff_schedule_is_unchanged(base):
    policy = FaultPolicy.retry(backoff=base)
    for n in range(1, 9):
        assert policy.backoff_for(n) == _old_backoff(n, base)
