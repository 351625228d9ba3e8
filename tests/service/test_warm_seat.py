"""A warm seat's job allocates what its result needs, and shares nothing.

A batch kernel's accumulator rows, ``contrib`` column and row masks are
the thread's reused buffer (``repro.core.batch``), so a warm seat's job
allocates no split-sized accumulator state: its traced peak is the
output and a few key arrays.  Nothing a job hands back, and nothing a
run leaves in its combination map, views that buffer or any other
scratch: the next job, over other data, leaves it as it was.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analytics import GridAggregation, MovingAverage
from repro.core import EnginePolicy, ExecutionPolicy
from repro.core.serialization import pack_map
from repro.service import execute_workload, job_policy
from repro.service.service import _Seat
from repro.verify.workloads import get_workload

#: ``service_mixed``'s step size and each job's traced-peak bound (KiB).
N = 8192
PEAK_KIB = {"histogram": 6, "minmax": 4, "grid_aggregation": 12, "moving_average": 300}


def seat(name):
    w = get_workload(name)
    return _Seat(w, job_policy(w, None, None))


@pytest.mark.parametrize("name", sorted(PEAK_KIB))
def test_a_warm_jobs_traced_peak_is_bounded(name):
    data = np.random.default_rng(7).normal(size=N)
    warm = seat(name)
    warm.run(data)
    warm.run(data)  # warm: the thread's buffers fit the split
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        warm.run(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / 1024 <= PEAK_KIB[name]


def snapshot(result):
    return {key: np.array(value, copy=True) for key, value in result.items()}


@pytest.mark.parametrize("name", sorted(PEAK_KIB))
def test_a_jobs_result_outlives_the_next_job(name):
    """Two back-to-back jobs on one seat over different steps: the first
    job's result is unchanged by the second and equals the solo oracle."""
    first, second = (np.random.default_rng(s).normal(size=N) for s in (1, 2))
    warm = seat(name)
    got, _ = warm.run(first)
    kept = snapshot(got)
    other, _ = warm.run(second)
    w = get_workload(name)
    want, _ = execute_workload(w, job_policy(w, None, first), first)
    for key in want:
        assert np.array_equal(got[key], kept[key], equal_nan=True)
        assert np.array_equal(got[key], want[key], equal_nan=True)
    assert any(not np.array_equal(other[k], kept[k], equal_nan=True) for k in kept)


def run(cls, engine, data, **kwargs):
    """``(out or None, combination map bytes, scheduler)`` of one run."""
    policy = ExecutionPolicy(engine=engine, block_size=kwargs.pop("block", None))
    with cls(policy, None, **kwargs) as app:
        out = None
        if cls is MovingAverage:
            out = np.full(len(data), np.nan)
            app.run2(data, out)
        else:
            app.run(data)
        packed = pack_map(app.combination_map_)
        return out, packed.keys.tobytes() + packed.records.tobytes(), app


def test_a_runs_map_outlives_the_threads_next_accumulator():
    """The folded map's backing is a copy: a second scheduler's run on the
    same thread leaves the first's combination map as it was."""
    first, second = (np.random.default_rng(s).normal(size=N) for s in (3, 4))
    _, before, app = run(MovingAverage, EnginePolicy(), first, win_size=7)
    run(MovingAverage, EnginePolicy(), second, win_size=7)
    packed = pack_map(app.combination_map_)
    assert packed.keys.tobytes() + packed.records.tobytes() == before


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("cls, kwargs", [
    (MovingAverage, {"win_size": 7}), (GridAggregation, {"grid_size": 64}),
], ids=["moving_average", "grid_aggregation"])
def test_multi_block_runs_match_the_scalar_oracle(backend, cls, kwargs):
    """Each thread (a pool thread, a process-engine worker) reuses its rows
    split after split, while its reduction map goes on from one block to
    the next and its emitted rows are captured or converted: the result
    is bit-exact with the scalar loop's, run after run."""
    for seed in (5, 6):
        data = np.random.default_rng(seed).normal(size=N)
        oracle = EnginePolicy(num_threads=2, map_path="scalar")
        want_out, want_map, _ = run(cls, oracle, data, block=2000, **kwargs)
        got_out, got_map, _ = run(cls, EnginePolicy(backend=backend, num_threads=2),
                                  data, block=2000, **kwargs)
        assert got_map == want_map
        assert want_out is None or np.array_equal(got_out, want_out, equal_nan=True)
