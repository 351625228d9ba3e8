"""Seat processes: where a service job runs, and what a dead seat costs.

The service owns ``workers`` forked seat processes.  A job runs in one of
them, under any policy (``engine=process`` included, which starts the
engine's own worker processes inside the seat), bit-exact with the solo
``execute_workload`` oracle.  A seat killed with a job in flight fails
that job alone, with a :class:`SeatLostError`; one killed while idle
fails none.  Either way the seat is replaced, its lease released, and
``close()`` leaves no process and no shared-memory segment behind.
"""

import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import EnginePolicy, ExecutionPolicy
from repro.service import (
    AnalyticsService,
    JobSpec,
    SeatLostError,
    execute_workload,
    job_policy,
)
from repro.verify.workloads import get_workload
from tests.shm import own_segments


def assert_matches_solo(handle, data, policy=None):
    w = get_workload(handle.spec.workload)
    want, counters = execute_workload(w, job_policy(w, policy, data), data)
    got = handle.result(timeout=120)
    assert set(got) == set(want)
    for name in want:
        e, a = np.asarray(want[name]), np.asarray(got[name])
        assert e.dtype == a.dtype and e.shape == a.shape, name
        assert np.array_equal(e, a, equal_nan=np.issubdtype(e.dtype, np.floating)), name
    assert handle.counters == {k: v for k, v in counters.items() if k.startswith("run.")}


def seat_process() -> mp.Process:
    (seat,) = mp.active_children()
    return seat


def running_children(pid: int) -> list[int]:
    """Live (not zombie) processes whose parent is ``pid``."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:  # exited while listed
            continue
        if int(ppid) == pid and state != "Z":
            kids.append(int(stat.parent.name))
    return kids


def running(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def poll(condition, timeout: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


@pytest.mark.parametrize("workload", ["histogram", "kmeans"])
def test_process_engine_policy_runs_inside_a_seat(workload):
    w = get_workload(workload)
    data = w.make_data(7)
    policy = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2),
                             chunk_size=w.chunk_size, num_iters=w.num_iters)
    before = own_segments()
    with AnalyticsService(workers=1) as svc:
        svc.register_step("s", data)
        handles = [svc.submit(JobSpec(tenant="a", workload=workload, step="s",
                                      policy=policy.fingerprint()))
                   for _ in range(2)]
        for handle in handles:
            assert_matches_solo(handle, data, policy.fingerprint())
        # The engine's workers are the seat's children, not this process's.
        assert [p.name for p in mp.active_children()] == ["svc-seat-0"]
    assert mp.active_children() == []
    assert own_segments() == before


def test_a_killed_seat_fails_only_its_job_in_flight():
    rng = np.random.default_rng(3)
    big, small = rng.normal(size=1 << 20), rng.normal(size=4096)
    # The scalar map path over a 1 Mi step keeps the job in its seat for
    # far longer than the poll below takes to see it dispatched.
    slow = ExecutionPolicy(engine=EnginePolicy(map_path="scalar"), chunk_size=1,
                           num_iters=1).fingerprint()
    before = own_segments()
    with AnalyticsService(workers=1) as svc:
        svc.register_step("big", big)
        svc.register_step("small", small)
        first = seat_process()

        # Killed in flight: the job's handle carries the structured error.
        doomed = svc.submit(JobSpec(tenant="a", workload="histogram", step="big",
                                    policy=slow))
        assert poll(lambda: doomed.status != "queued")
        os.kill(first.pid, signal.SIGKILL)
        with pytest.raises(SeatLostError) as lost:
            doomed.result(timeout=120)
        assert (lost.value.job_id, lost.value.tenant, lost.value.workload) == (
            doomed.job_id, "a", "histogram")
        assert lost.value.exitcode == -signal.SIGKILL
        assert svc.tenant_scope("a").counter("jobs_failed") == 1

        # The tenant's next job runs on the replacement, bit-exact.
        after_crash = svc.submit(JobSpec(tenant="a", workload="histogram", step="small"))
        assert_matches_solo(after_crash, small)
        second = seat_process()
        assert second.pid != first.pid

        # Killed idle: no job is lost.
        os.kill(second.pid, signal.SIGKILL)
        second.join(timeout=30)
        assert not second.is_alive()
        for workload in ("histogram", "moving_average"):
            assert_matches_solo(svc.submit(JobSpec(tenant="a", workload=workload,
                                                   step="small")), small)
        assert svc.drain(timeout=60)
        assert svc.tenant_scope("a").counter("jobs_failed") == 1
        assert svc.telemetry.counter("service.seat_processes_lost") == 2
        assert svc.telemetry.gauge("engine.residency.shared_readers") == 0
    assert mp.active_children() == []
    assert own_segments() == before


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_a_seat_killed_under_a_process_engine_job_fails_it_without_a_hang():
    # The engine's workers inherit the seat's pipe and sentinel; they must
    # see their owner die and exit, or the service would wait on them.
    # Three threads: the seat drives thread 0 and owns two engine workers.
    policy = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=3,
                                                 map_path="scalar"),
                             chunk_size=1, num_iters=1).fingerprint()
    small = np.random.default_rng(5).normal(size=4096)
    before = own_segments()
    with AnalyticsService(workers=1) as svc:
        svc.register_step("big", np.random.default_rng(4).normal(size=1 << 21))
        svc.register_step("small", small)
        seat = seat_process()
        doomed = svc.submit(JobSpec(tenant="a", workload="histogram", step="big",
                                    policy=policy))
        assert poll(lambda: len(running_children(seat.pid)) >= 2)
        workers = running_children(seat.pid)
        os.kill(seat.pid, signal.SIGKILL)
        assert doomed.wait(timeout=60)
        assert isinstance(doomed.error, SeatLostError)
        assert poll(lambda: not any(running(pid) for pid in workers))
        assert_matches_solo(svc.submit(JobSpec(tenant="a", workload="histogram",
                                               step="small", policy=policy)),
                            small, policy)
    assert mp.active_children() == []
    # The killed seat never unlinked its engine's input segment: reaping
    # the seat did.
    assert own_segments() == before
