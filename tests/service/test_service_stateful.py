"""Stateful property test: the service's lifecycle calls in any order.

Hypothesis drives arbitrary interleavings of ``register_step``,
``submit``, ``retire_step``, ``start``, ``drain`` and ``close`` against a
plain-Python model of every handle and every step's leases.  Before
``start`` nothing leaves the queue, so the model predicts each
submission's admission or its exact rejection; once jobs run, it checks
only what their timing cannot change.  Whenever nothing is in flight
(before ``start``, and after ``drain`` or ``close``), each step's reader
count is its unfinished jobs, and a retired step stays resident exactly
while one of them holds it.  At teardown every done job's result and
``run.*`` counters equal a solo ``execute_workload`` run bit for bit, and
no segment or child process is left.
"""

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule)

from repro.service import (
    AdmissionError,
    AnalyticsService,
    JobSpec,
    ServiceClosedError,
    TenantQuota,
    execute_workload,
    job_policy,
)
from repro.verify.workloads import get_workload
from tests.shm import own_segments

MAX_QUEUE_DEPTH = 4
MAX_QUEUED = 2
TENANTS = ("t0", "t1", "t2")
#: service_mixed's four workloads, all with ``policy=None``
WORKLOADS = ("histogram", "minmax", "grid_aggregation", "moving_average")


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.segments = own_segments()
        self.svc = AnalyticsService(workers=1, max_queue_depth=MAX_QUEUE_DEPTH,
                                    default_quota=TenantQuota(max_queued=MAX_QUEUED))
        self.steps: dict[str, np.ndarray] = {}
        self.retired: set[str] = set()
        #: every admitted job, in admission order
        self.handles = []
        #: admitted jobs not yet seen to end (a drain or close ends them)
        self.unfinished = []
        self.started = self.closed = False

    def live_steps(self) -> list[str]:
        return [step for step in self.steps if step not in self.retired]

    def quiet(self) -> bool:
        """Nothing runs: before start, after close, or drained since the last submit."""
        return not self.started or self.closed or not self.unfinished

    def holders(self, step: str) -> int:
        return sum(handle.spec.step == step for handle in self.unfinished)

    @initialize(elements=st.integers(64, 256), seed=st.integers(0, 2**16))
    def first_step(self, elements, seed):
        self.register_step(elements, seed)

    @precondition(lambda self: not self.closed)
    @rule(elements=st.integers(64, 256), seed=st.integers(0, 2**16))
    def register_step(self, elements, seed):
        step = f"s{len(self.steps)}"
        data = np.random.default_rng(seed).normal(size=elements)
        self.svc.register_step(step, data)
        self.steps[step] = data

    @precondition(lambda self: not self.closed and self.live_steps())
    @rule(tenant=st.sampled_from(TENANTS), workload=st.sampled_from(WORKLOADS),
          pick=st.integers(0, 15))
    def submit(self, tenant, workload, pick):
        live = self.live_steps()
        spec = JobSpec(tenant=tenant, workload=workload, step=live[pick % len(live)])
        total = len(self.unfinished)
        mine = sum(handle.spec.tenant == tenant for handle in self.unfinished)
        try:
            handle = self.svc.submit(spec)
        except AdmissionError as exc:
            kind = exc.kind
        else:
            kind = None
        if not self.started:  # every unfinished job is still queued
            want = ("queue-full" if total >= MAX_QUEUE_DEPTH
                    else "tenant-quota" if mine >= MAX_QUEUED else None)
            assert kind == want
        else:  # jobs may have left the queue: only the unfinished ones bound it
            assert kind in (None, "queue-full", "tenant-quota")
            assert kind != "queue-full" or total >= MAX_QUEUE_DEPTH
            assert kind != "tenant-quota" or mine >= MAX_QUEUED
        if kind is None:
            assert handle.job_id == len(self.handles) + 1  # consecutive over admitted jobs
            self.handles.append(handle)
            self.unfinished.append(handle)

    @precondition(lambda self: not self.closed and self.live_steps())
    @rule(pick=st.integers(0, 15))
    def retire_step(self, pick):
        live = self.live_steps()
        step = live[pick % len(live)]
        freed = self.svc.retire_step(step)
        self.retired.add(step)
        if not self.holders(step):
            assert freed
        elif not self.started:
            assert not freed

    @precondition(lambda self: not self.started and not self.closed)
    @rule()
    def start(self):
        self.svc.start()
        self.started = True

    @precondition(lambda self: self.started and not self.closed)
    @rule()
    def drain(self):
        assert self.svc.drain(timeout=60)
        assert all(handle.status == "done" for handle in self.unfinished)
        self.unfinished.clear()

    @precondition(lambda self: not self.closed and self.handles)  # closing no job is teardown's
    @rule()
    def close(self):
        self.svc.close()
        assert self.svc.drain(timeout=0)  # no job is left holding a lease
        self.closed = True
        self.unfinished.clear()
        self.handles_end()

    @precondition(lambda self: self.closed)
    @rule(tenant=st.sampled_from(TENANTS))
    def submit_after_close(self, tenant):
        with pytest.raises(RuntimeError, match="service is closed"):
            self.svc.submit(JobSpec(tenant=tenant, workload="histogram", step="s0"))

    def handles_end(self):
        for handle in self.handles:
            assert handle.status in ("done", "failed")
            try:
                handle.result(timeout=0)
            except ServiceClosedError:
                assert not self.started
            else:
                assert handle.status == "done"

    @invariant()
    def leases_are_the_unfinished_jobs(self):
        if not self.quiet():
            return
        resident = set(self.svc.store.resident_steps())
        for step in self.steps:
            holders = self.holders(step)
            assert self.svc.store.readers(step) == holders
            if self.closed:
                assert step not in resident
            elif step in self.retired:
                assert (step in resident) == (holders > 0)
            else:
                assert step in resident

    def teardown(self):
        if not self.closed:
            self.close()
        solo = {}
        for handle in self.handles:
            if handle.status != "done":
                continue
            spec = handle.spec
            if (spec.workload, spec.step) not in solo:
                w, data = get_workload(spec.workload), self.steps[spec.step]
                solo[spec.workload, spec.step] = execute_workload(
                    w, job_policy(w, None, data), data)
            want, counters = solo[spec.workload, spec.step]
            got = handle.result(timeout=0)
            assert set(got) == set(want)
            for name in want:
                e, a = np.asarray(want[name]), np.asarray(got[name])
                assert e.dtype == a.dtype and e.shape == a.shape, name
                assert np.array_equal(e, a, equal_nan=np.issubdtype(e.dtype, np.floating)), name
            assert handle.counters == {k: v for k, v in counters.items() if k.startswith("run.")}
        assert own_segments() == self.segments
        assert mp.active_children() == []


TestServiceStateful = ServiceMachine.TestCase
TestServiceStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])
