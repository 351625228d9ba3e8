"""The multi-tenant analytics service master and its seat processes.

``AnalyticsService`` multiplexes many tenants' analytics jobs over the
shared in-situ data plane:

* **queue** — one :class:`DeficitRoundRobin` admits each submission
  (bounded queue, per-tenant quotas, engine-second budgets) and orders
  dispatch;
* **seat processes** — the service owns a :class:`~repro.core.worker.Pool`
  of ``workers`` processes, and one dispatcher thread per process pops jobs
  in DRR order (so no tenant's flood can starve another's head job past
  one quantum rotation) and sends each to its process: jobs run off the
  service's GIL, one core each;
* **shared residency** — every job leases its sim step from the
  refcounted :class:`SharedStepStore` from its admission until it ends,
  so a queued job's step outlives ``retire_step``: N jobs read one
  resident ring, written unmapped, that each seat maps once, by name;
* **seats** — inside a seat process, per-(tenant, workload, policy)
  schedulers are kept warm between jobs (``service.seats.created`` vs
  ``service.seats.reused``);
* **telemetry** — each job's reply lands under its tenant's names
  (``service.tenant.<id>.*``) in the service's one :class:`Recorder`.

:func:`execute_workload` and the warm seats run a job through one code
path, :func:`_run_app`, which the conformance solo oracle
(:mod:`repro.verify.service_check`) also runs, so a service run can
never drift from the oracle by construction of the comparison.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

from ..core import ExecutionPolicy
from ..core.worker import Pool, detach, view
from ..telemetry import Recorder
from ..verify.workloads import Workload, get_workload, load_analytics
from .dispatch import DeficitRoundRobin
from .residency import SharedStepStore
from .spec import (AdmissionError, JobHandle, JobSpec, SeatLostError, ServiceClosedError,
                   TenantQuota)

__all__ = ["AnalyticsService", "execute_workload", "job_policy"]


def job_policy(workload: Workload, policy, data: np.ndarray) -> ExecutionPolicy:
    """Resolve a JobSpec policy field into a runnable ExecutionPolicy.

    ``None`` means the workload's canonical shape (serial engine,
    registry chunk/iteration counts); a string is parsed as a policy
    fingerprint.  A workload-derived ``extra_data`` (e.g. initial
    centroids) is grafted on exactly as the conformance oracle does, so
    service jobs and solo oracles always seed identically.
    """
    if policy is None:
        policy = ExecutionPolicy(chunk_size=workload.chunk_size,
                                 num_iters=workload.num_iters)
    elif isinstance(policy, str):
        policy = ExecutionPolicy.parse(policy)
    if policy.extra_data is None:
        extra = workload.extra(data)
        if extra is not None:
            policy = policy.evolve(extra_data=extra)
    return policy


@functools.lru_cache(maxsize=256)
def _resolved(workload: str, policy: str | None) -> tuple[ExecutionPolicy, str]:
    """A ``None`` or fingerprint policy field for a workload without
    ``make_extra`` (no extra data to derive), resolved with its
    fingerprint once per seat process."""
    resolved = job_policy(get_workload(workload), policy, None)
    return resolved, resolved.fingerprint()


def _run_app(app, workload: Workload, data: np.ndarray) -> dict:
    if workload.multi_key:
        out = np.full(workload.output_length(len(data)), np.nan)
        app.run2(data, out)
        return dict(workload.extract(app, out))
    app.run(data)
    return dict(workload.extract(app, None))


def execute_workload(
    workload: Workload | str,
    policy: ExecutionPolicy,
    data: np.ndarray,
) -> tuple[dict, dict[str, int]]:
    """Build, run once, close: (extracted result, recorded counters).

    The one shared execution path for a service job and its solo
    oracle.  The counters are what the scheduler's recorder counted —
    not ``telemetry_snapshot()``'s end-of-run ``run.state_*`` gauges,
    which would measure the map object by object.
    """
    w = workload if isinstance(workload, Workload) else get_workload(workload)
    app = w.build(policy, None)
    with app:
        result = _run_app(app, w, data)
        counters = app.telemetry.counters()
    return result, counters


class _Seat:
    """A warm scheduler bound to one (tenant, workload, policy) shape."""

    def __init__(self, workload: Workload, policy: ExecutionPolicy):
        self.workload = workload
        self.app = workload.build(policy, None)

    def run(self, data: np.ndarray) -> tuple[dict, dict[str, int]]:
        self.app.reset()
        self.app.reset_stats()
        result = _run_app(self.app, self.workload, data)
        counters = self.app.telemetry.counters()
        return result, counters


# -- the seat process ---------------------------------------------------------


class _Seats:
    """A seat process's state: its warm schedulers and the step segments
    it has mapped.  Each call is one job, ``(evicted segment names, job)``,
    and returns (result, ``run.*`` counters, seconds spent, whether a
    warm seat was ``created`` or ``reused``)."""

    def __init__(self):
        self.segments: dict = {}
        self.seats: dict[tuple, _Seat] = {}

    def __call__(self, message: tuple) -> tuple[dict, dict[str, int], float, str | None]:
        evicted, (tenant, workload, policy, (name, shape, dtype)) = message
        if evicted:
            # A warm seat still holds the step its last job read, so the
            # seats let go before the segments the service evicted unmap.
            for seat in self.seats.values():
                seat.app.reset()
            detach(self.segments, evicted)
        t0 = time.perf_counter()
        data = view(self.segments, name, shape, dtype)
        w = get_workload(workload)
        used = None
        if w.make_extra is not None:
            # Stateful seeding (e.g. centroids the run mutates): build
            # fresh, never reuse.
            result, counters = execute_workload(w, job_policy(w, policy, data), data)
        else:
            if isinstance(policy, ExecutionPolicy):  # resolved already
                fingerprint = policy.fingerprint()
            else:
                policy, fingerprint = _resolved(w.name, policy)
            key = (tenant, w.name, fingerprint)
            seat = self.seats.get(key)
            used = "created" if seat is None else "reused"
            if seat is None:
                seat = self.seats[key] = _Seat(w, policy)
            result, counters = seat.run(data)
        run = {name: value for name, value in counters.items()
               if name.startswith("run.")}
        return result, run, time.perf_counter() - t0, used


class AnalyticsService:
    """Admitting DRR queue → seat processes.

    Submissions are accepted before :meth:`start` — queues simply
    accumulate until the seat processes spin up, which the starvation
    tests exploit to make dispatch order deterministic.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        max_queue_depth: int = 256,
        default_quota: TenantQuota | None = None,
        quantum: float = 4096.0,
        telemetry: Recorder | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.telemetry = telemetry if telemetry is not None else Recorder()
        self.store = SharedStepStore(self.telemetry)
        self._drr = DeficitRoundRobin(quantum, max_queue_depth=max_queue_depth,
                                      default_quota=default_quota)
        self._workers_wanted = workers
        #: seat process ``i`` and the dispatcher thread that feeds it
        self._pool: Pool | None = None
        self._dispatchers: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        #: jobs submitted and not yet ended (``drain`` waits for 0)
        self._outstanding = 0
        self._closed = False

    # -- tenants -------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self._drr.set_quota(tenant, quota)

    # -- data plane ----------------------------------------------------
    def register_step(self, step_id: str, data: np.ndarray) -> None:
        """Publish one sim step for shared-read residency (one copy)."""
        self.store.register(
            step_id, np.ascontiguousarray(data, dtype=np.float64))

    def retire_step(self, step_id: str) -> bool:
        """Mark a step evictable (freed once its last reader releases)."""
        return self.store.retire(step_id)

    def step_elements(self, step_id: str) -> int:
        return self.store.elements(step_id)

    # -- submission ----------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; returns its handle or raises a structured
        :class:`~repro.service.AdmissionError`."""
        if self._closed:
            raise RuntimeError("service is closed")
        get_workload(spec.workload)           # fail fast: workload known, and the
        lease = self.store.attach(spec.step)  # step resident and held from here
        handle = JobHandle(job_id=0, spec=spec, _lease=lease)  # the queue numbers it
        cost = spec.cost_hint if spec.cost_hint is not None else self.store.elements(spec.step)
        with self._lock:
            self._outstanding += 1
        tenant = f"service.tenant.{spec.tenant}."
        try:
            self._drr.push(handle, cost)
        except AdmissionError as exc:
            self._release(handle)
            self.telemetry.inc(f"{tenant}rejected.{exc.kind}")
            self.telemetry.inc("service.rejected")
            raise
        except RuntimeError:  # close() closed the queue after the check above
            self._release(handle)
            raise RuntimeError("service is closed") from None
        self.telemetry.inc(tenant + "submitted")
        self.telemetry.inc("service.submitted")
        return handle

    # -- seat processes ----------------------------------------------
    def start(self) -> "AnalyticsService":
        """Fork the seat processes and start their dispatchers (idempotent)."""
        with self._lock:
            if self._pool is not None or self._closed:
                return self
            # Seats import nothing after the fork, and fork before any dispatcher thread exists.
            load_analytics()
            self._pool = Pool(_Seats, self._workers_wanted, name="svc-seat",
                              telemetry=self.telemetry, replaced="service.seat_processes_lost")
            for i in range(self._workers_wanted):
                t = threading.Thread(target=self._dispatch_loop, args=(i,),
                                     name=f"svc-dispatch-{i}", daemon=True)
                self._dispatchers.append(t)
                t.start()
        return self

    def _dispatch_loop(self, index: int) -> None:
        while not self._pool.closed:
            handle = self._drr.pop()
            if handle is None:
                return
            self._execute(index, handle)

    def _execute(self, index: int, handle: JobHandle) -> None:
        spec = handle.spec
        tenant = f"service.tenant.{spec.tenant}."
        handle._mark_running()
        self.telemetry.inc(tenant + "dispatched")
        t0 = time.perf_counter()
        error = None
        try:
            result, counters, seconds, seat = self._run_job(index, handle)
        except BaseException as exc:  # noqa: BLE001 - delivered via handle
            error, seconds = exc, time.perf_counter() - t0
        try:
            self._drr.charge(spec.tenant, seconds)
            self.telemetry.add_time(tenant + "engine_seconds", seconds)
            if error is not None:
                self._fail(handle, error, seconds)
                return
            self.telemetry.inc(tenant + "jobs_completed")
            if seat is not None:
                self.telemetry.inc(f"service.seats.{seat}")
            # Add the job's run.* counters under its tenant's names
            # (service.tenant.<id>.run.*): per-tenant accounting without
            # per-job recorder growth.
            self.telemetry.merge_counters(
                {tenant + name: value for name, value in counters.items()})
            handle._finish(result, counters, seconds)
        finally:
            self._release(handle)

    def _fail(self, handle: JobHandle, exc: BaseException, seconds: float = 0.0) -> None:
        self.telemetry.inc(f"service.tenant.{handle.spec.tenant}.jobs_failed")
        self.telemetry.inc("service.failed")
        handle._fail(exc, seconds)

    def _release(self, handle: JobHandle) -> None:
        """Release an ended job's lease, taken off its handle; wake ``drain`` after the last."""
        lease, handle._lease = handle._lease, None
        lease.release()
        with self._lock:
            self._outstanding -= 1
            if not self._outstanding:
                self._idle.notify_all()

    def _run_job(self, index: int, handle: JobHandle) -> tuple:
        """Run one job on seat process ``index``: the job's identity goes
        down the pipe, (result, ``run.*`` counters, seat seconds, seat
        created/reused) comes back."""
        spec = handle.spec
        seat = self._pool.worker(index)
        segment = handle._lease.segment
        resident = self.store.segment_names()
        evicted = [name for name in seat.holds if name not in resident]
        for name in evicted:
            del seat.holds[name]
        seat.holds[segment[0]] = True
        reply = seat.call((evicted, (spec.tenant, spec.workload, spec.policy, segment)))
        if reply is None:
            raise SeatLostError(handle.job_id, spec.tenant, spec.workload,
                                self._pool.replace(index))
        if isinstance(reply, BaseException):
            raise reply
        return reply

    # -- lifecycle -----------------------------------------------------
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job finished; False on timeout."""
        deadline = (None if timeout is None
                    else time.perf_counter() + timeout)
        with self._idle:
            while self._outstanding:
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self, timeout: float = 30.0) -> None:
        """Drain queued jobs, stop the seat processes, free segments.  A
        service that never started fails its queued jobs instead."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._drr.close()
        for t in self._dispatchers:
            t.join(timeout)
        if self._pool is not None:
            self._pool.close()
        else:  # no dispatcher ever pops these: fail them, and free their steps
            while (handle := self._drr.pop()) is not None:
                spec = handle.spec
                self._fail(handle, ServiceClosedError(handle.job_id, spec.tenant, spec.workload))
                self._release(handle)
        self.store.close()

    def __enter__(self) -> "AnalyticsService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
