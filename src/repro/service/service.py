"""The in-process multi-tenant analytics service master.

``AnalyticsService`` multiplexes many tenants' analytics jobs over the
shared in-situ data plane:

* **queue** — submissions pass :class:`AdmissionController` (bounded
  queue, per-tenant quotas, engine-second budgets) and enter a
  :class:`DeficitRoundRobin` dispatcher;
* **fair dispatch** — a pool of worker threads pops jobs in DRR order,
  so no tenant's flood can starve another's head job past one quantum
  rotation;
* **shared residency** — every job attaches its sim step through the
  refcounted :class:`SharedStepStore`: N jobs against one step read one
  resident copy;
* **seats** — per-(tenant, workload, policy) schedulers are kept warm
  between jobs, so engine pools are built once and reused
  (``service.seats.created`` vs ``service.seats.reused``);
* **telemetry** — everything lands in per-tenant scoped namespaces
  (``service.tenant.<id>.*``) of one root :class:`Recorder`.

:func:`execute_workload` is the single job-execution code path — the
service's workers and the conformance solo oracle
(:mod:`repro.verify.service_check`) both call it, so a service run can
never drift from the oracle by construction of the comparison.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

from ..core import ExecutionPolicy
from ..telemetry import Recorder
from ..verify.workloads import Workload, get_workload
from .admission import AdmissionController
from .dispatch import DeficitRoundRobin
from .residency import SharedStepStore
from .spec import AdmissionError, JobHandle, JobSpec, TenantQuota

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
    *,
    telemetry: Recorder | None = None,
) -> tuple[dict, dict[str, int]]:
    """Build, run once, close: (extracted result, counter snapshot).

    The one shared execution path for a service job and its solo
    oracle.  ``telemetry`` (typically a scoped child recorder) rebinds
    the scheduler before the engine exists.
    """
    w = workload if isinstance(workload, Workload) else get_workload(workload)
    app = w.build(policy, None)
    if telemetry is not None:
        app.use_telemetry(telemetry)
    with app:
        result = _run_app(app, w, data)
        counters = dict(app.telemetry_snapshot()["counters"])
    return result, counters


class _Seat:
    """A warm scheduler bound to one (tenant, workload, policy) shape."""

    def __init__(self, workload: Workload, policy: ExecutionPolicy,
                 recorder: Recorder):
        self.workload = workload
        self.app = workload.build(policy, None)
        self.app.use_telemetry(recorder)
        self.runs = 0

    def run(self, data: np.ndarray) -> tuple[dict, dict[str, int]]:
        self.app.reset()
        self.app.reset_stats()
        result = _run_app(self.app, self.workload, data)
        counters = dict(self.app.telemetry_snapshot()["counters"])
        self.runs += 1
        return result, counters

    def close(self) -> None:
        self.app.close()


class AnalyticsService:
    """Bounded queue → admission → DRR fair dispatch → shared residency.

    Submissions are accepted before :meth:`start` — queues simply
    accumulate until the worker pool spins up, which the starvation
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
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth, default_quota=default_quota)
        self.store = SharedStepStore(self.telemetry)
        self._drr = DeficitRoundRobin(quantum=quantum)
        self._workers_wanted = workers
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        self._job_ids = itertools.count(1)
        self._seat_ids = itertools.count(1)
        #: (tenant, workload, policy fingerprint) -> free warm seats
        self._seats: dict[tuple, list[_Seat]] = {}
        self._tenant_scopes: dict[str, Recorder] = {}
        self._closed = False

    # -- tenants -------------------------------------------------------
    def tenant_scope(self, tenant: str) -> Recorder:
        """The tenant's scoped telemetry namespace
        (``service.tenant.<id>.*``)."""
        with self._lock:
            scope = self._tenant_scopes.get(tenant)
            if scope is None:
                scope = self.telemetry.scoped(f"service.tenant.{tenant}")
                self._tenant_scopes[tenant] = scope
            return scope

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self.admission.set_quota(tenant, quota)

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
        elements = self.store.elements(spec.step)  # fail fast: step must
        get_workload(spec.workload)                # be resident, workload known
        scope = self.tenant_scope(spec.tenant)
        try:
            self.admission.admit(spec)
        except AdmissionError as exc:
            scope.inc(f"rejected.{exc.kind}")
            self.telemetry.inc("service.rejected")
            raise
        cost = (spec.cost_hint if spec.cost_hint is not None
                else float(elements))
        handle = JobHandle(job_id=next(self._job_ids), spec=spec)
        with self._lock:
            self._outstanding += 1
        self._drr.push(handle, cost)
        scope.inc("submitted")
        self.telemetry.inc("service.submitted")
        self.telemetry.set_gauge("service.queue_depth",
                                 self.admission.queued())
        return handle

    # -- worker pool ---------------------------------------------------
    def start(self) -> "AnalyticsService":
        """Spin up the worker pool (idempotent)."""
        with self._lock:
            if self._threads or self._closed:
                return self
            for i in range(self._workers_wanted):
                t = threading.Thread(target=self._worker_loop,
                                     name=f"svc-worker-{i}", daemon=True)
                self._threads.append(t)
                t.start()
        return self

    def _worker_loop(self) -> None:
        while True:
            handle = self._drr.pop()
            if handle is None:
                return
            self._execute(handle)

    def _execute(self, handle: JobHandle) -> None:
        spec = handle.spec
        scope = self.tenant_scope(spec.tenant)
        self.admission.on_dispatch(spec.tenant)
        handle._mark_running()
        scope.inc("dispatched")
        self.telemetry.set_gauge("service.queue_depth",
                                 self.admission.queued())
        t0 = time.perf_counter()
        try:
            result, counters = self._run_job(handle)
        except BaseException as exc:  # noqa: BLE001 - delivered via handle
            seconds = time.perf_counter() - t0
            self.admission.on_complete(spec.tenant, seconds)
            scope.add_time("engine_seconds", seconds)
            scope.inc("jobs_failed")
            self.telemetry.inc("service.failed")
            handle._fail(exc, seconds)
        else:
            seconds = time.perf_counter() - t0
            self.admission.on_complete(spec.tenant, seconds)
            scope.add_time("engine_seconds", seconds)
            scope.inc("jobs_completed")
            self.telemetry.inc("service.completed")
            # Aggregate the job's run.* stats into the tenant namespace
            # (service.tenant.<id>.run.*) — per-tenant accounting without
            # per-job root-recorder growth.
            scope.merge_counters({name: value
                                  for name, value in counters.items()
                                  if name.startswith("run.")})
            handle._finish(result, counters, seconds)
        finally:
            self.store.reap_dead_readers()
            with self._lock:
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._idle.notify_all()

    def _run_job(self, handle: JobHandle) -> tuple[dict, dict[str, int]]:
        spec = handle.spec
        w = get_workload(spec.workload)
        with self.store.attach(spec.step) as lease:
            data = lease.data
            policy = job_policy(w, spec.policy, data)
            if w.make_extra is not None:
                # Stateful seeding (e.g. centroids the run mutates):
                # build fresh under a job-unique scope, never reuse.
                scope = self.tenant_scope(spec.tenant).scoped(
                    f"job.{handle.job_id}")
                try:
                    return execute_workload(w, policy, data,
                                            telemetry=scope)
                finally:
                    scope.reset()  # captured already; keep the root bounded
            seat = self._checkout_seat(spec.tenant, w, policy)
            try:
                return seat.run(data)
            finally:
                self._checkin_seat(spec.tenant, w, policy, seat)

    # -- seat cache ----------------------------------------------------
    def _seat_key(self, tenant: str, w: Workload,
                  policy: ExecutionPolicy) -> tuple:
        return (tenant, w.name, policy.fingerprint())

    def _checkout_seat(self, tenant: str, w: Workload,
                       policy: ExecutionPolicy) -> _Seat:
        key = self._seat_key(tenant, w, policy)
        with self._lock:
            free = self._seats.get(key)
            if free:
                self.telemetry.inc("service.seats.reused")
                return free.pop()
            seat_id = next(self._seat_ids)
        self.telemetry.inc("service.seats.created")
        recorder = self.telemetry.scoped(
            f"service.tenant.{tenant}.seat.{seat_id}")
        return _Seat(w, policy, recorder)

    def _checkin_seat(self, tenant: str, w: Workload,
                      policy: ExecutionPolicy, seat: _Seat) -> None:
        key = self._seat_key(tenant, w, policy)
        with self._lock:
            if self._closed:
                seat.close()
                return
            self._seats.setdefault(key, []).append(seat)

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
        """Drain queued jobs, stop workers, free seats and segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._drr.close()
        for t in self._threads:
            t.join(timeout)
        with self._lock:
            seats = [s for free in self._seats.values() for s in free]
            self._seats.clear()
        for seat in seats:
            seat.close()
        self.store.close()

    def __enter__(self) -> "AnalyticsService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
