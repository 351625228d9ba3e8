"""The multi-tenant analytics service master and its seat processes.

``AnalyticsService`` multiplexes many tenants' analytics jobs over the
shared in-situ data plane:

* **queue** — submissions pass :class:`AdmissionController` (bounded
  queue, per-tenant quotas, engine-second budgets) and enter a
  :class:`DeficitRoundRobin` dispatcher;
* **seat processes** — the service owns ``workers`` forked processes,
  one duplex pipe each, and one dispatcher thread per process pops jobs
  in DRR order (so no tenant's flood can starve another's head job past
  one quantum rotation) and sends each to its process: jobs run off the
  service's GIL, one core each;
* **shared residency** — every job leases its sim step from the
  refcounted :class:`SharedStepStore` on behalf of its seat process's
  pid: N jobs against one step read one resident copy, which each seat
  process maps once, by name;
* **seats** — inside a seat process, per-(tenant, workload, policy)
  schedulers are kept warm between jobs (``service.seats.created`` vs
  ``service.seats.reused``);
* **telemetry** — each job's reply lands in its tenant's scoped
  namespace (``service.tenant.<id>.*``) of one root :class:`Recorder`.

:func:`execute_workload` and the warm seats run a job through one code
path, :func:`_run_app`, which the conformance solo oracle
(:mod:`repro.verify.service_check`) also runs, so a service run can
never drift from the oracle by construction of the comparison.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing as mp
import threading
import time
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from multiprocessing.util import Finalize

import numpy as np

from ..core import ExecutionPolicy
from ..core.blas import one_blas_thread
from ..core.engine.process import _portable, _untracked_shm
from ..telemetry import Recorder
from ..verify.workloads import Workload, get_workload
from .admission import AdmissionController
from .dispatch import DeficitRoundRobin
from .residency import SharedStepStore
from .spec import AdmissionError, JobHandle, JobSpec, SeatLostError, TenantQuota

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
    *,
    telemetry: Recorder | None = None,
) -> tuple[dict, dict[str, int]]:
    """Build, run once, close: (extracted result, recorded counters).

    The one shared execution path for a service job and its solo
    oracle.  ``telemetry`` (typically a scoped child recorder) rebinds
    the scheduler before the engine exists.  The counters are what the
    recorder counted — not ``telemetry_snapshot()``'s end-of-run
    ``run.state_*`` gauges, which would measure the map object by object.
    """
    w = workload if isinstance(workload, Workload) else get_workload(workload)
    app = w.build(policy, None)
    if telemetry is not None:
        app.use_telemetry(telemetry)
    with app:
        result = _run_app(app, w, data)
        counters = app.telemetry.counters()
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
        counters = self.app.telemetry.counters()
        self.runs += 1
        return result, counters

    def close(self) -> None:
        self.app.close()


# -- the seat process ---------------------------------------------------------


def _step_view(segments: dict, segment: tuple[str, tuple, str]) -> np.ndarray:
    """The step ``segment`` names, mapped on first use and kept: a
    read-only view over the service's shared memory, no copy."""
    name, shape, dtype = segment
    held = segments.get(name)
    if held is None:
        with _untracked_shm():  # the service owns and unlinks it
            shm = shared_memory.SharedMemory(name=name)
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        view.flags.writeable = False
        held = segments[name] = (shm, view)
    return held[1]


def _detach(segments: dict, seats: dict, names) -> None:
    """Unmap step segments the service has evicted.  A warm seat still
    holds the step its last job read, so the seats let go first."""
    for seat in seats.values():
        seat.app.reset()
    for name in names:
        if name not in segments:
            continue  # its job failed before mapping it
        shm = segments.pop(name)[0]  # the view goes with the tuple
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a result still views it
            pass  # unmapped when that view goes


def _serve(segments: dict, seats: dict, tenant: str, workload: str, policy,
           segment: tuple) -> tuple[dict, dict[str, int], float, str | None]:
    """One job, in the seat process: (result, ``run.*`` counters, seconds
    spent, whether a warm seat was ``created`` or ``reused``)."""
    t0 = time.perf_counter()
    data = _step_view(segments, segment)
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
        seat = seats.get(key)
        used = "created" if seat is None else "reused"
        if seat is None:
            seat = seats[key] = _Seat(w, policy, Recorder())
        result, counters = seat.run(data)
    run = {name: value for name, value in counters.items()
           if name.startswith("run.")}
    return result, run, time.perf_counter() - t0, used


def _seat_main(conn, parent_end) -> None:
    """Seat process: run jobs from ``conn`` until told to stop.

    Every message but ``None`` (stop) is ``(evicted segment names, job)``
    and gets exactly one reply: :func:`_serve`'s tuple, or the job's
    exception.  ``segments`` are the step segments mapped here,
    ``seats`` the warm schedulers.
    """
    parent_end.close()  # this fork's copy: open, it would hide the service's death
    one_blas_thread()
    segments: dict[str, tuple] = {}
    seats: dict[tuple, _Seat] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:  # the service is gone
                return
            if message is None:
                return
            evicted, job = message
            if evicted:
                _detach(segments, seats, evicted)
            try:
                reply = _serve(segments, seats, *job)
            except Exception as exc:
                reply = _portable(exc)
            conn.send(reply)
    finally:
        for seat in seats.values():
            seat.close()


#: Seats are forked: a spawned interpreter would add its start-up to the
#: service's, and a fork shares the parent's imported modules.
_FORK = mp.get_context("fork")


class _SeatProcess:
    """One owned seat process, the service's end of its pipe, and the
    names of the step segments it has been sent (and so has mapped)."""

    __slots__ = ("process", "conn", "segments")

    def __init__(self, index: int):
        self.conn, child_conn = _FORK.Pipe()
        # Not daemonic: a job whose policy names engine=process starts
        # worker processes of its own, which a daemonic process may not.
        self.process = _FORK.Process(target=_seat_main, args=(child_conn, self.conn),
                                     name=f"svc-seat-{index}")
        self.process.start()
        child_conn.close()  # the seat's end lives in the seat only
        self.segments: set[str] = set()

    def run(self, message: tuple):
        """Send one job and wait for its reply; ``None`` if the process
        died first (or while replying)."""
        try:
            self.conn.send(message)
        except OSError:
            pass  # already dead: its sentinel says so
        if self.conn not in wait([self.conn, self.process.sentinel]):
            return None
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self, timeout: float | None = None, kill: bool = False) -> None:
        if not kill:
            try:
                self.conn.send(None)
            except OSError:
                pass  # dead, or stopped already
            self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()


def _halt(halting: threading.Event, seats: list[_SeatProcess],
          timeout: float | None) -> None:
    """Stop every seat process; a dispatcher that finds one gone from
    here on leaves it gone."""
    halting.set()
    for seat in seats:
        seat.stop(timeout)


class AnalyticsService:
    """Bounded queue → admission → DRR fair dispatch → seat processes.

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
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth, default_quota=default_quota)
        self.store = SharedStepStore(self.telemetry)
        self._drr = DeficitRoundRobin(quantum=quantum)
        self._workers_wanted = workers
        #: seat process ``i`` and the dispatcher thread that feeds it
        self._seats: list[_SeatProcess] = []
        self._dispatchers: list[threading.Thread] = []
        self._halting = threading.Event()
        self._stop_all: Finalize | None = None
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._outstanding = 0
        self._job_ids = itertools.count(1)
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

    # -- seat processes ----------------------------------------------
    def start(self) -> "AnalyticsService":
        """Fork the seat processes and start their dispatchers (idempotent)."""
        with self._lock:
            if self._dispatchers or self._closed:
                return self
            # Every seat is forked before any dispatcher thread exists.
            self._seats = [_SeatProcess(i) for i in range(self._workers_wanted)]
            # An interpreter exiting with the service open would otherwise
            # wait forever on seats that wait for their next job.
            self._stop_all = Finalize(self, _halt, args=(self._halting, self._seats, 30.0),
                                      exitpriority=10)
            for i in range(self._workers_wanted):
                t = threading.Thread(target=self._dispatch_loop, args=(i,),
                                     name=f"svc-dispatch-{i}", daemon=True)
                self._dispatchers.append(t)
                t.start()
        return self

    def _dispatch_loop(self, index: int) -> None:
        while not self._halting.is_set():
            handle = self._drr.pop()
            if handle is None:
                return
            self._execute(index, handle)

    def _execute(self, index: int, handle: JobHandle) -> None:
        spec = handle.spec
        scope = self.tenant_scope(spec.tenant)
        self.admission.on_dispatch(spec.tenant)
        handle._mark_running()
        scope.inc("dispatched")
        self.telemetry.set_gauge("service.queue_depth",
                                 self.admission.queued())
        t0 = time.perf_counter()
        try:
            result, counters, seconds, seat = self._run_job(index, handle)
        except BaseException as exc:  # noqa: BLE001 - delivered via handle
            seconds = time.perf_counter() - t0
            self.admission.on_complete(spec.tenant, seconds)
            scope.add_time("engine_seconds", seconds)
            scope.inc("jobs_failed")
            self.telemetry.inc("service.failed")
            handle._fail(exc, seconds)
        else:
            self.admission.on_complete(spec.tenant, seconds)
            scope.add_time("engine_seconds", seconds)
            scope.inc("jobs_completed")
            self.telemetry.inc("service.completed")
            if seat is not None:
                self.telemetry.inc(f"service.seats.{seat}")
            # Aggregate the job's run.* stats into the tenant namespace
            # (service.tenant.<id>.run.*) — per-tenant accounting without
            # per-job root-recorder growth.
            scope.merge_counters(counters)
            handle._finish(result, counters, seconds)
        finally:
            self.store.reap_dead_readers()
            with self._lock:
                self._outstanding -= 1
                if self._outstanding == 0:
                    self._idle.notify_all()

    def _run_job(self, index: int, handle: JobHandle) -> tuple:
        """Run one job on seat process ``index``: the job's identity goes
        down the pipe, (result, ``run.*`` counters, seat seconds, seat
        created/reused) comes back."""
        spec = handle.spec
        seat = self._seats[index]
        if not seat.process.is_alive():  # died idle: no job of its own was lost
            self._replace(index)
            seat = self._seats[index]
        with self.store.attach(spec.step, owner_pid=seat.process.pid) as lease:
            resident = self.store.segment_names()
            evicted = [name for name in seat.segments if name not in resident]
            seat.segments.difference_update(evicted)
            seat.segments.add(lease.segment[0])
            reply = seat.run((evicted, (spec.tenant, spec.workload, spec.policy,
                                        lease.segment)))
        if reply is None:
            raise SeatLostError(handle.job_id, spec.tenant, spec.workload,
                                self._replace(index))
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _replace(self, index: int) -> int | None:
        """Reap seat process ``index``, fork a fresh one in its place and
        return the dead one's exit code."""
        dead = self._seats[index]
        dead.stop(kill=True)
        self.telemetry.inc("service.seat_processes_lost")
        if not self._halting.is_set():
            self._seats[index] = _SeatProcess(index)
        return dead.process.exitcode

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
        """Drain queued jobs, stop the seat processes, free segments."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._drr.close()
        for t in self._dispatchers:
            t.join(timeout)
        if self._stop_all is not None:
            self._stop_all()  # at most once: also unregisters the exit hook
        self.store.close()

    def __enter__(self) -> "AnalyticsService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
