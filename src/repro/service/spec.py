"""Job specifications, handles, quotas, and structured admission errors.

A :class:`JobSpec` names one analytics job a tenant wants executed: a
workload from the conformance registry, the resident sim step it reads,
and the :class:`~repro.core.policy.ExecutionPolicy` it runs under.  The
service answers a submission with a :class:`JobHandle` — a future-like
object the tenant waits on — or raises a structured
:class:`AdmissionError` subclass naming the tenant, the violated limit,
and the current usage, so a front-end can map rejections onto protocol
errors without parsing messages.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

from ..core.policy import ExecutionPolicy

__all__ = [
    "AdmissionError",
    "BudgetExhaustedError",
    "JobHandle",
    "JobSpec",
    "QueueFullError",
    "QuotaExceededError",
    "SeatLostError",
    "ServiceClosedError",
    "TenantQuota",
]


@dataclass(frozen=True)
class JobSpec:
    """One analytics job: workload × resident step × policy × tenant.

    Parameters
    ----------
    tenant:
        The submitting tenant's id — the admission/quota and telemetry
        key (``service.tenant.<id>.*`` namespaces).
    workload:
        A :mod:`repro.verify.workloads` registry name (``histogram``,
        ``kmeans``, ...) — the analytics application to run.
    step:
        The id of a sim step previously published to the service with
        :meth:`~repro.service.AnalyticsService.register_step`.  All
        jobs naming the same step read one shared resident copy.
    policy:
        The run's :class:`~repro.core.policy.ExecutionPolicy`, a policy
        fingerprint string, or ``None`` for the workload's canonical
        shape (serial engine, registry chunk/iteration counts).  The
        policy fingerprint doubles as the admission cache key.
    cost_hint:
        Optional dispatch cost override for deficit-round-robin
        accounting; defaults to the step's element count.
    tag:
        Free-form client correlation tag (carried, never interpreted).
    """

    tenant: str
    workload: str
    step: str
    policy: ExecutionPolicy | str | None = None
    cost_hint: float | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ValueError("JobSpec.tenant must be non-empty")
        if "." in self.tenant:
            # Tenant ids become dotted-telemetry namespace segments.
            raise ValueError(
                f"JobSpec.tenant must not contain '.', got {self.tenant!r}")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits.

    ``max_queued`` bounds the tenant's jobs waiting for dispatch (not
    the running ones); ``max_engine_seconds`` bounds the tenant's total
    *measured* execution time — once the tenant's completed jobs have
    consumed the budget, further submissions are rejected until the
    operator raises it.  ``inf`` disables a limit.
    """

    max_queued: int = 16
    max_engine_seconds: float = math.inf

    def __post_init__(self) -> None:
        if self.max_queued < 1:
            raise ValueError(
                f"max_queued must be >= 1, got {self.max_queued}")
        if not self.max_engine_seconds > 0:
            raise ValueError(
                "max_engine_seconds must be > 0, got "
                f"{self.max_engine_seconds}")


class AdmissionError(RuntimeError):
    """A job submission the service refused, with structured context.

    Attributes
    ----------
    tenant: the submitting tenant.
    kind: machine-readable rejection kind (``queue-full``,
        ``tenant-quota``, ``budget-exhausted``).
    limit / current: the violated bound and the usage at rejection.
    """

    kind = "admission"

    def __init__(self, tenant: str, limit: float, current: float,
                 message: str):
        super().__init__(message)
        self.tenant = tenant
        self.limit = limit
        self.current = current

    def to_dict(self) -> dict:
        """Wire-ready rejection record (what a front-end would return)."""
        return {
            "error": type(self).__name__,
            "kind": self.kind,
            "tenant": self.tenant,
            "limit": self.limit,
            "current": self.current,
            "message": str(self),
        }


class QueueFullError(AdmissionError):
    """The service-wide bounded job queue is at capacity."""

    kind = "queue-full"


class QuotaExceededError(AdmissionError):
    """The tenant already has ``max_queued`` jobs waiting."""

    kind = "tenant-quota"


class BudgetExhaustedError(AdmissionError):
    """The tenant's engine-seconds budget is spent."""

    kind = "budget-exhausted"


class SeatLostError(RuntimeError):
    """The seat process running a job died before it replied.

    Only the job in flight fails: the service replaces the seat and the
    next job runs on the new one.  ``exitcode`` is the dead process's
    (negative: the signal that killed it).
    """

    def __init__(self, job_id: int, tenant: str, workload: str,
                 exitcode: int | None):
        super().__init__(
            f"job {job_id} ({workload} for tenant {tenant!r}) lost: its "
            f"seat process exited with code {exitcode}")
        self.job_id = job_id
        self.tenant = tenant
        self.workload = workload
        self.exitcode = exitcode


class ServiceClosedError(RuntimeError):
    """The service closed before it started, with the job still queued:
    no seat ever ran it, and its step lease is released."""

    def __init__(self, job_id: int, tenant: str, workload: str):
        super().__init__(
            f"job {job_id} ({workload} for tenant {tenant!r}) never ran: the "
            "service was closed before it started")
        self.job_id = job_id
        self.tenant = tenant
        self.workload = workload


#: Job lifecycle states (``REJECTED`` never reaches a handle — admission
#: raises instead — but appears in telemetry counters).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


@dataclass
class JobHandle:
    """A submitted job's future: status, result, error, accounting.

    Returned by :meth:`~repro.service.AnalyticsService.submit`; thread
    safe.  ``result()`` blocks until the job finishes and either
    returns the extracted name→array dict or re-raises the job's
    failure.
    """

    job_id: int
    spec: JobSpec
    status: str = QUEUED
    #: Global dispatch sequence number (order the DRR scheduler released
    #: the job to a seat), ``None`` until dispatched.
    dispatch_index: int | None = None
    #: Wall-clock seconds the seat spent on the job, charged to the
    #: tenant budget.
    engine_seconds: float = 0.0
    #: The job's ``run.*`` counters, captured at completion.
    counters: dict[str, int] = field(default_factory=dict)
    error: BaseException | None = None
    _result: Any = None
    _done: threading.Event = field(default_factory=threading.Event)
    #: The job's step lease, held by the service from admission to the
    #: job's end.
    _lease: Any = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; False on timeout."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> Any:
        """The job's extracted result dict (blocks; re-raises failures)."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} ({self.spec.workload} for tenant "
                f"{self.spec.tenant!r}) not finished within {timeout}s")
        if self.error is not None:
            raise self.error
        return self._result

    # -- service-side transitions (not part of the client API) ---------
    def _mark_running(self) -> None:
        self.status = RUNNING

    def _finish(self, result: Any, counters: dict[str, int],
                seconds: float) -> None:
        self._result = result
        self.counters = counters
        self.engine_seconds = seconds
        self.status = DONE
        self._done.set()

    def _fail(self, error: BaseException, seconds: float = 0.0) -> None:
        self.error = error
        self.engine_seconds = seconds
        self.status = FAILED
        self._done.set()
