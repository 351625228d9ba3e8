"""The service's one job queue: admission and deficit-round-robin dispatch.

Every submission passes three gates, cheapest first, under the queue's
one lock and against its own counts:

1. **Service queue bound** — at most ``max_queue_depth`` jobs wait in
   the queue (:class:`~repro.service.QueueFullError`).
2. **Per-tenant queue quota** — a tenant's FIFO holds at most
   ``TenantQuota.max_queued`` jobs
   (:class:`~repro.service.QuotaExceededError`).
3. **Engine-seconds budget** — the seconds :meth:`charge`\\ d to the
   tenant must be below ``TenantQuota.max_engine_seconds``
   (:class:`~repro.service.BudgetExhaustedError`).

A job leaves the counts when it is popped, so a dispatched job frees its
slot.  Only an admitted job gets a job id, and ids are consecutive.

Dispatch is classic DRR (Shreedhar & Varghese): each tenant owns a FIFO
queue and a deficit counter.  The dispatcher visits tenants in a fixed
rotation; each visit grants the tenant one ``quantum`` of credit, then
serves jobs from the head of its queue while their *cost* fits the
accumulated deficit.  A tenant flooding the service with cheap jobs
therefore gets at most one quantum of service per rotation — every other
tenant's head job is reached within one full rotation, which is the
bounded-delay property the starvation test asserts.

Cost is the job's step element count (work is linear in elements for
every registry workload), overridable per job via
``JobSpec.cost_hint``.  Jobs costlier than one quantum still run — the
deficit accumulates across rotations until it covers them.
"""

from __future__ import annotations

import threading
from collections import deque

from .spec import (BudgetExhaustedError, JobHandle, QueueFullError, QuotaExceededError,
                   TenantQuota)

__all__ = ["DeficitRoundRobin"]


class DeficitRoundRobin:
    """Thread-safe admitting DRR queue of :class:`JobHandle` s keyed by tenant."""

    def __init__(self, quantum: float = 4096.0, *, max_queue_depth: int = 256,
                 default_quota: TenantQuota | None = None):
        if quantum <= 0:
            raise ValueError(f"quantum must be > 0, got {quantum}")
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.quantum = float(quantum)
        self.max_queue_depth = max_queue_depth
        self.default_quota = default_quota or TenantQuota()
        self._lock = threading.Condition()
        self._quotas: dict[str, TenantQuota] = {}
        self._spent: dict[str, float] = {}
        self._queues: dict[str, deque] = {}
        self._deficits: dict[str, float] = {}
        #: Rotation ring of tenant ids; _cursor indexes the next visit.
        self._ring: list[str] = []
        self._cursor = 0
        #: Whether the tenant under the cursor already received this
        #: visit's quantum (a visit spans several pops while its jobs
        #: keep fitting the deficit; the grant must fire once).
        self._visit_granted = False
        self._size = 0
        self._admitted = 0
        self._released = 0
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return self._size

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        with self._lock:
            self._quotas[tenant] = quota

    def charge(self, tenant: str, seconds: float) -> None:
        """Charge measured execution time against the tenant's budget."""
        with self._lock:
            self._spent[tenant] = self._spent.get(tenant, 0.0) + float(seconds)

    def push(self, handle: JobHandle, cost: float) -> None:
        """Admit a job for its tenant (cost in DRR credit units) and give
        it the next job id; raises an AdmissionError, or RuntimeError once
        closed."""
        tenant = handle.spec.tenant
        with self._lock:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            if self._size >= self.max_queue_depth:
                raise QueueFullError(
                    tenant, self.max_queue_depth, self._size,
                    f"service queue is full ({self._size}/{self.max_queue_depth} jobs queued)")
            quota = self._quotas.get(tenant, self.default_quota)
            queue = self._queues.get(tenant)
            queued = len(queue) if queue is not None else 0
            if queued >= quota.max_queued:
                raise QuotaExceededError(
                    tenant, quota.max_queued, queued,
                    f"tenant {tenant!r} already has {queued} jobs queued "
                    f"(quota {quota.max_queued})")
            spent = self._spent.get(tenant, 0.0)
            if spent >= quota.max_engine_seconds:
                raise BudgetExhaustedError(
                    tenant, quota.max_engine_seconds, spent,
                    f"tenant {tenant!r} spent {spent:.3f}s of its "
                    f"{quota.max_engine_seconds:.3f}s engine budget")
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._deficits[tenant] = 0.0
                self._ring.append(tenant)
            self._admitted += 1
            handle.job_id = self._admitted
            queue.append((handle, float(cost)))
            self._size += 1
            self._lock.notify()

    def pop(self, timeout: float | None = None) -> JobHandle | None:
        """Next job under DRR order; None on close or timeout.

        Visits tenants round-robin from the rotation cursor.  A visited
        tenant with queued work earns one quantum; its head job is served
        if the deficit covers the job's cost, and the *cursor stays on
        the tenant* so subsequent pops keep draining its deficit before
        the rotation moves on (one quantum per rotation, not per pop).
        """
        with self._lock:
            while True:
                if self._size:
                    handle = self._pop_locked()
                    if handle is not None:
                        return handle
                    # Every head job outran its deficit; quanta were
                    # granted this pass, so retry immediately — after
                    # ceil(cost/quantum) passes the head job fits.
                    continue
                if self._closed:
                    return None
                if not self._lock.wait(timeout):
                    return None

    def _advance_locked(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._ring)
        self._visit_granted = False

    def _pop_locked(self) -> JobHandle | None:
        for _ in range(len(self._ring)):
            tenant = self._ring[self._cursor % len(self._ring)]
            queue = self._queues[tenant]
            if not queue:
                # Empty at its turn: forfeit accumulated credit (DRR
                # rule — deficits never bank across idle periods).
                self._deficits[tenant] = 0.0
                self._advance_locked()
                continue
            if not self._visit_granted:
                # One quantum per visit — NOT per pop: a flooding
                # tenant spends its grant, then the rotation moves on.
                self._deficits[tenant] += self.quantum
                self._visit_granted = True
            handle, cost = queue[0]
            if self._deficits[tenant] < cost:
                # Head job outruns the deficit; it accumulates across
                # rotations until it fits — no job waits forever.
                self._advance_locked()
                continue
            queue.popleft()
            self._deficits[tenant] -= cost
            if not queue:
                self._deficits[tenant] = 0.0
                self._advance_locked()
            self._size -= 1
            # Stamped under the lock: with several workers popping, the
            # index is the release order, not the order they woke up in.
            self._released += 1
            handle.dispatch_index = self._released
            return handle
        return None

    def close(self) -> None:
        """Refuse further pushes and wake all poppers; queued jobs still
        drain before None."""
        with self._lock:
            self._closed = True
            self._lock.notify_all()
