"""Multi-tenant job service over the resident in-situ data plane.

``AnalyticsService`` is the front-end ROADMAP item 1 asks for: many
tenants submit :class:`JobSpec` s, admission control enforces per-tenant
quotas and engine budgets, a deficit-round-robin dispatcher shares the
service's seat processes fairly, and every job against the same sim
step reads one refcounted resident copy (:class:`SharedStepStore`).  Each job's result
is bit-exact against running it alone — enforced by the conformance
``sharing`` axis and the ``tests/service`` stress suite.
"""

from .admission import AdmissionController
from .dispatch import DeficitRoundRobin
from .residency import SharedStepStore, StepLease
from .service import AnalyticsService, execute_workload, job_policy
from .spec import (
    AdmissionError,
    BudgetExhaustedError,
    JobHandle,
    JobSpec,
    QueueFullError,
    QuotaExceededError,
    SeatLostError,
    TenantQuota,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AnalyticsService",
    "BudgetExhaustedError",
    "DeficitRoundRobin",
    "JobHandle",
    "JobSpec",
    "QueueFullError",
    "QuotaExceededError",
    "SeatLostError",
    "SharedStepStore",
    "StepLease",
    "TenantQuota",
    "execute_workload",
    "job_policy",
]
