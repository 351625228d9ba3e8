"""Multi-tenant job service over the resident in-situ data plane.

``AnalyticsService`` is the front-end ROADMAP item 1 asks for: many
tenants submit :class:`JobSpec` s; one deficit-round-robin queue admits
them (queue bound, per-tenant quotas, engine budgets) and shares the
service's seat processes fairly; and every job against the same sim step
reads one refcounted resident copy (:class:`SharedStepStore`).  Each job's result
is bit-exact against running it alone — enforced by the conformance
``sharing`` axis and the ``tests/service`` stress suite.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".dispatch": ("DeficitRoundRobin",),
    ".residency": ("SharedStepStore", "StepLease"),
    ".service": ("AnalyticsService", "execute_workload", "job_policy"),
    ".spec": ("AdmissionError", "BudgetExhaustedError", "JobHandle", "JobSpec",
              "QueueFullError", "QuotaExceededError", "SeatLostError", "ServiceClosedError",
              "TenantQuota"),
})

__all__ = [
    "AdmissionError",
    "AnalyticsService",
    "BudgetExhaustedError",
    "DeficitRoundRobin",
    "JobHandle",
    "JobSpec",
    "QueueFullError",
    "QuotaExceededError",
    "SeatLostError",
    "ServiceClosedError",
    "SharedStepStore",
    "StepLease",
    "TenantQuota",
    "execute_workload",
    "job_policy",
]
