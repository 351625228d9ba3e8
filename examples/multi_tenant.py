"""Multi-tenant analytics service over one resident sim step.

One simulation step, many clients: the :mod:`repro.service` front-end
accepts jobs from several tenants, admits them against per-tenant
quotas, dispatches them fairly (deficit round robin), and runs them all
against a *single* shared-memory copy of the step.  This example walks
the whole surface:

* submit mixed workloads from four tenants and read results off
  ``JobHandle``s;
* watch the ``engine.residency.shared_*`` telemetry prove one segment
  served every job;
* trip each admission gate (tenant quota, engine-seconds budget) and
  catch the structured rejection;
* flood from one tenant and observe the victim's bounded dispatch
  delay;
* read per-tenant telemetry by name and compute the Jain fairness index.

Run:  python examples/multi_tenant.py
"""

from __future__ import annotations

import numpy as np

from repro.harness.service import fairness_index
from repro.service import (
    AnalyticsService,
    JobSpec,
    QuotaExceededError,
    TenantQuota,
)

ELEMENTS = 50_000
TENANTS = ("ada", "grace", "edsger", "barbara")
WORKLOADS = ("histogram", "minmax", "grid_aggregation", "moving_average")


def serve_mixed_jobs(data: np.ndarray) -> None:
    print(f"-- {len(TENANTS)} tenants x {len(WORKLOADS)} workloads, "
          f"one {data.nbytes >> 10} KiB resident step")
    with AnalyticsService(workers=4) as svc:
        svc.register_step("sim-step-0", data)
        handles = [
            svc.submit(JobSpec(tenant=tenant, workload=workload,
                               step="sim-step-0"))
            for tenant in TENANTS
            for workload in WORKLOADS
        ]
        svc.drain(timeout=120)

        for handle in handles[:3]:
            result = handle.result(timeout=5)
            fields = ", ".join(sorted(result))
            print(f"   {handle.spec.tenant:>8}/{handle.spec.workload:<16} "
                  f"-> fields [{fields}] "
                  f"(dispatched #{handle.dispatch_index}, "
                  f"{handle.engine_seconds * 1e3:.1f} ms)")
        print(f"   ... and {len(handles) - 3} more")

        # One shm segment no matter how many tenants read the step.
        tel = svc.telemetry
        print(f"   residency: segments="
              f"{tel.gauge('engine.residency.shared_segments')} "
              f"copies={tel.counter('engine.residency.shared_copies')} "
              f"attaches={tel.counter('engine.residency.shared_attaches')} "
              f"hit_rate={svc.store.hit_rate():.3f}")

        # Per-tenant telemetry (service.tenant.<id>.*): engine time
        # charged per tenant.
        seconds = [tel.timer(f"service.tenant.{t}.engine_seconds").seconds
                   for t in TENANTS]
        for tenant, secs in zip(TENANTS, seconds):
            done = tel.counter(f"service.tenant.{tenant}.jobs_completed")
            print(f"   {tenant:>8}: {done} jobs, {secs * 1e3:.1f} ms "
                  "engine time")
        print(f"   Jain index over engine time: "
              f"{fairness_index(seconds):.3f}")


def trip_admission_gates(data: np.ndarray) -> None:
    print("-- admission control: rejections are structured responses")
    svc = AnalyticsService(workers=1,
                           default_quota=TenantQuota(max_queued=2))
    svc.register_step("s", data)
    try:
        for _ in range(2):
            svc.submit(JobSpec(tenant="greedy", workload="minmax", step="s"))
        try:
            svc.submit(JobSpec(tenant="greedy", workload="minmax", step="s"))
        except QuotaExceededError as exc:
            print(f"   third submit rejected: {exc.to_dict()}")
        # Another tenant is unaffected by greedy's quota.
        ok = svc.submit(JobSpec(tenant="frugal", workload="minmax", step="s"))
        svc.start()
        svc.drain(timeout=60)
        print(f"   frugal's job still ran: status={ok.status!r}")
    finally:
        svc.close()


def bounded_delay_under_flood(data: np.ndarray) -> None:
    print("-- fair dispatch: a flood cannot starve another tenant")
    svc = AnalyticsService(workers=1, max_queue_depth=64,
                           default_quota=TenantQuota(max_queued=64),
                           quantum=float(data.size))
    svc.register_step("s", data)
    try:
        for _ in range(30):
            svc.submit(JobSpec(tenant="flooder", workload="minmax", step="s"))
        victim = svc.submit(JobSpec(tenant="victim", workload="minmax",
                                    step="s"))
        svc.start()  # workers start now, so order is purely the scheduler's
        svc.drain(timeout=120)
        print(f"   victim submitted behind 30 flood jobs, dispatched "
              f"#{victim.dispatch_index} (deficit round robin: at most "
              "one rotation behind)")
    finally:
        svc.close()


def main() -> None:
    data = np.random.default_rng(7).normal(size=ELEMENTS)
    serve_mixed_jobs(data)
    trip_admission_gates(data)
    bounded_delay_under_flood(np.ascontiguousarray(data[:4096]))


if __name__ == "__main__":
    main()
