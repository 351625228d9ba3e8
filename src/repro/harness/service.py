"""Multi-tenant service stress harness: ``python -m repro.harness service``.

Drives the :class:`repro.service.AnalyticsService` front-end at growing
tenant counts over one shared resident sim step and measures the three
claims the service makes:

* **throughput** — completed jobs per second as tenants grow (the
  admission/dispatch overhead stays small relative to kernels);
* **fairness** — Jain's index over the elements each tenant had
  dispatched while every tenant was still backlogged, at the largest
  tenant count.  Tenants submit their whole batch one after another,
  so first-come-first-served would score 0.5; deficit round robin keeps
  it at 1.0 (the CI gate requires >= ``--min-fairness``, default 0.8);
* **shared residency** — every tier runs against exactly one resident
  shm segment regardless of tenant count, and the hit rate
  (attaches / (attaches + copies)) approaches 1 as tenants grow.

Every job's result is additionally verified bit-exact against a solo
run of the same workload on the same data (the service oracle), so the
benchmark doubles as a correctness stress.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ..service import AnalyticsService, JobSpec, execute_workload, job_policy
from ..verify.workloads import get_workload
from .reporting import format_seconds, print_table

SEED = 2015
#: chunk_size-1 workloads that can all share one generic N(0,1) step.
MIXED_WORKLOADS = ("histogram", "minmax", "grid_aggregation",
                   "moving_average")
DRAIN_TIMEOUT = 300.0


def fairness_index(values: list[float]) -> float:
    """Jain's fairness index: (Σx)² / (n·Σx²) — 1.0 is perfectly fair."""
    if not values:
        return 1.0
    arr = np.asarray(values, dtype=np.float64)
    denom = len(arr) * float(np.sum(arr * arr))
    if denom == 0.0:
        return 1.0
    return float(np.sum(arr)) ** 2 / denom


def backlogged_shares(svc: AnalyticsService, handles: list) -> list[float]:
    """Per-tenant elements dispatched in the first half of the dispatch
    order — while the tenants still have jobs queued, which is where
    deficit round robin promises equal service.  (Once every queue has
    drained the totals are equal under any discipline, and per-tenant
    engine *seconds* mostly measure which seat process shared a core.)"""
    half = len(handles) // 2
    shares = {h.spec.tenant: 0.0 for h in handles}
    for h in handles:
        if h.dispatch_index <= half:
            shares[h.spec.tenant] += svc.step_elements(h.spec.step)
    return list(shares.values())


def _solo_oracles(data: np.ndarray) -> dict[str, tuple[dict, dict]]:
    """One solo (result, run.* counters) per mixed workload."""
    oracles = {}
    for name in MIXED_WORKLOADS:
        w = get_workload(name)
        result, counters = execute_workload(w, job_policy(w, None, data),
                                            data)
        oracles[name] = (result, {k: v for k, v in counters.items()
                                  if k.startswith("run.")})
    return oracles


def _bit_exact(oracle: tuple[dict, dict], result: dict,
               counters: dict) -> bool:
    solo_result, solo_run = oracle
    if set(solo_result) != set(result):
        return False
    for name in solo_result:
        e, a = np.asarray(solo_result[name]), np.asarray(result[name])
        if e.shape != a.shape or e.dtype != a.dtype:
            return False
        if not np.array_equal(e, a, equal_nan=np.issubdtype(
                e.dtype, np.floating)):
            return False
    return solo_run == {k: v for k, v in counters.items()
                        if k.startswith("run.")}


def _run_tier(tenants: int, jobs_per_tenant: int, data: np.ndarray,
              workers: int, oracles: dict) -> dict:
    svc = AnalyticsService(
        workers=workers,
        max_queue_depth=tenants * jobs_per_tenant + 8,
        quantum=float(data.size),
    )
    svc.register_step("step0", data)
    handles = []
    try:
        # Queue everything first, then start: throughput measures the
        # dispatch+execute pipeline, not the submission loop, and the
        # dispatch order is the dispatcher's alone.  Tenant-major, so
        # only a fair dispatcher interleaves the tenants.
        for t in range(tenants):
            for j in range(jobs_per_tenant):
                workload = MIXED_WORKLOADS[(t + j) % len(MIXED_WORKLOADS)]
                handles.append(svc.submit(JobSpec(
                    tenant=f"t{t}", workload=workload, step="step0")))
        t0 = time.perf_counter()
        svc.start()
        if not svc.drain(timeout=DRAIN_TIMEOUT):
            raise RuntimeError(
                f"tier tenants={tenants} did not drain in {DRAIN_TIMEOUT}s")
        wall = time.perf_counter() - t0

        exact = sum(
            _bit_exact(oracles[h.spec.workload], h.result(), h.counters)
            for h in handles)
        per_tenant_seconds = [
            svc.telemetry.timer(f"service.tenant.t{t}.engine_seconds").seconds
            for t in range(tenants)]
        snap = svc.telemetry.snapshot()
        return {
            "tenants": tenants,
            "jobs": len(handles),
            "wall_seconds": wall,
            "throughput_jobs_per_s": len(handles) / wall if wall else 0.0,
            "fairness_index": fairness_index(backlogged_shares(svc, handles)),
            "per_tenant_engine_seconds": per_tenant_seconds,
            "bit_exact_jobs": int(exact),
            "bit_exact_fraction": exact / len(handles),
            "shared_segments": snap["gauges"][
                "engine.residency.shared_segments"],
            "shared_hit_rate": svc.store.hit_rate(),
            "seats_created": snap["counters"].get("service.seats.created", 0),
            "seats_reused": snap["counters"].get("service.seats.reused", 0),
        }
    finally:
        svc.close()


def run(quick: bool = False, *, max_tenants: int | None = None,
        min_fairness: float = 0.8, workers: int = 4) -> dict:
    elements = 2048 if quick else 8192
    jobs_per_tenant = 4 if quick else 8
    tenant_counts = [1, 2, 4] if quick else [1, 2, 4, 8]
    if max_tenants is not None:
        tenant_counts = [t for t in tenant_counts if t <= max_tenants]
        if not tenant_counts or tenant_counts[-1] != max_tenants:
            tenant_counts.append(max_tenants)

    rng = np.random.default_rng(SEED)
    data = np.ascontiguousarray(rng.normal(size=elements))
    oracles = _solo_oracles(data)

    tiers = [_run_tier(t, jobs_per_tenant, data, workers, oracles)
             for t in tenant_counts]
    top = tiers[-1]
    summary = {
        "max_tenants": top["tenants"],
        "fairness_index": top["fairness_index"],
        "shared_hit_rate": top["shared_hit_rate"],
        "bit_exact_fraction": min(t["bit_exact_fraction"] for t in tiers),
        "throughput_jobs_per_s": top["throughput_jobs_per_s"],
    }
    gates = {
        "min_fairness": min_fairness,
        "fairness_ok": top["fairness_index"] >= min_fairness,
        "bit_exact_ok": summary["bit_exact_fraction"] == 1.0,
        "single_segment_ok": all(t["shared_segments"] == 1 for t in tiers),
    }
    gates["ok"] = all(v for k, v in gates.items() if k.endswith("_ok"))
    results = {"tiers": tiers, "summary": summary, "gates": gates,
               "workloads": list(MIXED_WORKLOADS), "elements": elements,
               "workers": workers}

    print_table(
        "Service: throughput / fairness / shared residency vs tenants",
        ["tenants", "jobs", "wall", "jobs/s", "fairness", "hit rate",
         "bit-exact"],
        [[t["tenants"], t["jobs"], format_seconds(t["wall_seconds"]),
          f"{t['throughput_jobs_per_s']:.1f}",
          f"{t['fairness_index']:.3f}", f"{t['shared_hit_rate']:.3f}",
          f"{t['bit_exact_jobs']}/{t['jobs']}"]
         for t in tiers],
    )
    print(f"gates: fairness {top['fairness_index']:.3f} >= {min_fairness} "
          f"-> {gates['fairness_ok']}, bit-exact -> {gates['bit_exact_ok']}, "
          f"one segment/tier -> {gates['single_segment_ok']}")

    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness service",
        description="multi-tenant service stress harness")
    parser.add_argument("--quick", action="store_true",
                        help="smaller steps, fewer jobs and tiers")
    parser.add_argument("--tenants", type=int, default=None,
                        help="cap (and force) the largest tenant tier")
    parser.add_argument("--min-fairness", type=float, default=0.8,
                        help="Jain fairness gate at the largest tier")
    parser.add_argument("--workers", type=int, default=4,
                        help="service seat processes")
    args = parser.parse_args(argv)
    results = run(quick=args.quick, max_tenants=args.tenants,
                  min_fairness=args.min_fairness, workers=args.workers)
    return 0 if results["gates"]["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
