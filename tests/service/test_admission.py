"""Admission control, structured rejections, DRR order, tenant telemetry."""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.service import (
    AdmissionError,
    AnalyticsService,
    BudgetExhaustedError,
    DeficitRoundRobin,
    JobHandle,
    JobSpec,
    QueueFullError,
    QuotaExceededError,
    TenantQuota,
)


def _step(elements=64, seed=0):
    return np.random.default_rng(seed).normal(size=elements)


def _service(**kwargs):
    svc = AnalyticsService(workers=1, **kwargs)
    svc.register_step("s", _step())
    return svc


def _spec(tenant="a", workload="histogram", **kw):
    return JobSpec(tenant=tenant, workload=workload, step="s", **kw)


class TestJobSpec:
    def test_tenant_must_be_nonempty(self):
        with pytest.raises(ValueError):
            JobSpec(tenant="", workload="histogram", step="s")

    def test_tenant_must_not_contain_dots(self):
        # Tenant ids become telemetry namespace segments.
        with pytest.raises(ValueError, match="'\\.'"):
            JobSpec(tenant="a.b", workload="histogram", step="s")


class TestAdmission:
    def test_unknown_step_rejected_at_submit(self):
        svc = _service()
        try:
            with pytest.raises(KeyError, match="not resident"):
                svc.submit(JobSpec(tenant="a", workload="histogram",
                                   step="nope"))
        finally:
            svc.close()

    def test_unknown_workload_rejected_at_submit(self):
        svc = _service()
        try:
            with pytest.raises(KeyError):
                svc.submit(_spec(workload="not-a-workload"))
        finally:
            svc.close()

    def test_tenant_queue_quota_is_structured(self):
        svc = _service(default_quota=TenantQuota(max_queued=2))
        try:
            svc.submit(_spec())
            svc.submit(_spec())
            with pytest.raises(QuotaExceededError) as err:
                svc.submit(_spec())
            assert err.value.tenant == "a"
            assert err.value.kind == "tenant-quota"
            assert err.value.limit == 2
            assert err.value.current == 2
            record = err.value.to_dict()
            assert record["error"] == "QuotaExceededError"
            assert record["kind"] == "tenant-quota"
            # Another tenant is unaffected by a's quota.
            svc.submit(_spec(tenant="b"))
        finally:
            svc.close()

    def test_service_queue_bound_is_structured(self):
        svc = _service(max_queue_depth=3,
                       default_quota=TenantQuota(max_queued=10))
        try:
            for tenant in ("a", "b", "c"):
                svc.submit(_spec(tenant=tenant))
            with pytest.raises(QueueFullError) as err:
                svc.submit(_spec(tenant="d"))
            assert err.value.kind == "queue-full"
            assert err.value.limit == 3
        finally:
            svc.close()

    def test_engine_budget_exhaustion(self):
        svc = _service(
            default_quota=TenantQuota(max_engine_seconds=1e-9))
        try:
            handle = svc.submit(_spec())
            svc.start()
            assert handle.result(timeout=30)
            # The first job consumed (far) more than the budget.
            with pytest.raises(BudgetExhaustedError) as err:
                svc.submit(_spec())
            assert err.value.kind == "budget-exhausted"
            assert err.value.current > err.value.limit
        finally:
            svc.close()

    def test_rejections_counted_per_tenant(self):
        svc = _service(default_quota=TenantQuota(max_queued=1))
        try:
            svc.submit(_spec())
            for _ in range(3):
                with pytest.raises(QuotaExceededError):
                    svc.submit(_spec())
            tel = svc.telemetry
            assert tel.counter("service.tenant.a.rejected.tenant-quota") == 3
            assert tel.counter("service.tenant.a.submitted") == 1
            assert svc.telemetry.counter("service.rejected") == 3
        finally:
            svc.close()

    def test_dispatch_frees_quota_slot(self):
        svc = _service(default_quota=TenantQuota(max_queued=1))
        try:
            h = svc.submit(_spec())
            svc.start()
            assert h.wait(timeout=30)
            # The slot was released at dispatch; a new submission fits.
            svc.submit(_spec())
        finally:
            svc.close()

    def test_a_submit_that_races_close_holds_nothing(self):
        # close() marks the service closed, then closes its queue: a submit
        # that passed the mark before close() set it meets the closed queue.
        svc = _service()
        try:
            svc._drr.close()
            with pytest.raises(RuntimeError, match="service is closed"):
                svc.submit(_spec())
            assert svc.store.readers("s") == 0
            assert svc.drain(timeout=0.2)
        finally:
            svc.close()

    def test_concurrent_submits_keep_every_bound(self):
        # 8 threads submit 8 jobs each, spread over 8 tenants, before the
        # service starts: nothing leaves the queue, so its bounds are exact.
        svc = _service(max_queue_depth=16, default_quota=TenantQuota(max_queued=3))
        admitted, rejected = [], []

        def submitter(i):
            for j in range(8):
                try:
                    admitted.append(svc.submit(_spec(tenant=f"t{(i + j) % 8}")))
                except AdmissionError as exc:
                    rejected.append(exc)

        threads = [threading.Thread(target=submitter, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert len(admitted) + len(rejected) == 64
            assert max(Counter(h.spec.tenant for h in admitted).values()) <= 3
            # 8 tenants x 3 slots > 16: the service bound is what fills.
            assert len(admitted) == 16 == len(svc._drr) == svc.store.readers("s")
            assert sorted(h.job_id for h in admitted) == list(range(1, 17))
            tel = svc.telemetry
            assert tel.counter("service.rejected") == len(rejected) == 48
            for (tenant, kind), n in Counter((e.tenant, e.kind) for e in rejected).items():
                assert tel.counter(f"service.tenant.{tenant}.rejected.{kind}") == n
            for k in range(8):
                counts = tel.counters(f"service.tenant.t{k}.")
                assert sum(counts.values()) == 8  # submitted + rejected.<kind>
        finally:
            svc.close()


class TestTenantTelemetry:
    def test_per_tenant_namespaces_do_not_collide(self):
        svc = _service()
        try:
            svc.start()
            t1 = [svc.submit(_spec(tenant="t1", workload=w))
                  for w in ("histogram", "moving_average")]
            t11 = svc.submit(_spec(tenant="t11"))
            assert svc.drain(timeout=30)
            # Sibling prefixes (t1 vs t11): a dot-terminated prefix read
            # holds only its own tenant's names.
            a = svc.telemetry.counters("service.tenant.t1.")
            b = svc.telemetry.counters("service.tenant.t11.")
            assert a and b
            assert not any(name.startswith("service.tenant.t11.") for name in a)
            assert a["service.tenant.t1.jobs_completed"] == 2
            assert b["service.tenant.t11.jobs_completed"] == 1
            # Each job's run.* counters are added under its tenant's prefix.
            for tenant, handles, got in (("t1", t1, a), ("t11", [t11], b)):
                want: dict[str, int] = {}
                for h in handles:
                    assert h.counters and all(k.startswith("run.") for k in h.counters)
                    for name, value in h.counters.items():
                        key = f"service.tenant.{tenant}.{name}"
                        want[key] = want.get(key, 0) + value
                assert {k: v for k, v in got.items() if ".run." in k} == want
        finally:
            svc.close()

    def test_engine_seconds_timer_recorded(self):
        svc = _service()
        try:
            svc.start()
            h = svc.submit(_spec(tenant="z"))
            assert h.wait(timeout=30)
            timer = svc.telemetry.timer("service.tenant.z.engine_seconds")
            assert timer.calls == 1
            assert timer.seconds == pytest.approx(h.engine_seconds)
        finally:
            svc.close()


def _handle(tenant):
    """An unnumbered handle: the queue gives it its job id when it admits it."""
    return JobHandle(job_id=0,
                     spec=JobSpec(tenant=tenant, workload="histogram",
                                  step="s"))


class TestDeficitRoundRobin:
    def test_single_tenant_is_fifo(self):
        drr = DeficitRoundRobin(quantum=10)
        handles = [_handle("a") for _ in range(5)]
        for h in handles:
            drr.push(h, cost=3)
        assert [drr.pop(timeout=0).job_id for _ in range(5)] == [
            h.job_id for h in handles]

    def test_equal_cost_tenants_alternate(self):
        drr = DeficitRoundRobin(quantum=4)
        for i in range(3):
            drr.push(_handle("a"), cost=4)
        for i in range(3):
            drr.push(_handle("b"), cost=4)
        order = [drr.pop(timeout=0).spec.tenant for _ in range(6)]
        assert order == ["a", "b", "a", "b", "a", "b"]

    def test_flood_cannot_starve_other_tenant(self):
        # Tenant a floods 50 unit-cost jobs; b's single job must be
        # served within one quantum's worth of a's jobs + 1.
        drr = DeficitRoundRobin(quantum=4, default_quota=TenantQuota(max_queued=64))
        for i in range(50):
            drr.push(_handle("a"), cost=1)
        drr.push(_handle("b"), cost=1)
        order = [drr.pop(timeout=0).spec.tenant for _ in range(10)]
        assert "b" in order[:5], order

    def test_expensive_job_accumulates_deficit(self):
        # A job costlier than one quantum still runs after enough
        # rotations — no job waits forever.
        drr = DeficitRoundRobin(quantum=2)
        drr.push(_handle("a"), cost=7)
        drr.push(_handle("b"), cost=1)
        got = [drr.pop(timeout=0).job_id for _ in range(2)]
        assert sorted(got) == [1, 2]

    def test_pop_timeout_returns_none(self):
        drr = DeficitRoundRobin()
        assert drr.pop(timeout=0.01) is None

    def test_push_admits_against_the_queues_own_counts(self):
        drr = DeficitRoundRobin(max_queue_depth=3, default_quota=TenantQuota(max_queued=2))
        first = _handle("a")
        drr.push(first, cost=1)
        drr.push(_handle("a"), cost=1)
        with pytest.raises(QuotaExceededError) as err:
            drr.push(_handle("a"), cost=1)
        assert (err.value.tenant, err.value.limit, err.value.current) == ("a", 2, 2)
        drr.push(_handle("b"), cost=1)
        with pytest.raises(QueueFullError) as err:
            drr.push(_handle("c"), cost=1)
        assert (err.value.limit, err.value.current) == (3, 3)
        # A popped job frees its slot; only admitted jobs take an id.
        assert drr.pop(timeout=0) is first
        late = _handle("a")
        drr.push(late, cost=1)
        assert (first.job_id, late.job_id, len(drr)) == (1, 4, 3)

    def test_charged_seconds_exhaust_a_budget(self):
        drr = DeficitRoundRobin()
        drr.set_quota("a", TenantQuota(max_engine_seconds=1.0))
        drr.charge("a", 0.75)
        drr.push(_handle("a"), cost=1)
        drr.charge("a", 0.5)
        with pytest.raises(BudgetExhaustedError) as err:
            drr.push(_handle("a"), cost=1)
        assert (err.value.limit, err.value.current) == (1.0, 1.25)
        drr.push(_handle("b"), cost=1)  # the default quota has no budget

    def test_a_closed_queue_admits_nothing(self):
        drr = DeficitRoundRobin()
        drr.close()
        with pytest.raises(RuntimeError, match="closed"):
            drr.push(_handle("a"), cost=1)
        assert len(drr) == 0

    def test_close_drains_then_returns_none(self):
        drr = DeficitRoundRobin()
        drr.push(_handle("a"), cost=1)
        drr.close()
        assert drr.pop().job_id == 1
        assert drr.pop() is None
