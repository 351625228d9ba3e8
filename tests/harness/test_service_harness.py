"""The service stress harness runs end to end and its gates hold."""

import pytest

from repro.harness import service
from repro.service import JobHandle, JobSpec


class TestServiceHarness:
    def test_quick_run_end_to_end(self):
        results = service.run(quick=True, max_tenants=4)

        assert results["gates"]["ok"]
        assert results["gates"]["fairness_ok"]
        assert results["gates"]["bit_exact_ok"]
        assert results["gates"]["single_segment_ok"]
        # Restated from the gate so a silent harness edit cannot drop it:
        # every job in every tier was bit-exact vs its solo oracle, and
        # exactly one segment was resident per tier.
        assert results["summary"]["bit_exact_fraction"] == 1.0
        for tier in results["tiers"]:
            assert tier["shared_segments"] == 1
            assert tier["bit_exact_jobs"] == tier["jobs"]
        # The largest tier hits the fairness and sharing claims.
        top = results["tiers"][-1]
        assert top["tenants"] == 4
        assert top["fairness_index"] >= 0.8
        # Sharing pays off as tenants grow: more readers per copied step.
        assert top["shared_hit_rate"] >= results["tiers"][0]["shared_hit_rate"]
        assert results["summary"]["fairness_index"] == pytest.approx(
            top["fairness_index"])

    def test_fairness_index_extremes(self):
        assert service.fairness_index([]) == 1.0
        assert service.fairness_index([1.0, 1.0, 1.0, 1.0]) == 1.0
        # One tenant hogging everything: index -> 1/n.
        assert service.fairness_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(
            0.25)

    def test_backlogged_shares_tell_round_robin_from_fifo(self):
        class Steps:
            step_elements = staticmethod(lambda step: 100)

        # 4 tenants x 4 jobs, submitted tenant-major like the harness.
        handles = [JobHandle(job_id=i, spec=JobSpec(
            tenant=f"t{i // 4}", workload="minmax", step="s"))
            for i in range(16)]
        for i, h in enumerate(handles):      # first come, first served
            h.dispatch_index = i + 1
        assert service.fairness_index(
            service.backlogged_shares(Steps, handles)) == pytest.approx(0.5)
        for i, h in enumerate(handles):      # one job per tenant per round
            h.dispatch_index = (i % 4) * 4 + i // 4 + 1
        assert service.backlogged_shares(Steps, handles) == [200.0] * 4
