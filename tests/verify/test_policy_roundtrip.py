"""Policy fingerprints round-trip over the real configuration space, and
advised policies run to the oracle's result."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.verify import (
    advised_config,
    build_matrix,
    diff_results,
    execute,
    get_workload,
    run_autotune,
    workload_names,
)

from ..workloads import run_workload


class TestFingerprintRoundTrip:
    """``ExecutionPolicy.parse(p.fingerprint()) == p`` across the pruned
    conformance matrix — every config the kit actually runs."""

    @pytest.mark.parametrize("smoke", [True, False])
    def test_matrix_policies_round_trip(self, smoke):
        configs = build_matrix(smoke=smoke)
        assert configs
        seen = set()
        for config in configs:
            policy = config.execution_policy()
            fp = config.policy_fingerprint()
            assert ExecutionPolicy.parse(fp) == policy
            assert fp == policy.fingerprint()
            seen.add(fp)
        # Fingerprints discriminate: distinct runtime configurations
        # (matrix configs may share one when only fault/driver/structure
        # axes differ, but the space must not collapse).
        assert len(seen) > 5

    def test_advised_policies_round_trip(self):
        for name in workload_names():
            config = advised_config(name)
            policy = config.execution_policy()
            assert ExecutionPolicy.parse(policy.fingerprint()) == policy


def test_run_workload_accepts_policy_axes():
    # The tests/workloads.py helpers drive the same policy path.
    a = run_workload("histogram", engine="thread", num_threads=2)
    b = run_workload("histogram")
    np.testing.assert_array_equal(a["counts"], b["counts"])


class TestAutotuneConformance:
    def test_advised_runs_match_oracle(self):
        report = run_autotune(workloads=("histogram", "kmeans",
                                         "moving_average"))
        assert report.ok, "\n".join(m.describe() for m in report.mismatches)
        assert len(report.policies) == 3


class TestOracleDiffStillSharp:
    def test_diff_catches_value_divergence(self):
        config = advised_config("histogram")
        w = get_workload("histogram")
        info = execute(w, config)
        tampered = {k: v.copy() for k, v in info.result.items()}
        tampered["counts"][0] += 1
        found = diff_results("histogram", config, info.result, tampered)
        assert [m.kind for m in found] == ["value"]
