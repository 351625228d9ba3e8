"""Policy fingerprints round-trip over the real configuration space, and
policies given on the ``conform --policy`` path run to the oracle's
result."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPolicy
from repro.harness.conform import main as conform
from repro.verify import (
    Config,
    build_matrix,
    diff_results,
    execute,
    get_workload,
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


def test_run_workload_accepts_policy_axes():
    # The tests/workloads.py helpers drive the same policy path.
    a = run_workload("histogram", engine="thread", num_threads=2)
    b = run_workload("histogram")
    np.testing.assert_array_equal(a["counts"], b["counts"])


#: Workloads run below on the pickle comm wire; the rest run columnar.
PICKLE_WIRE = ("kmeans", "logreg", "moving_median", "savgol")


@pytest.mark.parametrize("name", workload_names())
def test_two_rank_thread_policy_matches_oracle(name, capsys):
    # The thread engine with 2 threads at 2 ranks: a cell the pruned
    # `conform --full` matrix does not reach.
    wire = "pickle" if name in PICKLE_WIRE else "columnar"
    assert conform(["--policy", f"{name}@engine=thread,threads=2,wire={wire}@ranks=2"]) == 0
    assert "1 configs" in capsys.readouterr().out


class TestOracleDiffStillSharp:
    def test_diff_catches_value_divergence(self):
        config = Config(workload="histogram", engine="thread", num_threads=2,
                        wire_format="columnar", ranks=2)
        w = get_workload("histogram")
        info = execute(w, config)
        tampered = {k: v.copy() for k, v in info.result.items()}
        tampered["counts"][0] += 1
        found = diff_results("histogram", config, info.result, tampered)
        assert [m.kind for m in found] == ["value"]
