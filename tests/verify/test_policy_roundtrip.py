"""Policy fingerprints round-trip over the real configuration space, and
every SchedArgs spelling runs bit-identically through the policy path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionPolicy, SchedArgs
from repro.faults import FaultPolicy
from repro.verify import (
    advised_config,
    build_matrix,
    diff_results,
    execute,
    get_workload,
    run_autotune,
    workload_names,
)
from repro.verify.policy_check import autotune_switch_check

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


# Distinct SchedArgs spellings of the same runs, paired with the policy
# spelling that must produce a bit-identical result.
EQUIVALENT_SPELLINGS = [
    ("histogram", dict(num_threads=2, engine="thread"),
     "engine=thread,threads=2"),
    ("histogram", dict(num_threads=2, engine="thread", map_path="scalar"),
     "engine=thread,threads=2,map=scalar"),
    ("minmax", dict(wire_format="columnar", disable_early_emission=True),
     "wire=columnar,hold=1"),
    ("kmeans", dict(chunk_size=3, num_iters=3, block_size=90),
     "chunk=3,iters=3,block=90"),
    ("moving_average", dict(num_threads=3, engine="thread",
                            fault_policy=FaultPolicy.retry()),
     "engine=thread,threads=3,fault=retry"),
]


class TestSchedArgsEquivalence:
    """The facade is *only* a spelling: lowering SchedArgs to a policy
    and running the policy directly yields bit-identical maps."""

    @pytest.mark.parametrize("name,sched_kwargs,policy_text",
                             EQUIVALENT_SPELLINGS)
    def test_spellings_run_bit_identically(self, name, sched_kwargs,
                                           policy_text):
        w = get_workload(name)
        data = w.make_data(seed=77)
        merged = dict(chunk_size=w.chunk_size, num_iters=w.num_iters,
                      extra_data=w.extra(data))
        merged.update(sched_kwargs)
        args = SchedArgs(**merged)
        policy = ExecutionPolicy.parse(policy_text).evolve(
            chunk_size=args.chunk_size, num_iters=args.num_iters,
            extra_data=w.extra(data))
        assert args.policy.evolve(extra_data=None) == \
            policy.evolve(extra_data=None)

        def run(cfg):
            app = w.build(cfg, None)
            with app:
                if w.multi_key:
                    out = np.full(w.output_length(len(data)), np.nan)
                    app.run2(data.copy(), out)
                    return dict(w.extract(app, out))
                app.run(data.copy())
                return dict(w.extract(app, None))

        facade_result = run(args)
        policy_result = run(policy)
        assert set(facade_result) == set(policy_result)
        for key in facade_result:
            np.testing.assert_array_equal(
                facade_result[key], policy_result[key],
                err_msg=f"{name}: SchedArgs vs policy diverged on {key!r}")

    def test_run_workload_accepts_policy_axes(self):
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

    def test_switch_run_matches_oracle(self):
        mismatches = autotune_switch_check()
        assert not mismatches, "\n".join(m.describe() for m in mismatches)

    def test_switch_check_detects_non_firing(self):
        with pytest.raises(ValueError, match="iterative workload"):
            autotune_switch_check(workload="histogram")


class TestOracleDiffStillSharp:
    def test_diff_catches_value_divergence(self):
        config = advised_config("histogram")
        w = get_workload("histogram")
        info = execute(w, config)
        tampered = {k: v.copy() for k, v in info.result.items()}
        tampered["counts"][0] += 1
        found = diff_results("histogram", config, info.result, tampered)
        assert [m.kind for m in found] == ["value"]
