"""The ``sharing`` axis: multi-tenant shared residency vs the solo oracle."""

import dataclasses

import numpy as np

from repro.verify import (
    TRANSPARENT_AXES,
    Config,
    axis_values,
    build_matrix,
    run_config,
)
from repro.verify.matrix import is_valid
from repro.verify.oracle import execute
from repro.verify.service_check import SHARED_TENANTS


class TestAxisWiring:
    def test_sharing_is_transparent(self):
        assert "sharing" in TRANSPARENT_AXES
        assert axis_values()["sharing"] == ("solo", "shared")

    def test_oracle_resets_sharing_to_solo(self):
        cfg = Config(workload="histogram", sharing="shared")
        oracle = cfg.oracle_of()
        assert oracle.sharing == "solo"
        # Structure axes survive: shared and solo runs of the same
        # workload/seed diff against the same cached oracle.
        assert oracle.structure_key() == cfg.structure_key()

    def test_fingerprint_round_trips(self):
        cfg = Config(workload="minmax", sharing="shared", num_threads=3,
                     engine="thread")
        assert Config.parse(cfg.fingerprint()) == cfg
        assert "sharing=shared" in cfg.fingerprint()

    def test_shared_requires_single_rank_direct_inproc(self):
        base = dict(workload="histogram", sharing="shared")
        assert is_valid(Config(**base))
        assert not is_valid(Config(**base, ranks=2))
        assert not is_valid(Config(**base, driver="space"))
        assert not is_valid(Config(**base, comm="process"))
        assert not is_valid(Config(**base, fault="engine-kill"))

    def test_smoke_matrix_gates_shared_configs(self):
        head = build_matrix(smoke=True, max_configs=20)
        shared = [c for c in head if c.sharing == "shared"]
        assert len(shared) >= 2, (
            "conform --smoke must exercise the shared-residency path")

    def test_shared_check_multiplexes_tenants(self):
        # The axis must actually prove multi-tenancy, not a lone reader.
        assert SHARED_TENANTS >= 2


class TestSharedExecution:
    def test_shared_run_conforms_to_solo_oracle(self):
        cfg = Config(workload="histogram", sharing="shared")
        mismatches = run_config(cfg)
        assert mismatches == [], [m.describe() for m in mismatches]

    def test_shared_thread_engine_conforms(self):
        cfg = Config(workload="moving_average", sharing="shared",
                     engine="thread", num_threads=3)
        mismatches = run_config(cfg)
        assert mismatches == [], [m.describe() for m in mismatches]

    def test_shared_runinfo_matches_solo_execute(self):
        shared_cfg = Config(workload="minmax", sharing="shared")
        solo = execute("minmax", dataclasses.replace(shared_cfg, sharing="solo"))
        shared = execute("minmax", shared_cfg)
        assert set(shared.result) == set(solo.result)
        for name in solo.result:
            expected = np.asarray(solo.result[name])
            actual = np.asarray(shared.result[name])
            equal_nan = bool(np.issubdtype(expected.dtype, np.floating))
            assert np.array_equal(expected, actual, equal_nan=equal_nan), name
        # The agreed counters come from one tenant's job — identical
        # run.* stats to the solo run.
        for stat in ("run.chunks_processed", "run.accumulate_calls"):
            assert shared.counters.get(stat) == solo.counters.get(stat)
