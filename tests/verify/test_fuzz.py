"""Seeded schedule fuzzing: interleave determinism and replay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import InterleaveSchedule
from repro.core.policy import COMBINE_ALGORITHMS
from repro.telemetry import Recorder
from repro.verify import OracleCache, derive_case, fuzz_schedule, replay, run_fuzz


class TestInterleaveSchedule:
    def test_delay_sequence_is_seed_deterministic(self):
        a = InterleaveSchedule(7, probability=1.0)
        b = InterleaveSchedule(7, probability=1.0)
        seq_a = [a.delay(rank) for rank in (0, 1, 0, 2, 1)]
        seq_b = [b.delay(rank) for rank in (0, 1, 0, 2, 1)]
        assert seq_a == seq_b
        assert all(0.0 < d <= a.max_delay for d in seq_a)

    def test_different_seeds_differ(self):
        a = [InterleaveSchedule(1, probability=1.0).delay(0) for _ in range(1)]
        b = [InterleaveSchedule(2, probability=1.0).delay(0) for _ in range(1)]
        assert a != b

    def test_per_rank_streams_are_independent(self):
        s = InterleaveSchedule(3, probability=1.0)
        r0 = [s.delay(0) for _ in range(4)]
        s2 = InterleaveSchedule(3, probability=1.0)
        # Interleaving calls from another rank must not shift rank 0's
        # stream: each rank advances its own counter.
        r0_interleaved = []
        for _ in range(4):
            s2.delay(1)
            r0_interleaved.append(s2.delay(0))
        assert r0 == r0_interleaved

    def test_reset_rewinds(self):
        s = InterleaveSchedule(5, probability=1.0)
        first = [s.delay(0) for _ in range(3)]
        s.reset()
        assert [s.delay(0) for _ in range(3)] == first

    def test_probability_zero_never_delays(self):
        s = InterleaveSchedule(9, probability=0.0)
        assert all(s.delay(r) == 0.0 for r in range(4))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InterleaveSchedule(0, probability=1.5)
        with pytest.raises(ValueError):
            InterleaveSchedule(0, max_delay=-1.0)

    @settings(max_examples=20, deadline=None)
    @given(parts=st.lists(st.integers(min_value=0, max_value=2**32),
                          min_size=1, max_size=3))
    def test_mix_is_stable_and_bounded(self, parts):
        mixed = InterleaveSchedule._mix(*parts)
        assert mixed == InterleaveSchedule._mix(*parts)
        assert 0 <= mixed < 2**64


class TestDeriveCase:
    def test_case_is_seed_deterministic(self):
        assert derive_case("histogram", 12) == derive_case("histogram", 12)

    def test_config_is_multi_rank(self):
        case = derive_case("histogram", 3, ranks=2)
        assert case.config.ranks == 2
        assert case.config.engine in ("serial", "thread")

    def test_every_seed_builds_a_valid_policy(self):
        algorithms = set()
        for seed in range(64):
            config = derive_case("histogram", seed).config
            config.execution_policy()  # validates every axis
            algorithms.add(config.combine_algorithm)
        assert algorithms == set(COMBINE_ALGORITHMS)

    def test_odd_seeds_carry_a_comm_fault_plan(self):
        assert derive_case("histogram", 3).comm_plan_fingerprint is not None
        assert derive_case("histogram", 4).comm_plan_fingerprint is None

    def test_data_seed_is_fixed_for_oracle_sharing(self):
        a = derive_case("histogram", 1)
        b = derive_case("histogram", 2)
        assert a.config.seed == b.config.seed

    def test_repro_names_the_fuzz_seed(self):
        case = derive_case("minmax", 41)
        assert "--fuzz-seed 41" in case.repro()
        assert "--workload minmax" in case.repro()


class TestFuzzRuns:
    def test_schedules_stay_conformant(self):
        telemetry = Recorder()
        found = run_fuzz("histogram", 4, ranks=2, telemetry=telemetry)
        assert found == [], "\n".join(m.describe() for m in found)
        assert telemetry.counter("verify.fuzz_schedules") == 4

    def test_oracle_cache_shared_across_schedules(self):
        telemetry = Recorder()
        cache = OracleCache(telemetry)
        run_fuzz("minmax", 3, ranks=2, cache=cache, telemetry=telemetry)
        assert telemetry.counter("verify.oracle_runs") == 1
        assert telemetry.counter("verify.oracle_cache_hits") == 2

    def test_replay_reproduces_schedule(self):
        a = fuzz_schedule("histogram", 5, ranks=2)
        b = replay("histogram", 5, ranks=2)
        assert [m.to_dict() for m in a] == [m.to_dict() for m in b]

    def test_interleave_pressure_reaches_comm_layer(self):
        # With probability forced to 1 via a fresh schedule, the spmd
        # run must still conform — and the schedule must have been
        # consulted (its per-rank counters advanced).
        from repro.verify import Config, execute, get_workload

        schedule = InterleaveSchedule(11, probability=1.0, max_delay=0.0005)
        w = get_workload("minmax")
        cfg = Config(workload="minmax", ranks=2)
        info = execute(w, cfg, interleave=schedule)
        assert np.isfinite(info.result["range"]).all()
        assert sum(schedule._calls.values()) > 0
