"""The perfmodel→telemetry→config loop: advisor and mid-run switch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans
from repro.comm import spmd_launch
from repro.core import CombineSwitch, ExecutionPolicy, PolicyAdvisor
from repro.core.autotune import PROCESS_ENGINE_MIN_ELEMENTS
from repro.perfmodel import (
    MULTICORE_CLUSTER,
    combine_crossover_keys,
    model_combine_allreduce,
    model_combine_gather,
)


class TestCombineModels:
    def test_gather_grows_with_keys_and_ranks(self):
        m = MULTICORE_CLUSTER
        assert model_combine_gather(m, 4, 1000) > model_combine_gather(m, 4, 10)
        assert model_combine_gather(m, 8, 100) > model_combine_gather(m, 2, 100)

    def test_allreduce_amortizes_large_maps(self):
        m = MULTICORE_CLUSTER
        # Small maps: gather's per-object cost is negligible, allreduce
        # pays its setup.  Large maps: per-object costs dominate.
        assert model_combine_gather(m, 4, 4) < model_combine_allreduce(m, 4, 4)
        big = 1 << 16
        assert (model_combine_allreduce(m, 4, big)
                < model_combine_gather(m, 4, big))

    def test_crossover_is_consistent_with_models(self):
        m = MULTICORE_CLUSTER
        for ranks in (2, 3, 4, 8):
            k = combine_crossover_keys(m, ranks)
            assert 1 < k < (1 << 20)
            assert (model_combine_allreduce(m, ranks, k)
                    <= model_combine_gather(m, ranks, k))
            assert (model_combine_allreduce(m, ranks, k - 1)
                    > model_combine_gather(m, ranks, k - 1))

    def test_single_rank_never_crosses(self):
        assert combine_crossover_keys(MULTICORE_CLUSTER, 1) == 1 << 20


class TestPolicyAdvisor:
    def test_deterministic(self):
        hints = dict(elements=4096, ranks=4, threads=2, key_estimate=500,
                     schema_mergeable=True, has_batch_path=True)
        a = PolicyAdvisor().advise(**hints)
        b = PolicyAdvisor().advise(**hints)
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_auto_is_the_advisor(self):
        hints = dict(elements=2048, ranks=2, key_estimate=512,
                     schema_mergeable=True)
        assert ExecutionPolicy.auto(**hints) == PolicyAdvisor().advise(**hints)

    def test_engine_choice(self):
        adv = PolicyAdvisor()
        assert adv.advise(elements=10**6, threads=1).engine.backend == "serial"
        assert adv.advise(elements=1000, threads=4).engine.backend == "thread"
        big = PROCESS_ENGINE_MIN_ELEMENTS
        assert adv.advise(elements=big, threads=4).engine.backend == "process"
        # A batch kernel keeps large loops numpy-bound.
        assert adv.advise(elements=big, threads=4,
                          has_batch_path=True).engine.backend == "thread"

    def test_combine_choice_tracks_crossover(self):
        adv = PolicyAdvisor()
        crossover = combine_crossover_keys(MULTICORE_CLUSTER, 2)
        below = adv.advise(ranks=2, key_estimate=crossover - 1,
                           schema_mergeable=True)
        at = adv.advise(ranks=2, key_estimate=crossover,
                        schema_mergeable=True)
        assert below.combine.algorithm == "gather"
        assert at.combine.algorithm == "allreduce"
        # Non-mergeable schemas would fall back anyway — never advised.
        assert adv.advise(ranks=2, key_estimate=crossover * 2,
                          schema_mergeable=False).combine.algorithm == "gather"
        # Single rank has nothing to combine globally.
        assert adv.advise(ranks=1, key_estimate=10**6,
                          schema_mergeable=True).combine.algorithm == "gather"

    def test_overrides_pass_through(self):
        p = PolicyAdvisor().advise(threads=2, copy_input=True, fault="retry")
        assert p.copy_input
        assert p.fault.mode == "retry"

    def test_telemetry_records_advice(self):
        from repro.telemetry import Recorder

        rec = Recorder()
        PolicyAdvisor(telemetry=rec).advise(ranks=2, key_estimate=1000,
                                            schema_mergeable=True)
        counters = rec.counters("policy.")
        assert counters["policy.advice"] == 1
        assert counters["policy.advice.algo.allreduce"] == 1


class TestCombineSwitch:
    def _kmeans_run(self, comm, adaptor):
        rng = np.random.default_rng(7)
        flat = rng.normal(size=600).reshape(-1, 3)
        flat[:300] += 4.0
        data = np.array_split(flat, comm.size)[comm.rank].reshape(-1)
        args = ExecutionPolicy.parse("chunk=3,iters=3").evolve(
            extra_data=flat[:4].copy())
        app = KMeans(args, comm, dims=3)
        app.policy_adaptor = adaptor
        with app:
            app.run(data.copy())
            return (app.centroids(),
                    dict(app.telemetry_snapshot()["counters"]),
                    app.policy.combine.algorithm)

    def test_switch_fires_and_preserves_results(self):
        switches = {}

        def body(comm):
            adaptor = CombineSwitch(crossover_keys=2)
            out = self._kmeans_run(comm, adaptor)
            switches[comm.rank] = list(adaptor.history)
            return out

        results = spmd_launch(2, body)
        baseline = spmd_launch(2, lambda comm: self._kmeans_run(comm, None))
        for (cents, counters, algo), (base_cents, _, base_algo) in zip(
                results, baseline):
            # kmeans has 4 clusters >= crossover 2: flips after iter 0.
            assert algo == "allreduce"
            assert base_algo == "gather"
            assert counters.get("policy.switches") == 1
            assert counters.get("policy.switch.gather_to_allreduce") == 1
            np.testing.assert_array_equal(cents, base_cents)
        # Lockstep: every rank records the identical switch sequence.
        assert switches[0] == switches[1]
        (iteration, keys, src, dst) = switches[0][0]
        assert (iteration, src, dst) == (0, "gather", "allreduce")
        assert keys == 4

    def test_no_switch_below_crossover(self):
        def body(comm):
            adaptor = CombineSwitch(crossover_keys=10**6)
            return self._kmeans_run(comm, adaptor)[2]

        assert spmd_launch(2, body) == ["gather", "gather"]

    def test_single_rank_never_switches(self):
        adaptor = CombineSwitch(crossover_keys=1)
        rng = np.random.default_rng(3)
        app = Histogram(ExecutionPolicy(), None, lo=-4, hi=4, num_buckets=16)
        app.policy_adaptor = adaptor
        with app:
            app.run(rng.normal(size=512))
        assert adaptor.history == []
        assert app.policy.combine.algorithm == "gather"

    def test_replay_is_deterministic(self):
        def body(comm):
            adaptor = CombineSwitch(crossover_keys=2)
            cents, _, _ = self._kmeans_run(comm, adaptor)
            return cents, tuple(adaptor.history)

        first = spmd_launch(2, body)
        second = spmd_launch(2, body)
        for (c1, h1), (c2, h2) in zip(first, second):
            np.testing.assert_array_equal(c1, c2)
            assert h1 == h2
