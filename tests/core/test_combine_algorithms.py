"""Gather vs tree global-combination algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import CountObj, Histogram, reference_histogram
from repro.comm import TrafficProfiler, spmd_launch
from repro.core import CombinePolicy, ExecutionPolicy, KeyedMap, global_combine


def merge_counts(red, com):
    com.count += red.count
    return com


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("ranks", [2, 3, 5, 8])
    def test_tree_equals_gather(self, ranks):
        def body(comm, algo):
            local = KeyedMap({comm.rank: CountObj(comm.rank + 1),
                              100: CountObj(2)})
            merged = global_combine(comm, local, merge_counts,
                                    combine=CombinePolicy(algorithm=algo))
            return {k: v.count for k, v in merged.sorted_items()}

        gather = spmd_launch(ranks, body, args_per_rank=[("gather",)] * ranks,
                             timeout=30)
        tree = spmd_launch(ranks, body, args_per_rank=[("tree",)] * ranks,
                           timeout=30)
        assert gather == tree
        assert all(r == gather[0] for r in gather)

    def test_unknown_algorithm_rejected(self):
        from repro.comm import SpmdError

        def body(comm):
            return global_combine(comm, KeyedMap(), merge_counts,
                                  combine=CombinePolicy(algorithm="gossip"))

        with pytest.raises(SpmdError):
            spmd_launch(2, body, timeout=20)

    def test_sched_args_validates_algorithm(self):
        with pytest.raises(ValueError, match="combine_algorithm"):
            CombinePolicy(algorithm="gossip")


class TestThroughTheScheduler:
    @pytest.mark.parametrize("algo", ["gather", "tree"])
    def test_histogram_results_identical(self, rng, algo):
        data = rng.normal(size=600)
        expected = reference_histogram(data, -4, 4, 12)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            app = Histogram(
                ExecutionPolicy(combine=CombinePolicy(algorithm=algo)), comm,
                lo=-4, hi=4, num_buckets=12,
            )
            app.run(part)
            return app.counts()

        for counts in spmd_launch(4, body, timeout=30):
            assert np.array_equal(counts, expected)

    def test_tree_uses_point_to_point_not_gather(self):
        prof_gather = TrafficProfiler()
        prof_tree = TrafficProfiler()

        def body(comm, algo):
            local = KeyedMap({0: CountObj(1)})
            global_combine(comm, local, merge_counts,
                           combine=CombinePolicy(algorithm=algo))

        spmd_launch(4, body, args_per_rank=[("gather",)] * 4,
                    profiler=prof_gather, timeout=30)
        spmd_launch(4, body, args_per_rank=[("tree",)] * 4,
                    profiler=prof_tree, timeout=30)
        assert prof_gather.calls_for("gather") == 4
        assert prof_tree.calls_for("gather") == 0
        assert prof_tree.calls_for("send") == 3  # binomial tree edges


@settings(max_examples=20, deadline=None)
@given(
    ranks=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_tree_matches_gather_property(ranks, seed):
    rng = np.random.default_rng(seed)
    per_rank_keys = [
        {int(k): int(v) for k, v in zip(rng.integers(0, 10, 4),
                                        rng.integers(1, 100, 4))}
        for _ in range(ranks)
    ]

    def body(comm, algo):
        local = KeyedMap(
            {k: CountObj(v) for k, v in per_rank_keys[comm.rank].items()}
        )
        merged = global_combine(comm, local, merge_counts,
                                combine=CombinePolicy(algorithm=algo))
        return {k: v.count for k, v in merged.sorted_items()}

    gather = spmd_launch(ranks, body, args_per_rank=[("gather",)] * ranks,
                         timeout=30)
    tree = spmd_launch(ranks, body, args_per_rank=[("tree",)] * ranks,
                       timeout=30)
    assert gather == tree
