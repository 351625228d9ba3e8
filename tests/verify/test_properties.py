"""Metamorphic invariants: property checks over seeded data.

Hypothesis drives the data seeds; example counts stay small because
each check runs full scheduler executions.  ``elements`` is shrunk from
the workload defaults so the whole module stays fast.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import Histogram
from repro.telemetry import Recorder
from repro.verify import (
    applicable_properties,
    check_fault_replay,
    check_merge_associativity,
    check_partition_invariance,
    check_permutation_invariance,
    check_residency_idempotence,
    check_workload,
    get_workload,
)
from repro.verify.workloads import WORKLOADS

SEEDS = st.integers(min_value=0, max_value=2**16)


def _assert_clean(mismatches):
    assert not mismatches, "\n".join(m.describe() for m in mismatches)


class LeftNeighbourHistogram(Histogram):
    """Buckets each element by its left neighbour: ``gen_key`` reads one
    element before its chunk, which Table 1's read rule forbids."""

    def gen_key(self, chunk, data, combination_map):
        return self.bucket_of(data[max(chunk.start - 1, 0)])


class TestApplicability:
    def test_histogram_has_every_invariant(self):
        assert applicable_properties("histogram") == (
            "partition", "permutation", "associativity", "residency",
            "fault_replay")

    def test_windowed_workloads_skip_residency_and_fault(self):
        props = applicable_properties("moving_average")
        assert "residency" not in props
        assert "fault_replay" not in props

    def test_inexact_workloads_skip_structural_invariants(self):
        # kmeans float accumulation is grouping-sensitive by design.
        props = applicable_properties("kmeans")
        assert "partition" not in props
        assert "permutation" not in props

    def test_checks_noop_when_not_applicable(self):
        assert check_partition_invariance("kmeans", 0) == []
        assert check_residency_idempotence("moving_average", 0) == []


class TestSeededInvariants:
    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS)
    def test_histogram_partition_invariance(self, seed):
        _assert_clean(check_partition_invariance(
            "histogram", seed, elements=360))

    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS)
    def test_histogram_permutation_invariance(self, seed):
        _assert_clean(check_permutation_invariance(
            "histogram", seed, elements=360))

    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS)
    def test_minmax_merge_associativity(self, seed):
        _assert_clean(check_merge_associativity("minmax", seed, elements=270))

    @settings(max_examples=4, deadline=None)
    @given(seed=SEEDS)
    def test_moving_median_partition_invariance(self, seed):
        # Order statistics over exact multisets: grouping-insensitive.
        _assert_clean(check_partition_invariance(
            "moving_median", seed, elements=120, partitions=(2,)))


class TestRuntimeInvariants:
    def test_repeat_and_rewritten_runs_equal_serial(self):
        _assert_clean(check_residency_idempotence(
            "histogram", 2015, elements=512))

    def test_a_read_across_a_split_edge_is_caught(self, monkeypatch):
        """The serial and thread engines give such a scheduler its
        neighbour's byte; the process engine's worker reads bytes it
        never copied, and the residency check reports the difference."""
        w = dataclasses.replace(
            get_workload("histogram"), name="left_neighbour_histogram",
            factory=lambda args, comm: LeftNeighbourHistogram(
                args, comm, lo=-4.0, hi=4.0, num_buckets=32),
            has_batch_path=False)
        monkeypatch.setitem(WORKLOADS, w.name, w)
        found = check_residency_idempotence(w, 2015, elements=512)
        assert found and all(m.kind.startswith("property:residency:") for m in found)

    def test_fault_replay_is_bit_exact_and_fired(self):
        _assert_clean(check_fault_replay("kmeans", 2015, elements=360))

    def test_check_workload_runs_all_and_counts(self):
        telemetry = Recorder()
        found = check_workload("minmax", 2015, elements=360,
                               telemetry=telemetry)
        _assert_clean(found)
        expected = len(applicable_properties("minmax"))
        assert telemetry.counter("verify.property_checks") == expected

    def test_check_workload_respects_property_selection(self):
        telemetry = Recorder()
        check_workload("histogram", 2015, elements=360,
                       properties=("partition",), telemetry=telemetry)
        assert telemetry.counter("verify.property_checks") == 1

    def test_unknown_property_rejected(self):
        with pytest.raises(KeyError):
            check_workload("histogram", 0, properties=("warp",))

    def test_every_workload_declares_some_invariant(self):
        from repro.verify import workload_names

        for name in workload_names():
            w = get_workload(name)
            # Every workload participates in the matrix; windowed ones
            # must at least be exact under something or be float-window
            # analytics whose invariants are structural-only.
            assert isinstance(applicable_properties(w), tuple)
