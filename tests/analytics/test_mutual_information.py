"""Mutual information application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    MutualInformation,
    mutual_information_from_counts,
    reference_mutual_information,
)
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


def build(bins=16, kernel=False, comm=None):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    return MutualInformation(
        ExecutionPolicy(
            engine=EnginePolicy(map_path="auto" if kernel else "scalar"), chunk_size=2
        ),
        comm,
        x_range=(-4, 4), y_range=(-4, 4), bins=bins,
    )


def correlated_pairs(rng, n, rho=0.8):
    x = rng.normal(size=n)
    y = rho * x + np.sqrt(1 - rho**2) * rng.normal(size=n)
    return np.column_stack([x, y]).reshape(-1)


class TestCorrectness:
    def test_matches_reference(self, rng):
        xy = correlated_pairs(rng, 2000)
        app = build()
        app.run(xy)
        assert app.mutual_information() == pytest.approx(
            reference_mutual_information(xy, (-4, 4), (-4, 4), 16), abs=1e-12
        )

    def test_vectorized_equals_scalar(self, rng):
        xy = correlated_pairs(rng, 1500)
        scalar, vector = build(), build(kernel=True)
        scalar.run(xy)
        vector.run(xy)
        assert np.array_equal(scalar.joint_counts(), vector.joint_counts())

    def test_independent_variables_have_near_zero_mi(self, rng):
        xy = np.column_stack([rng.normal(size=20000), rng.normal(size=20000)]).reshape(-1)
        app = build(bins=8)
        app.run(xy)
        assert app.mutual_information() < 0.05

    def test_identical_variables_have_high_mi(self, rng):
        x = rng.normal(size=5000)
        xy = np.column_stack([x, x]).reshape(-1)
        app = build(bins=8)
        app.run(xy)
        # MI(X;X) = H(X) which for 8 near-uniform buckets approaches ln(8).
        assert app.mutual_information() > 1.0

    def test_correlation_increases_mi(self, rng):
        weak = build(bins=12)
        strong = build(bins=12)
        weak.run(correlated_pairs(rng, 8000, rho=0.2))
        strong.run(correlated_pairs(rng, 8000, rho=0.95))
        assert strong.mutual_information() > weak.mutual_information()

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_rank_invariant(self, rng, ranks):
        xy = correlated_pairs(rng, 1200)
        expected = reference_mutual_information(xy, (-4, 4), (-4, 4), 16)

        def body(comm):
            pairs = xy.reshape(-1, 2)
            part = np.array_split(pairs, comm.size)[comm.rank].reshape(-1)
            app = build(comm=comm)
            app.run(part)
            return app.mutual_information()

        for mi in spmd_launch(ranks, body, timeout=30):
            assert mi == pytest.approx(expected, abs=1e-12)


class TestValidation:
    def test_chunk_size_must_be_two(self):
        with pytest.raises(ValueError, match="chunk_size"):
            MutualInformation(
                ExecutionPolicy(chunk_size=1), x_range=(0, 1), y_range=(0, 1), bins=4
            )

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            MutualInformation(
                ExecutionPolicy(chunk_size=2), x_range=(1, 1), y_range=(0, 1), bins=4
            )

    def test_empty_joint_rejected(self):
        with pytest.raises(ValueError):
            mutual_information_from_counts(np.zeros((4, 4)))


@settings(max_examples=50, deadline=None)
@given(
    counts=st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=3, max_size=3),
        min_size=3, max_size=3,
    )
)
def test_mi_is_nonnegative_property(counts):
    joint = np.array(counts)
    if joint.sum() == 0:
        return
    assert mutual_information_from_counts(joint) >= -1e-12


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=12))
def test_mi_of_product_distribution_is_zero(n):
    """Rank-one joint counts (independent marginals) give exactly MI = 0."""
    row = np.arange(1, n + 1, dtype=float)
    joint = np.outer(row, row)
    assert mutual_information_from_counts(joint) == pytest.approx(0.0, abs=1e-12)
