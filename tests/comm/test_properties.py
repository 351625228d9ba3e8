"""Property-based tests: collectives agree with ground truth."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import spmd_launch
from repro.comm.reduce_ops import SUM, ReduceOp

MAX = ReduceOp("max", np.maximum)

# Keep the rank count small: each example spins up real threads.
ranks = st.integers(min_value=1, max_value=4)
values = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=4
)


@settings(max_examples=20, deadline=None)
@given(n=ranks, per_rank=st.lists(values, min_size=4, max_size=4))
def test_allreduce_sum_matches_ground_truth(n, per_rank):
    contributions = [np.array(per_rank[r % len(per_rank)][:1]) for r in range(n)]

    def body(comm):
        return comm.allreduce(contributions[comm.rank])

    expected = SUM.reduce(contributions)
    for result in spmd_launch(n, body, timeout=30):
        assert np.array_equal(result, expected)


@settings(max_examples=20, deadline=None)
@given(n=ranks, seed=st.integers(min_value=0, max_value=2**16))
def test_allgather_preserves_order_and_content(n, seed):
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 100, size=3) for _ in range(n)]

    def body(comm):
        return comm.allgather(payloads[comm.rank])

    for result in spmd_launch(n, body, timeout=30):
        assert len(result) == n
        for r in range(n):
            assert np.array_equal(result[r], payloads[r])


@settings(max_examples=15, deadline=None)
@given(n=ranks, seed=st.integers(min_value=0, max_value=2**16))
def test_reduce_max_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=n)

    def body(comm):
        return comm.allreduce(float(data[comm.rank]), op=MAX)

    expected = float(np.max(data))
    assert spmd_launch(n, body, timeout=30) == [expected] * n


@settings(max_examples=15, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e6, max_value=1e6),
                 min_size=1, max_size=5),
        min_size=1, max_size=4,
    )
)
def test_reduce_op_order_independence_for_max(chunks):
    # MAX is commutative/associative: any grouping gives the same answer.
    flat = [v for chunk in chunks for v in chunk]
    per_chunk = [MAX.reduce(chunk) for chunk in chunks]
    assert MAX.reduce(per_chunk) == MAX.reduce(flat)
