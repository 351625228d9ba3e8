"""Scheduler-level properties: results are invariant to every execution
knob (threads, blocks, map path, engine, rank count, combine algorithm).

The paper's core correctness claim is that parallelization details are
transparent to the application; these tests state it as a property and
let hypothesis hunt for configurations that break it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import Histogram, reference_histogram
from repro.comm import spmd_launch
from repro.core import CombinePolicy, EnginePolicy, ExecutionPolicy


def run_config(data, *, ranks=1, threads=1, block=None, map_path="auto",
               engine="serial", algo="gather"):
    args = ExecutionPolicy(
        engine=EnginePolicy(backend=engine, num_threads=threads, map_path=map_path),
        combine=CombinePolicy(algorithm=algo),
        block_size=block,
    )

    def body(comm):
        part = np.array_split(data, comm.size)[comm.rank]
        app = Histogram(args, comm, lo=-4, hi=4, num_buckets=16)
        app.run(part)
        return app.counts()

    return spmd_launch(ranks, body, timeout=30)[0]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=0, max_value=400),
    ranks=st.integers(min_value=1, max_value=3),
    threads=st.integers(min_value=1, max_value=5),
    block=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    map_path=st.sampled_from(["scalar", "batch"]),
    algo=st.sampled_from(["gather", "tree"]),
)
def test_every_execution_knob_is_result_invariant(
    seed, n, ranks, threads, block, map_path, algo
):
    data = np.random.default_rng(seed).normal(size=n)
    expected = reference_histogram(data, -4, 4, 16) if n else np.zeros(16, np.int64)
    counts = run_config(
        data, ranks=ranks, threads=threads, block=block,
        map_path=map_path, algo=algo,
    )
    assert np.array_equal(counts, expected)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    engine=st.sampled_from(["serial", "thread"]),
)
def test_real_thread_pool_with_vectorized_path(seed, engine):
    """The thread pool and the batch kernel compose."""
    data = np.random.default_rng(seed).normal(size=500)
    expected = reference_histogram(data, -4, 4, 16)
    counts = run_config(data, threads=4, engine=engine)
    assert np.array_equal(counts, expected)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    splits=st.integers(min_value=1, max_value=4),
)
def test_time_step_splitting_is_invariant(seed, splits):
    """Feeding the same stream as one run or many runs gives one answer
    (the combination map accumulates across time-steps)."""
    data = np.random.default_rng(seed).normal(size=240)
    expected = reference_histogram(data, -4, 4, 16)

    app = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
    for part in np.array_split(data, splits):
        app.run(part)
    assert np.array_equal(app.counts(), expected)
