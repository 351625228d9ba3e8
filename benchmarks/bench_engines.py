"""Engine throughput: serial vs thread vs process on real analytics.

Times the split-reduction inner loop under each execution backend on
k-means and histogram workloads (the paper's intra-rank OpenMP region).
Numbers are recorded honestly for the current host — on a single-core
machine the pooled engines pay dispatch overhead without any parallel
win, and that is the result you will see.  Pools are created outside the
timed region (they exist once per scheduler lifetime), so the benchmark
measures steady-state dispatch, not pool startup.
"""

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, make_blobs
from repro.core import EnginePolicy, ExecutionPolicy

ENGINES = ("serial", "thread", "process")
THREADS = 4


@pytest.fixture(scope="module")
def scalars() -> np.ndarray:
    return np.random.default_rng(21).normal(size=1_000_000)


@pytest.fixture(scope="module")
def blob_flat() -> np.ndarray:
    flat, _ = make_blobs(250_000, 4, 8, seed=21)
    return flat


@pytest.mark.parametrize("engine", ENGINES)
def test_bench_histogram_batch(benchmark, scalars, engine):
    with Histogram(
        ExecutionPolicy(engine=EnginePolicy(backend=engine, num_threads=THREADS)),
        lo=-4, hi=4, num_buckets=1200,
    ) as app:
        app.run(scalars)  # warm-up creates the pool outside the timed region

        def run():
            app.reset()
            app.run(scalars)

        benchmark(run)
        assert app.telemetry.counter("engine.pools_created") <= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_bench_kmeans_batch(benchmark, blob_flat, engine):
    init = blob_flat.reshape(-1, 4)[:8].copy()
    with KMeans(
        ExecutionPolicy(
            engine=EnginePolicy(backend=engine, num_threads=THREADS),
            chunk_size=4,
            num_iters=2,
            extra_data=init,
        ),
        dims=4,
    ) as app:
        app.run(blob_flat)

        def run():
            app.reset()
            app.run(blob_flat)

        benchmark(run)


@pytest.mark.parametrize("engine", ENGINES)
def test_bench_histogram_scalar_loop(benchmark, scalars, engine):
    """The chunk loop the GIL serializes — the process engine's target.

    Scaled down (the Python loop is ~1000x slower per element than the
    batch kernel).
    """
    data = scalars[:40_000]
    with Histogram(
        ExecutionPolicy(
            engine=EnginePolicy(backend=engine, num_threads=THREADS, map_path="scalar")
        ),
        lo=-4, hi=4, num_buckets=100,
    ) as app:
        app.run(data)

        def run():
            app.reset()
            app.run(data)

        benchmark(run)
