"""Ablation benchmarks for Smart's design choices (DESIGN.md section 4).

Each class isolates one knob of the runtime and benchmarks its settings
on identical workloads, quantifying the design decisions the paper makes
qualitatively: in-place reduction vs materialized pairs, chunk/block
granularity, the batch kernel, seeded reduction maps, serialized
global combination, and in-transit vs hybrid placement.
"""

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, make_blobs
from repro.baselines.minispark import Serializer, shuffle_read, shuffle_write
from repro.comm import spmd_launch
from repro.core import (
    CircularBuffer,
    EnginePolicy,
    ExecutionPolicy,
    InTransitDriver,
    KeyedMap,
    split_staging_comm,
)
from repro.core.serialization import deserialize_map, serialize_map
from repro.sim import GaussianEmulator

DATA = np.random.default_rng(500).normal(size=50_000)


class TestChunkSizeAblation:
    """Chunk size = unit-processing granularity.  Larger chunks amortize
    the per-chunk dispatch of the scalar path (the paper sets it to the
    feature-vector length; this shows why not smaller)."""

    @pytest.mark.parametrize("chunk_size", [1, 4, 16])
    def test_bench_scalar_grid_aggregation(self, benchmark, chunk_size):
        from repro.analytics import GridAggregation

        data = DATA[:8000]

        class ChunkMean(GridAggregation):
            # Aggregate whole chunks (positions chunk-aligned) so varying
            # chunk_size preserves semantics while changing dispatch count.
            def accumulate(self, chunk, data, red_obj, key):
                from repro.analytics.objects import SumCountObj

                if red_obj is None:
                    red_obj = SumCountObj()
                red_obj.total += float(data[chunk.slice].sum())
                red_obj.count += chunk.size
                return red_obj

        app = ChunkMean(ExecutionPolicy(chunk_size=chunk_size), grid_size=1000)
        benchmark(lambda: (app.reset(), app.run(data)))


class TestBlockSizeAblation:
    """Block streaming bounds transient state; the throughput cost of
    small blocks is the price of that bound."""

    @pytest.mark.parametrize("block_size", [256, 4096, None])
    def test_bench_histogram_blocks(self, benchmark, block_size):
        app = Histogram(
            ExecutionPolicy(block_size=block_size),
            lo=-4, hi=4, num_buckets=64,
        )
        benchmark(lambda: (app.reset(), app.run(DATA)))


class TestMapPathAblation:
    """The compiled-equivalent batch kernel vs the paper-faithful chunk loop."""

    def test_bench_scalar_path(self, benchmark):
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(map_path="scalar")),
            lo=-4, hi=4, num_buckets=64,
        )
        data = DATA[:5000]
        benchmark(lambda: (app.reset(), app.run(data)))

    def test_bench_batch_path(self, benchmark):
        app = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=64)
        data = DATA[:5000]
        benchmark(lambda: (app.reset(), app.run(data)))


class TestReductionVsShuffleAblation:
    """The core design decision: in-place reduction objects vs emitting
    key-value pairs and grouping (Section 2.3.3).

    At interpreter granularity the two loops cost similar *time* — the
    decisive differences are memory (the emit path materializes one pair
    per element before any grouping; the in-place path holds one object
    per key) and that only the in-place path admits the compiled
    batch kernel (see TestMapPathAblation: ~70x)."""

    def test_bench_in_place_reduction(self, benchmark):
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(map_path="scalar")),
            lo=-4, hi=4, num_buckets=64,
        )
        data = DATA[:5000]
        benchmark(lambda: (app.reset(), app.run(data)))

    def test_bench_emit_shuffle_group(self, benchmark):
        data = DATA[:5000]
        ser = Serializer()

        def mapreduce_style():
            pairs = [
                (min(max(int((x + 4) / 0.125), 0), 63), 1) for x in data
            ]
            buckets = shuffle_write(pairs, 4, ser)
            grouped = shuffle_read(buckets, ser)
            return {k: sum(v) for k, v in grouped.items()}

        benchmark(mapreduce_style)


class TestSeededMapAblation:
    """Seeding reduction maps (Algorithm 1 line 6) costs one clone per
    thread per iteration; this prices that against an iteration."""

    @pytest.fixture(scope="class")
    def kmeans_workload(self):
        flat, _ = make_blobs(5000, 8, 8, seed=501)
        init = flat.reshape(-1, 8)[:8].copy()
        return flat, init

    @pytest.mark.parametrize("threads", [1, 4, 16])
    def test_bench_seeding_cost(self, benchmark, kmeans_workload, threads):
        flat, init = kmeans_workload
        app = KMeans(
            ExecutionPolicy(
                engine=EnginePolicy(num_threads=threads),
                chunk_size=8,
                num_iters=5,
                extra_data=init,
            ),
            dims=8,
        )
        benchmark(lambda: (app.reset(), app.run(flat)))


class TestSerializationAblation:
    """Global-combination payload cost as the key count grows (the Fig. 6
    overhead source)."""

    @pytest.mark.parametrize("keys", [8, 256, 4096])
    def test_bench_map_round_trip(self, benchmark, keys):
        from repro.analytics import CountObj

        com_map = KeyedMap({k: CountObj(k) for k in range(keys)})
        benchmark(lambda: deserialize_map(serialize_map(com_map)))


class TestBufferCapacityAblation:
    """Space-sharing circular-buffer depth: deeper buffers decouple the
    producer at the cost of step-sized copies held live."""

    @pytest.mark.parametrize("capacity", [1, 2, 8])
    def test_bench_producer_consumer(self, benchmark, capacity):
        payload = np.zeros(4096)

        def run():
            buf = CircularBuffer(capacity)
            for _ in range(32):
                buf.put(payload.copy())
                buf.get()

        benchmark(run)


class TestPlacementAblation:
    """In-transit (raw data shipped) vs hybrid (local maps shipped):
    the byte-volume trade the Section-6 platforms differ on."""

    STEPS = 3

    def _run(self, mode):
        def body(comm):
            driver = InTransitDriver(comm, num_staging=1, mode=mode)
            staging = split_staging_comm(comm, 1)
            if driver.placement.is_staging:
                app = Histogram(
                    ExecutionPolicy(), staging, lo=-4, hi=4, num_buckets=32
                )
                driver.run_staging_side(app)
                return 0
            sim = GaussianEmulator(2000, seed=502 + comm.rank)
            local = (
                Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=32)
                if mode == "hybrid"
                else None
            )
            return driver.run_simulation_side(sim, self.STEPS, local_scheduler=local)

        return spmd_launch(3, body, timeout=60)

    def test_bench_in_transit_shipping(self, benchmark):
        shipped = benchmark.pedantic(
            lambda: sum(self._run("in_transit")), rounds=2, iterations=1
        )
        assert shipped == 2 * self.STEPS * 2000 * 8  # raw partitions

    def test_bench_hybrid_shipping(self, benchmark):
        shipped = benchmark.pedantic(
            lambda: sum(self._run("hybrid")), rounds=2, iterations=1
        )
        assert shipped < 2 * self.STEPS * 2000 * 8 / 10  # compact maps
