"""Wire-format microbenchmarks: pickle vs columnar vs allreduce.

Times the global-combination hot path the paper's Section 5.3 singles
out — serializing the reduction map and merging rank contributions —
under each wire format, on a SumCountObj map large enough (>= 10k keys)
that per-object costs dominate fixed overheads:

* ``pickle`` — the paper-faithful path: one pickle per rank payload,
  per-object Python ``merge()`` calls on the master.
* ``columnar`` — :class:`~repro.core.serialization.PackedMap` payloads,
  ``searchsorted`` key alignment, one merge ufunc per field.
* ``allreduce`` — the short-circuit: identity-padded contiguous records
  reduced elementwise, the shape of the hand-written MPI baseline.

Runs under pytest-benchmark (``pytest benchmarks/bench_serialization.py``)
or standalone, writing ``BENCH_serialization.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serialization.py [--quick]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analytics import SumCountObj
from repro.comm import TrafficProfiler, spmd_launch
from repro.core import KeyedMap, deserialize_map, global_combine, serialize_map

NUM_KEYS = 10_000
RANKS = 4
RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serialization.json"


def merge_sumcount(red_obj, com_obj):
    com_obj.total += red_obj.total
    com_obj.count += red_obj.count
    return com_obj


def make_rank_maps(num_keys: int = NUM_KEYS, ranks: int = RANKS) -> list[KeyedMap]:
    """Per-rank maps with overlapping keys plus a disjoint tail per rank
    (matched keys exercise the merge kernel, fresh keys the insert path)."""
    rng = np.random.default_rng(7)
    maps = []
    for rank in range(ranks):
        m = KeyedMap()
        for key in range(num_keys):
            m[key] = SumCountObj(float(rng.standard_normal()), int(rank + 1))
        for key in range(num_keys + rank * 64, num_keys + rank * 64 + 64):
            m[key] = SumCountObj(1.0, 1)
        maps.append(m)
    return maps


def serialize_and_merge(rank_maps: list[KeyedMap], wire_format: str) -> KeyedMap:
    """The gather master's work: encode every rank map, decode, merge.

    Mirrors ``_combine_gather`` — pickle payloads merge object by
    object, columnar payloads merge through the vectorized kernel — and
    then reads the result, so the columnar side pays for materializing
    its objects once.
    """
    maps = [deserialize_map(serialize_map(m, wire_format)) for m in rank_maps]
    merged = maps[0]
    for rank_map in maps[1:]:
        merged.merge_map(rank_map, merge_sumcount)
    merged.items()
    return merged


def timed(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def combine_on_cluster(algorithm: str, wire_format: str, num_keys: int) -> dict:
    """End-to-end global combination on the SPMD substrate, with the
    per-format wire-byte tallies from the traffic profiler."""
    profiler = TrafficProfiler()

    def body(comm):
        local = KeyedMap()
        for key in range(num_keys):
            local[key] = SumCountObj(float(key % 97), comm.rank + 1)
        merged = global_combine(
            comm, local, merge_sumcount, algorithm=algorithm, wire_format=wire_format
        )
        return len(merged)

    t0 = time.perf_counter()
    sizes = spmd_launch(RANKS, body, profiler=profiler, timeout=60)
    seconds = time.perf_counter() - t0
    assert sizes == [num_keys] * RANKS
    wire_bytes = {
        op: total
        for op, (_count, total) in profiler.snapshot().items()
        if op.startswith("wire.")
    }
    return {"seconds": seconds, "wire_bytes": wire_bytes}


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rank_maps() -> list[KeyedMap]:
    return make_rank_maps()


@pytest.mark.parametrize("wire_format", ["pickle", "columnar"])
def test_bench_serialize_merge(benchmark, rank_maps, wire_format):
    merged = benchmark.pedantic(
        lambda: serialize_and_merge(rank_maps, wire_format), rounds=3, iterations=1
    )
    assert len(merged) == NUM_KEYS + RANKS * 64
    assert merged[0].count == sum(range(1, RANKS + 1))


@pytest.mark.parametrize(
    "algorithm,wire_format",
    [("gather", "pickle"), ("gather", "columnar"), ("allreduce", "columnar")],
)
def test_bench_global_combine(benchmark, algorithm, wire_format):
    benchmark.pedantic(
        lambda: combine_on_cluster(algorithm, wire_format, 2_000),
        rounds=3,
        iterations=1,
    )


# ---------------------------------------------------------------------------
# standalone mode: write BENCH_serialization.json
# ---------------------------------------------------------------------------

def main(quick: bool = False) -> dict:
    repeats = 2 if quick else 5
    rank_maps = make_rank_maps()
    payload_bytes = {
        fmt: len(serialize_map(rank_maps[0], fmt)) for fmt in ("pickle", "columnar")
    }
    t_pickle = timed(lambda: serialize_and_merge(rank_maps, "pickle"), repeats)
    t_columnar = timed(lambda: serialize_and_merge(rank_maps, "columnar"), repeats)
    combine_keys = 2_000 if quick else NUM_KEYS
    results = {
        "num_keys": NUM_KEYS,
        "ranks": RANKS,
        "quick": quick,
        "payload_bytes": payload_bytes,
        "serialize_merge": {
            "pickle_seconds": t_pickle,
            "columnar_seconds": t_columnar,
            "columnar_speedup": t_pickle / t_columnar,
        },
        "global_combine": {
            "num_keys": combine_keys,
            "gather_pickle": combine_on_cluster("gather", "pickle", combine_keys),
            "gather_columnar": combine_on_cluster("gather", "columnar", combine_keys),
            "allreduce_columnar": combine_on_cluster(
                "allreduce", "columnar", combine_keys
            ),
        },
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    speedup = results["serialize_merge"]["columnar_speedup"]
    print(f"serialize+merge ({NUM_KEYS} keys x {RANKS} ranks):")
    print(f"  pickle   {t_pickle * 1e3:8.2f} ms   payload {payload_bytes['pickle']} B")
    print(
        f"  columnar {t_columnar * 1e3:8.2f} ms   payload"
        f" {payload_bytes['columnar']} B   speedup {speedup:.1f}x"
    )
    for name, r in results["global_combine"].items():
        if not isinstance(r, dict):
            continue
        print(f"  {name:20s} {r['seconds'] * 1e3:8.2f} ms   wire {r['wire_bytes']}")
    print(f"wrote {RESULT_PATH}")
    assert speedup > 1.0, "columnar should beat pickle on serialize+merge"
    return results


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
