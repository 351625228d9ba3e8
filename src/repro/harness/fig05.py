"""Figure 5: Smart vs. Spark (mini-Spark) on LR / k-means / histogram.

The paper's setup (Section 5.2): a sequential emulator outputs normally
distributed doubles; both engines analyze the same stream on one node;
threads vary 1-8.  Parameters: LR 10 iters × 15 dims; k-means k=8, 10
iters, 64 dims; histogram 100 buckets.

What is measured here vs. modeled:

* The engine-vs-engine time ratio is **measured** at one thread on this
  host.  Smart's batch kernel stands in for the paper's compiled C++
  runtime; mini-Spark structurally reproduces Spark's materialize/
  shuffle/serialize pipeline.  (The pure-interpreter scalar path is also
  reported, as the apples-to-apples interpreted comparison.)
* The 1-8 thread curves are **modeled** with Amdahl fractions: Smart
  parallelizes everything but final combination (paper speedup 7.95-7.96
  at 8 threads → f≈0.999); Spark's extra driver/communication threads
  steal a core and its task overhead is serial (paper's flattening at 8
  threads → f≈0.95 plus one stolen core).
* Memory: Smart's audited analytics state vs. mini-Spark's peak
  materialized pairs and serialized bytes (paper: 16 MB vs >90% of
  12 GB).
"""

from __future__ import annotations

import numpy as np

from ..analytics import Histogram, KMeans, LogisticRegression
from ..baselines.minispark import (
    MiniSparkContext,
    spark_histogram,
    spark_kmeans,
    spark_logistic_regression,
)
from ..core import EnginePolicy, ExecutionPolicy
from ..perfmodel.calibrate import best_time
from ..sim import GaussianEmulator
from .reporting import format_bytes, format_ratio, format_seconds, print_table

SMART_PARALLEL_FRACTION = 0.999
SPARK_PARALLEL_FRACTION = 0.95
SPARK_STOLEN_CORES = 0.8  # driver + shuffle service threads at 8 workers


def _amdahl(threads: float, fraction: float) -> float:
    return 1.0 / ((1.0 - fraction) + fraction / max(threads, 1e-9))


def run(elements: int = 60_000, threads: tuple[int, ...] = (1, 2, 4, 8)) -> dict:
    emulator = GaussianEmulator(elements, seed=123)
    stream = emulator.advance().copy()
    results: dict[str, dict] = {}

    # ---------------- histogram (100 buckets) ----------------
    smart_hist = Histogram(ExecutionPolicy(), lo=-4.0, hi=4.0, num_buckets=100)
    t_smart = best_time(lambda: (smart_hist.reset(), smart_hist.run(stream)), 1)
    scalar_policy = ExecutionPolicy(engine=EnginePolicy(map_path="scalar"))
    smart_scalar = Histogram(scalar_policy, lo=-4.0, hi=4.0, num_buckets=100)
    t_scalar = best_time(lambda: (smart_scalar.reset(), smart_scalar.run(stream)), 1)
    with MiniSparkContext(1) as ctx:
        t_spark = best_time(lambda: spark_histogram(ctx, stream, -4.0, 4.0, 100), 1)
        spark_mem = ctx.serializer.bytes_serialized + 80 * ctx.peak_partition_elements
    results["histogram"] = dict(
        smart=t_smart, smart_scalar=t_scalar, spark=t_spark,
        smart_mem=float(smart_hist.current_state_nbytes()), spark_mem=float(spark_mem),
    )

    # ---------------- k-means (k=8, 10 iters, 64 dims) ----------------
    dims, k, iters = 64, 8, 10
    n_points = max(elements // dims, 256)
    rng = np.random.default_rng(5)
    points = rng.normal(size=(n_points, dims))
    flat = points.reshape(-1)
    init = points[:k].copy()
    km = KMeans(
        ExecutionPolicy(chunk_size=dims, num_iters=iters, extra_data=init),
        dims=dims,
    )
    t_smart = best_time(lambda: (km.reset(), km.run(flat)), 1)
    with MiniSparkContext(1) as ctx:
        t_spark = best_time(lambda: spark_kmeans(ctx, flat, init, iters), 1)
        spark_mem = ctx.serializer.bytes_serialized + 80 * ctx.peak_partition_elements
    results["kmeans"] = dict(
        smart=t_smart, smart_scalar=None, spark=t_spark,
        smart_mem=float(km.current_state_nbytes()), spark_mem=float(spark_mem),
    )

    # ---------------- logistic regression (10 iters, 15 dims) -------------
    dims, iters = 15, 10
    n_samples = max(elements // (dims + 1), 256)
    X = rng.normal(size=(n_samples, dims))
    y = (rng.random(n_samples) < 0.5).astype(np.float64)
    flat = np.concatenate([X, y[:, None]], axis=1).reshape(-1)
    lr = LogisticRegression(
        ExecutionPolicy(chunk_size=dims + 1, num_iters=iters), dims=dims
    )
    t_smart = best_time(lambda: (lr.reset(), lr.run(flat)), 1)
    with MiniSparkContext(1) as ctx:
        t_spark = best_time(lambda: spark_logistic_regression(ctx, flat, dims, iters), 1)
        spark_mem = ctx.serializer.bytes_serialized + 80 * ctx.peak_partition_elements
    results["logistic_regression"] = dict(
        smart=t_smart, smart_scalar=None, spark=t_spark,
        smart_mem=float(lr.current_state_nbytes()), spark_mem=float(spark_mem),
    )

    # ---------------- report ----------------
    rows = []
    for app, r in results.items():
        rows.append(
            [
                app,
                format_seconds(r["smart"]),
                format_seconds(r["spark"]),
                format_ratio(r["spark"] / r["smart"]),
                format_bytes(r["smart_mem"]),
                format_bytes(r["spark_mem"]),
            ]
        )
    print_table(
        f"Figure 5 (measured, 1 thread, {elements} emulator elements): "
        "Smart vs mini-Spark",
        ["app", "Smart", "mini-Spark", "Smart speedup", "Smart state", "Spark footprint"],
        rows,
    )
    if results["histogram"]["smart_scalar"]:
        scalar = results["histogram"]["smart_scalar"]
        print(
            "interpreted-vs-interpreted control (histogram, scalar chunk loop): "
            f"Smart {format_seconds(scalar)} vs mini-Spark "
            f"{format_seconds(results['histogram']['spark'])} "
            f"({format_ratio(results['histogram']['spark'] / scalar)})"
        )

    # Thread-scaling model (the figure's x axis).
    scaling_rows = []
    for t in threads:
        smart_speed = _amdahl(t, SMART_PARALLEL_FRACTION)
        spark_threads = t if t < 8 else t - SPARK_STOLEN_CORES
        spark_speed = _amdahl(spark_threads, SPARK_PARALLEL_FRACTION)
        scaling_rows.append([t, f"{smart_speed:.2f}", f"{spark_speed:.2f}"])
        for app in results:
            results[app].setdefault("smart_threads", {})[t] = results[app]["smart"] / smart_speed
            results[app].setdefault("spark_threads", {})[t] = results[app]["spark"] / spark_speed
    print_table(
        "Figure 5 thread-speedup model (Amdahl; paper measures 7.95/7.71/7.96 "
        "for Smart at 8 threads, Spark flattens)",
        ["threads", "Smart speedup", "Spark speedup"],
        scaling_rows,
    )
    return results
