"""Memory-footprint audit: Smart vs mini-Spark on identical workloads.

The paper's Section 5.2 memory claim — Spark holds >90% of a 12 GB node
while Smart's analytics state is ~16 MB — is a statement about *live
analytics state*.  This module measures that quantity for both engines
on the same data: Smart's is the reduction/combination maps (counted
exactly); mini-Spark's is the peak materialized partition plus shuffle
payloads (counted by the engine's own audit hooks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytics import Histogram, KMeans, LogisticRegression
from ..baselines.minispark import (
    MiniSparkContext,
    spark_histogram,
    spark_kmeans,
    spark_logistic_regression,
)
from ..core import EnginePolicy, ExecutionPolicy

# Every audit pins map_path="scalar": Section 5.2's claim is about the
# state the paper's gen_key/accumulate loop holds.
_SCALAR = EnginePolicy(map_path="scalar")

#: Approximate live bytes of one materialized Python pair in a list
#: (tuple header + two boxed ints/floats + list slot).
PAIR_BYTES = 80


@dataclass(frozen=True)
class AuditRow:
    """Footprint comparison for one application on one dataset."""

    app: str
    input_bytes: int
    smart_state_bytes: int
    spark_peak_pair_bytes: int
    spark_serialized_bytes: int

    @property
    def spark_total_bytes(self) -> int:
        return self.spark_peak_pair_bytes + self.spark_serialized_bytes

    @property
    def ratio(self) -> float:
        """How many times larger mini-Spark's live state is than Smart's."""
        return self.spark_total_bytes / max(self.smart_state_bytes, 1)

    @property
    def smart_fraction_of_input(self) -> float:
        return self.smart_state_bytes / self.input_bytes


def audit_histogram(data: np.ndarray, buckets: int = 100) -> AuditRow:
    smart = Histogram(ExecutionPolicy(engine=_SCALAR), lo=-4, hi=4, num_buckets=buckets)
    smart.run(data)
    with MiniSparkContext(1) as ctx:
        spark_histogram(ctx, data, -4, 4, buckets)
        return AuditRow(
            app="histogram",
            input_bytes=data.nbytes,
            smart_state_bytes=smart.telemetry_snapshot()["counters"]["run.state_nbytes"],
            spark_peak_pair_bytes=PAIR_BYTES * ctx.peak_partition_elements,
            spark_serialized_bytes=ctx.serializer.bytes_serialized,
        )


def audit_kmeans(data: np.ndarray, k: int = 8, dims: int = 8, iters: int = 3) -> AuditRow:
    usable = (data.shape[0] // dims) * dims
    flat = data[:usable]
    init = flat.reshape(-1, dims)[:k].copy()
    smart = KMeans(
        ExecutionPolicy(
            engine=_SCALAR, chunk_size=dims, num_iters=iters, extra_data=init
        ),
        dims=dims,
    )
    smart.run(flat)
    with MiniSparkContext(1) as ctx:
        spark_kmeans(ctx, flat, init, iters)
        return AuditRow(
            app="kmeans",
            input_bytes=flat.nbytes,
            smart_state_bytes=smart.telemetry_snapshot()["counters"]["run.state_nbytes"],
            spark_peak_pair_bytes=PAIR_BYTES * ctx.peak_partition_elements,
            spark_serialized_bytes=ctx.serializer.bytes_serialized,
        )


def audit_logreg(data: np.ndarray, dims: int = 15, iters: int = 3) -> AuditRow:
    row = dims + 1
    usable = (data.shape[0] // row) * row
    flat = data[:usable].copy()
    flat.reshape(-1, row)[:, dims] = flat.reshape(-1, row)[:, dims] > 0
    smart = LogisticRegression(
        ExecutionPolicy(engine=_SCALAR, chunk_size=row, num_iters=iters), dims=dims
    )
    smart.run(flat)
    with MiniSparkContext(1) as ctx:
        spark_logistic_regression(ctx, flat, dims, iters)
        return AuditRow(
            app="logistic_regression",
            input_bytes=flat.nbytes,
            smart_state_bytes=smart.telemetry_snapshot()["counters"]["run.state_nbytes"],
            spark_peak_pair_bytes=PAIR_BYTES * ctx.peak_partition_elements,
            spark_serialized_bytes=ctx.serializer.bytes_serialized,
        )


def audit_all(elements: int = 20_000, seed: int = 13) -> list[AuditRow]:
    """The Section-5.2 footprint comparison across the three applications."""
    data = np.random.default_rng(seed).normal(size=elements)
    return [audit_histogram(data), audit_kmeans(data), audit_logreg(data)]
