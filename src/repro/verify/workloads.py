"""Canonical conformance workloads — one per analytic under test.

Every workload fixes a small, deterministic input and an extraction
function that reduces a finished run to plain numpy arrays.  The
conformance machinery (``repro.verify.oracle``) executes the same
workload under a candidate configuration and under the serial/pickle
oracle and demands bit-equality of the extracted arrays.

A workload also declares which *metamorphic* invariants hold exactly
for its reduction (``exact_partition`` / ``exact_permutation`` /
``exact_merge``); the property layer only asserts invariants the
analytic's float grouping actually guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..analytics import (
    GaussianKernelSmoother,
    GridAggregation,
    Histogram,
    KMeans,
    LogisticRegression,
    MinMax,
    MovingAverage,
    MovingMedian,
    MutualInformation,
    SavitzkyGolay,
    TileAggregation3D,
    ValueGridKDE,
    make_blobs,
    make_logreg_samples,
)
from ..core.serialization import pack_map

__all__ = ["Workload", "WORKLOADS", "get_workload", "workload_names"]

KDE_GRID_POINTS = 41


@dataclass(frozen=True)
class Workload:
    """A canonical analytic run the conformance matrix executes.

    ``factory(args, comm)`` builds the Scheduler; ``extract(app, out)``
    reduces the finished run to a name→array dict (the unit of
    comparison).  ``make_extra(data)`` derives the policy's ``extra_data``
    (e.g. initial centroids) from the generated input so candidate and
    oracle always seed identically.
    """

    name: str
    factory: Callable[..., Any]
    extract: Callable[[Any, np.ndarray | None], dict[str, np.ndarray]]
    description: str = ""
    chunk_size: int = 1
    num_iters: int = 1
    multi_key: bool = False
    default_elements: int = 512
    make_extra: Callable[[np.ndarray], Any] | None = None
    out_len: Callable[[int], int] | None = None
    #: Whether the analytic implements a batch kernel
    #: (``make_accumulator`` / ``batch_reduce``) — what ``map_path=auto``
    #: runs, and what enables ``map_path=batch`` for this workload.
    has_batch_path: bool = False
    #: Maximum acceptable ulp distance per output float between the
    #: batch kernel and the scalar loop.  0 demands bit-exactness (the
    #: default); a positive bound declares a known vector-math deviation
    #: (e.g. ``np.exp`` vs ``math.exp`` last-ulp drift accumulated over
    #: the per-key contribution count).
    batch_ulp: int = 0
    steps_ok: bool = False
    exact_partition: bool = False
    exact_permutation: bool = False
    exact_merge: bool = False
    #: Whether the reduction object declares a columnar schema — the
    #: :class:`PolicyAdvisor`'s wire input (``ExecutionPolicy.auto``;
    #: optimistic hints are safe — the runtime falls back collectively).
    schema_mergeable: bool = False
    build_kwargs: dict = field(default_factory=dict)

    def make_data(self, seed: int, elements: int | None = None) -> np.ndarray:
        n = self.default_elements if elements is None else int(elements)
        n -= n % max(self.chunk_size, 1)
        rng = np.random.default_rng(10_000 + seed)
        if self.name == "kmeans":
            flat, _ = make_blobs(n // self.chunk_size, self.chunk_size,
                                 4, seed=seed)
            return flat
        if self.name == "logreg":
            flat, _ = make_logreg_samples(n // self.chunk_size,
                                          self.chunk_size - 1, seed=seed)
            return flat
        return rng.normal(size=n)

    def build(self, args, comm=None):
        return self.factory(args, comm, **self.build_kwargs)

    def extra(self, data: np.ndarray) -> Any:
        return self.make_extra(data) if self.make_extra is not None else None

    def output_length(self, n_elements: int) -> int | None:
        if not self.multi_key:
            return None
        if self.out_len is not None:
            return self.out_len(n_elements)
        return n_elements


def _extract_histogram(app, out):
    return {"counts": app.counts()}


def _extract_minmax(app, out):
    lo, hi = app.value_range
    return {"range": np.array([lo, hi], dtype=np.float64)}


def _extract_grid_aggregation(app, out):
    # Read from columns: a backed map hands out its backing, an object-form
    # one packs once (sorted by key, like sorted_items).
    packed = pack_map(app.combination_map_)
    if packed is None:  # an empty map
        return {"keys": np.empty(0, np.int64), "totals": np.empty(0),
                "counts": np.empty(0, np.int64)}
    return {
        "keys": packed.keys.copy(),
        "totals": packed.records["total"].astype(np.float64),
        "counts": packed.records["count"].astype(np.int64),
    }


def _extract_joint_counts(app, out):
    return {"joint": app.joint_counts()}


def _extract_kmeans(app, out):
    return {"centroids": app.centroids()}


def _extract_logreg(app, out):
    return {"weights": np.asarray(app.weights, dtype=np.float64).copy()}


def _extract_out(app, out):
    return {"out": np.asarray(out, dtype=np.float64).copy()}


def _kmeans_init(flat: np.ndarray) -> np.ndarray:
    return flat.reshape(-1, 3)[:4].copy()


WORKLOADS: dict[str, Workload] = {}


def _register(w: Workload) -> Workload:
    WORKLOADS[w.name] = w
    return w


_register(Workload(
    name="histogram",
    factory=lambda args, comm: Histogram(args, comm, lo=-4.0, hi=4.0,
                                         num_buckets=32),
    extract=_extract_histogram,
    description="32-bucket histogram over N(0,1) samples (integer counts)",
    default_elements=2048,
    steps_ok=True,
    exact_partition=True,
    exact_permutation=True,
    exact_merge=True,
    schema_mergeable=True,
    has_batch_path=True,
))

_register(Workload(
    name="grid_aggregation",
    factory=lambda args, comm: GridAggregation(args, comm, grid_size=64),
    extract=_extract_grid_aggregation,
    description="mean of every 64 consecutive positions (raw sums compared)",
    default_elements=2048,
    has_batch_path=True,
    schema_mergeable=True,
))

_register(Workload(
    name="minmax",
    factory=lambda args, comm: MinMax(args, comm),
    extract=_extract_minmax,
    description="global value range (single reduction key)",
    default_elements=2048,
    steps_ok=True,
    exact_partition=True,
    exact_permutation=True,
    exact_merge=True,
    schema_mergeable=True,
    has_batch_path=True,
))

_register(Workload(
    name="kmeans",
    factory=lambda args, comm: KMeans(args, comm, dims=3),
    extract=_extract_kmeans,
    description="3-d k-means, k=4, 3 Lloyd iterations",
    chunk_size=3,
    num_iters=3,
    default_elements=720,
    make_extra=_kmeans_init,
    schema_mergeable=False,
    has_batch_path=True,
    # ``bincount`` adds a block's points in input order (0 ulp with one
    # block), but each later block's subtotal is then added to the seeded
    # total where the scalar loop adds point by point.  Largest distance
    # measured over seeds {7, 77, 1234, 2015} x threads 1-3 x blocks
    # {0, 64, 256} x ranks 1-3 and ``conform --full``: 4 ulp.
    batch_ulp=8,
))

_register(Workload(
    name="logreg",
    factory=lambda args, comm: LogisticRegression(args, comm, dims=4),
    extract=_extract_logreg,
    description="4-d logistic regression, 3 gradient steps",
    chunk_size=5,
    num_iters=3,
    default_elements=800,
    schema_mergeable=False,
    has_batch_path=True,
    # ``X.T @ (p - y)`` (BLAS) regroups the per-sample gradient sum; a
    # weight that lands near zero (|w| ~ 6e-4 here) turns that
    # cancellation into the largest distance of the same sweep: 42 ulp.
    batch_ulp=64,
))

_register(Workload(
    name="mutual_information",
    factory=lambda args, comm: MutualInformation(
        args, comm, x_range=(-4.0, 4.0), y_range=(-4.0, 4.0), bins=8),
    extract=_extract_joint_counts,
    description="8x8 joint histogram of (x, y) pairs (integer counts)",
    chunk_size=2,
    default_elements=2048,
    exact_partition=True,
    exact_permutation=True,
    exact_merge=True,
    schema_mergeable=True,
    has_batch_path=True,
))

_register(Workload(
    name="tile_aggregation",
    factory=lambda args, comm: TileAggregation3D(
        args, comm, shape=(8, 16, 16), tile=(3, 4, 5)),
    extract=_extract_grid_aggregation,
    description="mean over (3,4,5) tiles of an 8x16x16 field (raw sums compared)",
    default_elements=2048,
    schema_mergeable=True,
    has_batch_path=True,
))

_register(Workload(
    name="moving_average",
    factory=lambda args, comm: MovingAverage(args, comm, win_size=7),
    extract=_extract_out,
    description="centered moving average, window 7",
    multi_key=True,
    default_elements=512,
    has_batch_path=True,
    schema_mergeable=True,
))

_register(Workload(
    name="moving_median",
    factory=lambda args, comm: MovingMedian(args, comm, win_size=7),
    extract=_extract_out,
    description="centered moving median, window 7 (multiset-exact)",
    multi_key=True,
    default_elements=384,
    # np.median over the held multiset does not depend on how samples
    # were split across partitions, only on which samples arrived.
    exact_partition=True,
    schema_mergeable=False,
))

_register(Workload(
    name="savgol",
    factory=lambda args, comm: SavitzkyGolay(args, comm, win_size=7,
                                             polyorder=2),
    extract=_extract_out,
    description="Savitzky-Golay smoothing, window 7, order 2",
    multi_key=True,
    default_elements=384,
    schema_mergeable=False,
))

_register(Workload(
    name="kernel_smoother",
    factory=lambda args, comm: GaussianKernelSmoother(args, comm, win_size=9),
    extract=_extract_out,
    description="Gaussian kernel smoother, window 9",
    multi_key=True,
    default_elements=384,
    has_batch_path=True,
    schema_mergeable=True,
))

_register(Workload(
    name="kde_grid",
    factory=lambda args, comm: ValueGridKDE(
        args, comm, grid=np.linspace(-3.0, 3.0, KDE_GRID_POINTS),
        bandwidth=0.35),
    extract=_extract_out,
    description="value-grid kernel density estimate, 41 grid points",
    multi_key=True,
    default_elements=512,
    out_len=lambda n: KDE_GRID_POINTS,
    schema_mergeable=True,
    has_batch_path=True,
    # np.exp (batch) vs math.exp (scalar) differ in the last ulp on some
    # kernel terms; over ~500 samples per grid point the drift mostly
    # cancels.  Largest distance measured over the kmeans sweep above
    # and ``conform --full``: 2 ulp.
    batch_ulp=4,
))


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def workload_names() -> tuple[str, ...]:
    return tuple(WORKLOADS)
