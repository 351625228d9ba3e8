"""K-means clustering (paper Listing 4; clustering analytics class).

The canonical iterative Smart application: the combination map holds one
:class:`~repro.analytics.objects.ClusterObj` per centroid; ``gen_key``
assigns each point to its nearest centroid; ``post_combine`` recomputes
centroids (Lloyd iteration) once per Smart iteration.  Initial centroids
arrive via ``ExecutionPolicy.extra_data`` (a ``k × dims`` array, ``k ≥ 1``).

The batch kernel (:meth:`KMeans.batch_reduce`) makes every pass stream
rows n points long: one GEMM into a centroid-major ``(k, n)`` score matrix
of ``‖c‖² − 2 c·p``, a running minimum over its ``k`` rows for the nearest
centroid, and one ``bincount`` over interleaved ``(cluster, dim)`` bins for
every per-cluster sum, each bin adding its points in input order.  Passes
only ``k`` wide, or one scatter per dimension, cost twice as much: in a
scatter, neighbouring grid points share a cluster, so each add would wait
on the one before.  A 32 768-point split (k = 8, dims = 4) takes
≈1.3–1.5 ms on a 2-core x86-64 host; its split-sized arrays all live in
per-thread scratch.

A point with no finite distance to any centroid (a NaN or infinite
coordinate) is rejected with the same ``ValueError`` on both map paths.
"""

from __future__ import annotations

import numpy as np

from ..comm.interface import Communicator
from ..core.batch import ColumnarAccumulator, Scratch
from ..core.chunk import Chunk
from ..core.maps import KeyedMap
from ..core.red_obj import RedObj
from ..core.policy import ExecutionPolicy
from ..core.scheduler import Scheduler
from .objects import ClusterObj

#: The kernel's ``(k, n)`` scores, running-minimum mask, assignment and
#: ``(cluster, dim)`` bins (per thread, reused across calls and schedulers).
_SCRATCH = Scratch()


def _no_finite_distance(offset: int, point: np.ndarray) -> ValueError:
    return ValueError(
        f"k-means point at element offset {offset} has no finite distance "
        f"to any centroid: {point}"
    )


class KMeans(Scheduler):
    """Lloyd's k-means over ``dims``-dimensional points.

    Data layout: flat float64, ``chunk_size = dims`` (one point per unit
    chunk).  ``num_iters`` in the policy is the Lloyd iteration
    count (paper uses 10).
    """

    seed_reduction_maps = True

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
        *,
        dims: int,
        tolerance: float | None = None,
    ):
        if args.chunk_size != dims:
            raise ValueError(
                f"one point per chunk: chunk_size must equal dims ({dims}), "
                f"got {args.chunk_size}"
            )
        super().__init__(args, comm)
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if tolerance is not None and tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.dims = int(dims)
        #: Optional convergence tolerance: iteration stops early once no
        #: centroid moves more than this (infinity-norm), before
        #: ``num_iters`` is exhausted.
        self.tolerance = tolerance
        #: Max centroid displacement of the most recent Lloyd iteration.
        self.last_shift = np.inf

    # -- user API ------------------------------------------------------------
    def process_extra_data(self, extra_data, combination_map: KeyedMap) -> None:
        if len(combination_map):
            return  # keep tracking centroids across time-steps
        if extra_data is None:
            raise ValueError("KMeans requires initial centroids as extra_data")
        centroids = np.asarray(extra_data, dtype=np.float64)
        if centroids.ndim != 2 or centroids.shape[1] != self.dims or not len(centroids):
            raise ValueError(
                f"initial centroids must be (k, {self.dims}) with k >= 1, "
                f"got {centroids.shape}"
            )
        if not np.isfinite(centroids).all():
            raise ValueError("initial centroids must be finite")
        for key, centroid in enumerate(centroids):
            combination_map[key] = ClusterObj(centroid)

    def _centroid_matrix(self, com_map: KeyedMap) -> tuple[np.ndarray, list[int]]:
        keys = sorted(com_map.keys())
        return np.stack([com_map[k].centroid for k in keys]), keys

    def gen_key(self, chunk: Chunk, data: np.ndarray, combination_map: KeyedMap) -> int:
        point = data[chunk.start : chunk.start + self.dims]
        best_key, best_dist = -1, np.inf
        for key, obj in combination_map.items():
            diff = obj.centroid - point
            dist = float(diff @ diff)
            if dist < best_dist or (dist == best_dist and key < best_key):
                best_key, best_dist = key, dist
        if best_key < 0:
            raise _no_finite_distance(chunk.start, point)
        return best_key

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        assert red_obj is not None, "seeded reduction maps guarantee the object"
        red_obj.vec_sum += data[chunk.start : chunk.start + self.dims]
        red_obj.size += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.vec_sum += red_obj.vec_sum
        com_obj.size += red_obj.size
        return com_obj

    def post_combine(self, combination_map: KeyedMap) -> None:
        shift = 0.0
        for _, obj in combination_map.items():
            before = obj.centroid.copy()
            obj.update()
            move = float(np.max(np.abs(obj.centroid - before)))
            if move > shift:
                shift = move
        self.last_shift = shift

    def converged(self, combination_map: KeyedMap, iteration: int) -> bool:
        return self.tolerance is not None and self.last_shift <= self.tolerance

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.centroid

    def mutable_state(self) -> dict:
        # Centroids travel in the combination map; the only other state
        # post_combine mutates is the convergence shift, so per-iteration
        # worker dispatch ships just this float plus the map delta.
        return {"last_shift": self.last_shift}

    def load_state(self, state: dict) -> None:
        self.last_shift = state["last_shift"]

    # -- batch-map path ------------------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        # Centroid keys are 0..k-1 (process_extra_data enumerates them).
        return ColumnarAccumulator(
            ClusterObj(np.zeros(self.dims)), 0, len(self.combination_map_)
        )

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        flat = data[start:stop]
        points = flat.reshape(-1, self.dims)
        n, k, dims = len(points), len(acc), self.dims
        centroids = acc.column("centroid")
        # Per 32 768-point split (k = 8, dims = 4, 2-core x86-64): GEMM
        # ≈0.15 ms, norm adds + running minimum ≈0.5, bins ≈0.07, the
        # interleaved bincount ≈0.28, the counts ≈0.13.
        #
        # Nearest centroid = argmin over c of |c|^2 - 2 c.p (|p|^2 is the
        # same for every c): one GEMM into centroid-major scratch, so the
        # norm add and the running minimum below stream rows n long.  A
        # non-finite point may trip FP flags here; it is rejected below.
        score = _SCRATCH.array("score", k * n, np.float64).reshape(k, n)
        norms = np.sum(centroids**2, axis=1)
        best, mask = score[0], _SCRATCH.array("mask", n, np.bool_)
        assign = _SCRATCH.array("assign", n, np.intp)
        assign.fill(0)
        with np.errstate(invalid="ignore", over="ignore"):
            np.matmul(-2.0 * centroids, points.T, out=score)
            # Running minimum in place over row 0, each row's norm added
            # while it is in cache.  The strict < keeps the lowest key on
            # ties, as argmin and gen_key do.
            best += norms[0]
            for j in range(1, k):
                row = score[j]
                row += norms[j]
                np.less(row, best, out=mask)
                np.copyto(best, row, where=mask)
                np.copyto(assign, j, where=mask)
        if not np.isfinite(best, out=mask).all():
            i = int(np.argmin(mask))
            raise _no_finite_distance(start + i * dims, points[i])
        # Every per-cluster sum from one bincount over (cluster, dim) bins:
        # each bin adds its points in input order, as the scalar loop does,
        # while neighbouring elements land in different bins, so no add
        # waits on the one before.  (``take`` with ``out`` buffers a copy
        # unless told how to treat out-of-range indices; there are none.)
        bins = _SCRATCH.array("bins", n * dims, np.intp).reshape(n, dims)
        table = np.arange(k * dims).reshape(k, dims)
        np.take(table, assign, axis=0, out=bins, mode="clip")
        vec_sum = acc.column("vec_sum")
        vec_sum += np.bincount(
            bins.reshape(-1), weights=flat, minlength=k * dims
        ).reshape(k, dims)
        counts = np.bincount(assign, minlength=k)
        size = acc.column("size")
        size += counts
        acc.contrib += counts

    # -- result ----------------------------------------------------------------
    def centroids(self) -> np.ndarray:
        matrix, _ = self._centroid_matrix(self.combination_map_)
        return matrix


def make_blobs(
    n: int, dims: int, k: int, spread: float = 0.3, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic clustered points; returns ``(flat_data, true_centers)``."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(k, dims))
    labels = rng.integers(0, k, size=n)
    points = centers[labels] + rng.normal(scale=spread, size=(n, dims))
    return points.reshape(-1), centers


def reference_kmeans(
    flat_data: np.ndarray, init_centroids: np.ndarray, num_iters: int
) -> np.ndarray:
    """Ground-truth Lloyd iterations (pure numpy, empty clusters frozen)."""
    dims = init_centroids.shape[1]
    points = np.asarray(flat_data, dtype=np.float64).reshape(-1, dims)
    centroids = np.asarray(init_centroids, dtype=np.float64).copy()
    for _ in range(num_iters):
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centroids.T
            + np.sum(centroids**2, axis=1)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        for c in range(centroids.shape[0]):
            members = points[assign == c]
            if members.shape[0]:
                centroids[c] = members.mean(axis=0)
    return centroids
