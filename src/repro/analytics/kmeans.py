"""K-means clustering (paper Listing 4; clustering analytics class).

The canonical iterative Smart application: the combination map holds one
:class:`~repro.analytics.objects.ClusterObj` per centroid; ``gen_key``
assigns each point to its nearest centroid; ``post_combine`` recomputes
centroids (Lloyd iteration) once per Smart iteration.  Initial centroids
arrive via ``ExecutionPolicy.extra_data`` (a ``k × dims`` array, ``k ≥ 1``).

The batch kernel (:meth:`KMeans.batch_reduce`) costs a split one GEMM and
``dims + 1`` ``bincount`` scatters: nearest centroids as the ``argmin`` of
``‖c‖² − 2 p·c`` and per-cluster sums added in input order, with the one
``(n, k)`` temporary in per-thread scratch.
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

#: The kernel's ``(n, k)`` score matrix (per thread, reused across calls and schedulers).
_SCRATCH = Scratch()


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
            raise RuntimeError("gen_key called with an empty combination map")
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
        points = data[start:stop].reshape(-1, self.dims)
        n, k = len(points), len(acc)
        centroids = acc.column("centroid")
        # argmin over c of |p - c|^2 = |c|^2 - 2 p.c (+ |p|^2, constant
        # along that axis): one GEMM into reused scratch.  Ties resolve to
        # the lowest index, matching gen_key's tie-break on sorted keys.
        score = _SCRATCH.array("score", n * k, np.float64).reshape(n, k)
        np.matmul(points, (-2.0 * centroids).T, out=score)
        score += np.sum(centroids**2, axis=1)
        assign = score.argmin(axis=1)
        # bincount adds in input order, as the scalar loop does.
        vec_sum = acc.column("vec_sum")
        for d in range(self.dims):
            vec_sum[:, d] += np.bincount(assign, weights=points[:, d], minlength=k)
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
