"""Mutual information between two variables (similarity analytics class).

The paper (Sections 5.1, 5.4) computes MI between two simulation
variables by discretizing each into ``bins`` buckets — the 2-D space has
up to ``bins²`` cells — and estimating MI from the joint histogram.  Each
unit chunk is an ``(x, y)`` sample pair (``chunk_size = 2``); the key is
the flattened joint cell index; the reduction object is a counter.  The
MI value itself is derived from the global combination map by
:func:`mutual_information_from_counts` (the paper calls MI a "nuanced
MapReduce pipeline": histogram job, then a cheap sequential reduction).
"""

from __future__ import annotations

import numpy as np

from ..comm.interface import Communicator
from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.maps import KeyedMap
from ..core.red_obj import RedObj
from ..core.policy import ExecutionPolicy
from ..core.scheduler import Scheduler
from .objects import CountObj


class MutualInformation(Scheduler):
    """Joint-histogram construction for MI estimation.

    Parameters
    ----------
    x_range, y_range:
        ``(lo, hi)`` value ranges of the two variables (out-of-range
        samples clamp into the edge cells).
    bins:
        Buckets per variable (paper Section 5.4 uses 100, i.e. up to
        10,000 cells).
    """

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
        *,
        x_range: tuple[float, float],
        y_range: tuple[float, float],
        bins: int,
    ):
        if args.chunk_size != 2:
            raise ValueError(
                f"MutualInformation consumes (x, y) pairs: chunk_size must be 2, "
                f"got {args.chunk_size}"
            )
        super().__init__(args, comm)
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.bins = int(bins)
        self.x_lo, self.x_hi = map(float, x_range)
        self.y_lo, self.y_hi = map(float, y_range)
        if not (self.x_hi > self.x_lo and self.y_hi > self.y_lo):
            raise ValueError("value ranges must be non-empty")
        self.x_width = (self.x_hi - self.x_lo) / self.bins
        self.y_width = (self.y_hi - self.y_lo) / self.bins

    def _cell(self, x: float, y: float) -> int:
        ix = min(max(int((x - self.x_lo) / self.x_width), 0), self.bins - 1)
        iy = min(max(int((y - self.y_lo) / self.y_width), 0), self.bins - 1)
        return ix * self.bins + iy

    def gen_key(self, chunk: Chunk, data: np.ndarray, combination_map: KeyedMap) -> int:
        return self._cell(data[chunk.start], data[chunk.start + 1])

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = CountObj()
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.count

    # -- batch-map path ------------------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        return ColumnarAccumulator(CountObj(), 0, self.bins * self.bins)

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        block = data[start:stop].reshape(-1, 2)
        ix = ((block[:, 0] - self.x_lo) / self.x_width).astype(np.int64)
        iy = ((block[:, 1] - self.y_lo) / self.y_width).astype(np.int64)
        np.clip(ix, 0, self.bins - 1, out=ix)
        np.clip(iy, 0, self.bins - 1, out=iy)
        counts = np.bincount(ix * self.bins + iy, minlength=len(acc))
        count_col = acc.column("count")
        count_col += counts
        acc.contrib += counts

    # -- result --------------------------------------------------------------
    def joint_counts(self) -> np.ndarray:
        """The joint histogram as a dense ``bins × bins`` matrix."""
        joint = np.zeros((self.bins, self.bins), dtype=np.int64)
        for key, obj in self.combination_map_.items():
            joint[key // self.bins, key % self.bins] = obj.count
        return joint

    def mutual_information(self) -> float:
        """MI (nats) estimated from the current combination map."""
        return mutual_information_from_counts(self.joint_counts())


def mutual_information_from_counts(joint: np.ndarray) -> float:
    """MI (nats) from a joint count matrix: Σ p(x,y)·ln(p(x,y)/(p(x)p(y)))."""
    joint = np.asarray(joint, dtype=np.float64)
    total = joint.sum()
    if total <= 0:
        raise ValueError("cannot estimate MI from an empty joint histogram")
    p_xy = joint / total
    p_x = p_xy.sum(axis=1, keepdims=True)
    p_y = p_xy.sum(axis=0, keepdims=True)
    mask = p_xy > 0
    ratio = np.ones_like(p_xy)
    np.divide(p_xy, p_x * p_y, out=ratio, where=mask)
    return float(np.sum(p_xy[mask] * np.log(ratio[mask])))


def reference_mutual_information(
    xy: np.ndarray,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    bins: int,
) -> float:
    """Ground-truth MI from interleaved ``(x, y)`` samples."""
    pairs = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    ix = np.floor((pairs[:, 0] - x_range[0]) / ((x_range[1] - x_range[0]) / bins))
    iy = np.floor((pairs[:, 1] - y_range[0]) / ((y_range[1] - y_range[0]) / bins))
    ix = np.clip(ix.astype(np.int64), 0, bins - 1)
    iy = np.clip(iy.astype(np.int64), 0, bins - 1)
    joint = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(joint, (ix, iy), 1)
    return mutual_information_from_counts(joint)
