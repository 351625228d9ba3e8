"""Equi-width histogram (paper Listing 3; statistical analytics class).

The simplest non-iterative Smart application: one reduction object per
bucket, key = bucket index of the element's value.  Used throughout the
paper's evaluation (Figs. 5c, 7, 8, 10a).
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
from ..core.serialization import pack_map
from .objects import CountObj


#: The numpy kernel's two temporaries (per thread, reused across calls and schedulers).
_SCRATCH = Scratch()


class Histogram(Scheduler):
    """Equi-width histogram over ``[lo, hi)`` with ``num_buckets`` buckets.

    Values outside the range clamp into the first/last bucket (so mass is
    conserved — a property the tests rely on).  Elements are scalars:
    ``chunk_size`` should be 1.

    Parameters
    ----------
    args, comm:
        Standard scheduler arguments and communicator.
    lo, hi:
        Value range.  The paper assumes the range "can be taken as a
        priori knowledge or be retrieved by an earlier Smart analytics
        job" — see :mod:`repro.analytics.minmax` for that earlier job.
    num_buckets:
        Bucket count (paper uses 100 in Section 5.2, 1,200 in 5.4).
    """

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
        *,
        lo: float,
        hi: float,
        num_buckets: int,
    ):
        super().__init__(args, comm)
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi})")
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.num_buckets = int(num_buckets)
        self.width = (self.hi - self.lo) / self.num_buckets

    def bucket_of(self, value: float) -> int:
        k = int((value - self.lo) / self.width)
        if k < 0:
            return 0
        if k >= self.num_buckets:
            return self.num_buckets - 1
        return k

    # -- user API ----------------------------------------------------------
    def gen_key(self, chunk: Chunk, data: np.ndarray, combination_map: KeyedMap) -> int:
        return self.bucket_of(data[chunk.start])

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
        return ColumnarAccumulator(CountObj(), 0, self.num_buckets)

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        block = data[start:stop]
        # ((block - lo) / width).astype(int64), its two temporaries reused.
        n = len(block)
        scaled = _SCRATCH.array("scaled", n, np.result_type(block.dtype, 0.0))
        keys = _SCRATCH.array("keys", n, np.int64)
        np.subtract(block, self.lo, out=scaled)
        np.divide(scaled, self.width, out=scaled)
        # Clamped before the cast: a float past the int64 range has no
        # integer to clamp (bucket_of's Python int does).
        np.clip(scaled, 0, self.num_buckets - 1, out=scaled)
        np.copyto(keys, scaled, casting="unsafe")
        counts = np.bincount(keys, minlength=self.num_buckets)
        count_col = acc.column("count")
        count_col += counts
        acc.contrib += counts

    # -- convenience ---------------------------------------------------------
    def counts(self) -> np.ndarray:
        """Bucket counts from the combination map as a dense array, read
        from its columns (a backed map builds no objects)."""
        out = np.zeros(self.num_buckets, dtype=np.int64)
        packed = pack_map(self.combination_map_)
        if packed is not None:
            out[packed.keys] = packed.records["count"]
        return out


def reference_histogram(
    data: np.ndarray, lo: float, hi: float, num_buckets: int
) -> np.ndarray:
    """Ground-truth histogram with the same bucketing/clamping semantics.

    Uses the specification formula ``floor((v - lo) / width)`` with clamp,
    i.e. exactly what :meth:`Histogram.bucket_of` computes per element, so
    boundary values bucket identically (``np.histogram`` differs on the
    top edge and on float round-off at bin boundaries).
    """
    width = (hi - lo) / num_buckets
    keys = np.floor((np.asarray(data, dtype=np.float64) - lo) / width).astype(np.int64)
    np.clip(keys, 0, num_buckets - 1, out=keys)
    return np.bincount(keys, minlength=num_buckets).astype(np.int64)
