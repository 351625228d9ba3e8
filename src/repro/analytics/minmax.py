"""Global min/max — the 'earlier Smart analytics job' of paper Listing 3.

The histogram example assumes the value range "can be taken as a priori
knowledge or be retrieved by an earlier Smart analytics job"; this is
that job.  A single reduction object (key 0) tracks the running minimum
and maximum, demonstrating the degenerate-key case and serving as the
first stage of the range→histogram pipeline example.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.red_obj import Field, RedObj
from ..core.scheduler import Scheduler
from ..core.serialization import pack_map


class MinMaxObj(RedObj):
    """Running (min, max) over all accumulated elements."""

    __slots__ = ("lo", "hi")

    def __init__(self):
        self.lo = np.inf
        self.hi = -np.inf

    def fields(self):
        return (Field("lo", np.float64, "min"), Field("hi", np.float64, "max"))

    def __repr__(self) -> str:  # pragma: no cover
        return f"MinMaxObj(lo={self.lo}, hi={self.hi})"


class MinMax(Scheduler):
    """Global value range of the input (single key 0; ``chunk_size=1``)."""

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = MinMaxObj()
        value = float(data[chunk.start])
        if value < red_obj.lo:
            red_obj.lo = value
        if value > red_obj.hi:
            red_obj.hi = value
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.lo = min(com_obj.lo, red_obj.lo)
        com_obj.hi = max(com_obj.hi, red_obj.hi)
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[0] = red_obj.lo
        out[1] = red_obj.hi

    # -- batch-map path ------------------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        return ColumnarAccumulator(MinMaxObj(), 0, 1)

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        # min/max are exactly associative, so one reduction over the block
        # folded against the seeded running value is bit-identical to the
        # element loop.  fmin/fmax skip NaNs as its comparisons do; an
        # all-NaN block reduces to NaN, which min/max against the seed drop.
        block = data[start:stop]
        lo = acc.column("lo")
        hi = acc.column("hi")
        lo[0] = min(lo[0], np.fmin.reduce(block))
        hi[0] = max(hi[0], np.fmax.reduce(block))
        acc.contrib[0] += stop - start

    @property
    def value_range(self) -> tuple[float, float]:
        """Key 0's (min, max), read from the combination map's columns."""
        record = pack_map(self.combination_map_).records[0]
        return float(record["lo"]), float(record["hi"])
