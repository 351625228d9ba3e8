"""Moving average (paper Listing 5; window-based analytics).

``out[i]`` is the mean of the elements in the window centred at ``i``.
The reduction object is the algebraic ``(sum, count)`` pair — Θ(1) per
window — and triggers (early emission, Section 4.2) at full coverage.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.red_obj import RedObj
from .objects import WindowSumObj
from .window import WindowScheduler, sliding_window_apply


class MovingAverage(WindowScheduler):
    """Sliding-window mean; use with ``run2`` (multi-key)."""

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = WindowSumObj(self.win_size)
        red_obj.total += float(data[chunk.start])
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.total / red_obj.count

    # -- batch-map path ------------------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        half = self.win_size // 2
        g0 = self.global_offset_ + start
        g1 = self.global_offset_ + stop
        key_lo = max(g0 - half, 0)
        key_hi = min(g1 + half, self.total_len_)
        return ColumnarAccumulator(WindowSumObj(self.win_size), key_lo, key_hi)

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        block = data[start:stop]
        half = self.win_size // 2
        g0 = self.global_offset_ + start
        g1 = self.global_offset_ + stop
        totals = acc.column("total")
        counts = acc.column("count")
        contrib = acc.contrib
        # Offsets run DESCENDING (+half .. -half) so every key receives
        # its contributing elements in ascending element order, matching
        # the scalar loop's float grouping bit-for-bit: element g lands
        # on key g + o, so for a fixed key k the contributing element is
        # g = k - o — descending o gives ascending g.
        for offset in range(half, -half - 1, -1):
            lo = max(g0, -offset)
            hi = min(g1, self.total_len_ - offset)
            if hi <= lo:
                continue
            k0 = lo + offset - acc.key_lo
            k1 = hi + offset - acc.key_lo
            seg = block[lo - g0 : hi - g0]
            totals[k0:k1] += seg
            counts[k0:k1] += 1
            contrib[k0:k1] += 1


def reference_moving_average(data: np.ndarray, win_size: int) -> np.ndarray:
    """Ground truth: clipped-window mean at every position."""
    return sliding_window_apply(data, win_size, lambda w, _c: w.mean())
