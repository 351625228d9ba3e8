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

    window_obj = WindowSumObj

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = self.window_obj(self.win_size)
        red_obj.total += float(data[chunk.start])
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.total / red_obj.count

    def convert_rows(self, cls, keys, records, out) -> None:
        out[keys] = records["total"] / records["count"]

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        self.scatter_window(acc, data, start, stop, "total")


def reference_moving_average(data: np.ndarray, win_size: int) -> np.ndarray:
    """Ground truth: clipped-window mean at every position."""
    return sliding_window_apply(data, win_size, lambda w, _c: w.mean())
