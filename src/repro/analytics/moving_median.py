"""Moving median (window-based analytics; the holistic case).

The median cannot be computed from a compact summary: the reduction
object must hold all Θ(W) window elements (paper Section 4.1's
algebraic-vs-holistic distinction).  This is the application where early
emission matters most — Fig. 11b — because without it, N reduction
objects of Θ(W) elements each must be held simultaneously.
"""

from __future__ import annotations

import numpy as np

from ..core.chunk import Chunk
from ..core.red_obj import RedObj
from .objects import HoldAllObj
from .window import WindowScheduler, sliding_window_apply


class MovingMedian(WindowScheduler):
    """Sliding-window median; use with ``run2`` (multi-key).

    No batch kernel is provided: the holistic object defeats
    bulk accumulation, which is faithful to why the paper treats this
    application as the compute- and memory-heavy end of the spectrum.
    """

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = HoldAllObj(self.win_size)
        red_obj.add(self.element_position(chunk), float(data[chunk.start]))
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.extend(red_obj)
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = float(np.median(np.asarray(red_obj.values)))


def reference_moving_median(data: np.ndarray, win_size: int) -> np.ndarray:
    """Ground truth: clipped-window median at every position."""
    return sliding_window_apply(data, win_size, lambda w, _c: float(np.median(w)))
