"""Grid aggregation (visualization class; paper Sections 5.1, 5.4).

Groups the elements within each grid of ``grid_size`` consecutive
positions into a single element (here: their mean) for multi-resolution
visualization — the structural aggregation of SAGA [paper ref 57] that
conventional byte-stream MapReduce cannot express because it loses
positional information (paper Section 5.8).

Key = global element position // grid_size.
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
from .objects import SumCountObj

_SCRATCH = Scratch()


class GridAggregation(Scheduler):
    """Mean of every ``grid_size`` consecutive elements.

    ``chunk_size`` should be 1; positions are global (the scheduler's
    resolved ``global_offset_`` makes multi-rank partitions line up).

    Parameters
    ----------
    grid_size:
        Elements per grid (paper Section 5.4 uses 1,000).
    """

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
        *,
        grid_size: int,
    ):
        super().__init__(args, comm)
        if grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        self.grid_size = int(grid_size)

    def gen_key(self, chunk: Chunk, data: np.ndarray, combination_map: KeyedMap) -> int:
        return (self.global_offset_ + chunk.start) // self.grid_size

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = SumCountObj()
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
        g0 = (self.global_offset_ + start) // self.grid_size
        g1 = (self.global_offset_ + stop - 1) // self.grid_size + 1
        return ColumnarAccumulator(SumCountObj(), g0, g1)

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        g = self.grid_size
        pos = self.global_offset_ + start
        n = stop - start
        head = min(-pos % g, n)  # elements before the split's first cell boundary
        cells = (n - head) // g
        if cells < 2:
            # A one-column block would be reduced along its only long
            # axis, which numpy sums pairwise: _scatter takes the cell.
            cells = 0
        body = head + cells * g
        self._scatter(data[start : start + head], pos, acc)
        if cells:
            totals = acc.column("total")
            rows = slice((pos + head) // g - acc.key_lo, (pos + body) // g - acc.key_lo)
            # Row 0 seeds each cell with its total, rows 1..g are the cell's
            # elements in order.  Reduced along this slow axis numpy adds row
            # after row, so every cell sums with the scalar loop's grouping.
            work = _SCRATCH.array("cells", (g + 1) * cells, totals.dtype)
            work = work.reshape(g + 1, cells)
            work[0] = totals[rows]
            work[1:] = data[start + head : start + body].reshape(cells, g).T
            np.add.reduce(work, axis=0, out=totals[rows])
            acc.column("count")[rows] += g
            acc.contrib[rows] += g
        self._scatter(data[start + body : stop], pos + body, acc)

    def _scatter(self, part: np.ndarray, pos: int, acc: ColumnarAccumulator) -> None:
        """Add ``part``, the elements from global position ``pos`` on, one
        by one: the ragged cells at either end of a split."""
        if not len(part):
            return
        rel = np.arange(pos, pos + len(part)) // self.grid_size - acc.key_lo
        # ufunc.at applies updates element by element in index order, so
        # sums continue from the seeded totals as the scalar loop's do.
        np.add.at(acc.column("total"), rel, part)
        np.add.at(acc.column("count"), rel, 1)
        np.add.at(acc.contrib, rel, 1)


def reference_grid_aggregation(data: np.ndarray, grid_size: int) -> np.ndarray:
    """Ground-truth grid means over the full (global) array."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    n_grids = -(-n // grid_size)
    out = np.empty(n_grids)
    for g in range(n_grids):
        out[g] = data[g * grid_size : (g + 1) * grid_size].mean()
    return out
