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
from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.maps import KeyedMap
from ..core.red_obj import RedObj
from ..core.policy import ExecutionPolicy
from ..core.scheduler import Scheduler
from .objects import SumCountObj


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
        block = data[start:stop]
        totals = acc.column("total")
        counts = np.zeros(len(acc), dtype=np.int64)
        positions = np.arange(
            self.global_offset_ + start, self.global_offset_ + stop
        )
        rel = positions // self.grid_size - acc.key_lo
        # ufunc.at applies updates element-by-element in index order —
        # the per-grid sums continue from the seeded totals with the
        # exact float grouping of the scalar loop (np.bincount would
        # produce a subtotal whose later addition regroups).
        np.add.at(totals, rel, block)
        counts += np.bincount(rel, minlength=len(acc)).astype(np.int64)
        count_col = acc.column("count")
        count_col += counts
        acc.contrib += counts


def reference_grid_aggregation(data: np.ndarray, grid_size: int) -> np.ndarray:
    """Ground-truth grid means over the full (global) array."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    n_grids = -(-n // grid_size)
    out = np.empty(n_grids)
    for g in range(n_grids):
        out[g] = data[g * grid_size : (g + 1) * grid_size].mean()
    return out
