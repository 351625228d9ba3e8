"""Gaussian kernel density estimation (window-based analytics).

Two estimators are provided:

* :class:`GaussianKernelSmoother` — the paper's window-based formulation
  ("window sizes were all 25", Section 5.4): the density/intensity
  estimate at position ``i`` is the Gaussian-kernel-weighted combination
  of the elements in the window centred at ``i``,
  ``out[i] = Σ_j K((j - i)/h) · x_j / Σ_j K((j - i)/h)``.  This is a
  Nadaraya-Watson estimate with a positional kernel — the standard way a
  streaming Gaussian KDE/smoother is applied to a regularly sampled
  signal.  The kernel weight depends on the (key, element) pair, which is
  why ``accumulate`` receives the key in this Python port.

* :class:`ValueGridKDE` — a classic value-space KDE on a fixed evaluation
  grid, ``f(v_g) = (1/(N·h)) Σ_j K((v_g - x_j)/h)``, exercising the
  ``run2`` multi-key path without windows (each sample contributes to all
  grid points within ``cutoff`` bandwidths).  Not part of the paper's
  nine applications, but a natural extension users of such a framework
  expect; included in the extension benches.
"""

from __future__ import annotations

import math

import numpy as np

from ..comm.interface import Communicator
from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.maps import KeyedMap
from ..core.red_obj import RedObj
from ..core.policy import ExecutionPolicy
from ..core.scheduler import Scheduler
from .objects import SumCountObj, WeightedWindowObj
from .window import WindowScheduler, sliding_window_apply


class GaussianKernelSmoother(WindowScheduler):
    """Window-based Gaussian kernel estimate; use with ``run2``.

    Parameters
    ----------
    bandwidth:
        Positional kernel bandwidth ``h`` (in elements).  Defaults to
        ``win_size / 5`` so the kernel decays to ~e⁻³ at the window edge.
    """

    window_obj = WeightedWindowObj

    def __init__(self, args: ExecutionPolicy, comm=None, *, win_size: int,
                 bandwidth: float | None = None):
        super().__init__(args, comm, win_size=win_size)
        self.bandwidth = float(bandwidth) if bandwidth else self.win_size / 5.0
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")

    def kernel(self, distance: float) -> float:
        """Unnormalized Gaussian positional kernel."""
        z = distance / self.bandwidth
        return math.exp(-0.5 * z * z)

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = self.window_obj(self.win_size)
        pos = self.element_position(chunk)
        w = self.kernel(pos - key)
        red_obj.wsum += w * float(data[chunk.start])
        red_obj.wtotal += w
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.wsum += red_obj.wsum
        com_obj.wtotal += red_obj.wtotal
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.wsum / red_obj.wtotal

    def convert_rows(self, cls, keys, records, out) -> None:
        out[keys] = records["wsum"] / records["wtotal"]

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        self.scatter_window(acc, data, start, stop, "wsum", "wtotal")


def reference_gaussian_smoother(
    data: np.ndarray, win_size: int, bandwidth: float | None = None
) -> np.ndarray:
    """Ground truth for :class:`GaussianKernelSmoother`."""
    h = float(bandwidth) if bandwidth else win_size / 5.0

    def estimate(window: np.ndarray, center: int) -> float:
        offsets = np.arange(window.shape[0]) - center
        weights = np.exp(-0.5 * (offsets / h) ** 2)
        return float(weights @ window / weights.sum())

    return sliding_window_apply(data, win_size, estimate)


class ValueGridKDE(Scheduler):
    """Value-space Gaussian KDE on a fixed evaluation grid (``run2``).

    Keys are evaluation-grid indices; each sample contributes kernel mass
    to every grid point within ``cutoff`` bandwidths of its value.
    ``density()`` normalizes by the *global* sample count after the run.
    """

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
        *,
        grid: np.ndarray,
        bandwidth: float,
        cutoff: float = 4.0,
    ):
        if args.chunk_size != 1:
            raise ValueError("ValueGridKDE consumes scalar samples (chunk_size=1)")
        super().__init__(args, comm)
        self.grid = np.asarray(grid, dtype=np.float64)
        if self.grid.ndim != 1 or self.grid.shape[0] < 2:
            raise ValueError("grid must be a 1-D array with >= 2 points")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.bandwidth = float(bandwidth)
        self.cutoff = float(cutoff)

    def _reach(self, value: float) -> range:
        lo = np.searchsorted(self.grid, value - self.cutoff * self.bandwidth, "left")
        hi = np.searchsorted(self.grid, value + self.cutoff * self.bandwidth, "right")
        return range(int(lo), int(hi))

    def gen_keys(
        self, chunk: Chunk, data: np.ndarray, keys: list[int], combination_map: KeyedMap
    ) -> None:
        keys.extend(self._reach(float(data[chunk.start])))

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = SumCountObj()
        z = (float(data[chunk.start]) - self.grid[key]) / self.bandwidth
        red_obj.total += math.exp(-0.5 * z * z)
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.total

    # -- batch-map path ------------------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        return ColumnarAccumulator(SumCountObj(), 0, self.grid.shape[0])

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        """Sample-major (sample, grid-point) pair expansion.

        The pair list enumerates each sample's reach in ascending sample
        order — the exact visitation order of the scalar ``gen_keys``
        loop — and ``np.add.at`` applies updates in pair order, so per-key
        sums group identically.  The one deviation: ``np.exp`` (SIMD) may
        differ from ``math.exp`` (libm) in the last ulp per term, which
        is why this workload declares a ``batch_ulp`` bound in the
        conformance registry instead of bit-exactness.
        """
        block = np.asarray(data[start:stop], dtype=np.float64)
        reach = self.cutoff * self.bandwidth
        lo_idx = np.searchsorted(self.grid, block - reach, "left")
        hi_idx = np.searchsorted(self.grid, block + reach, "right")
        counts_per = hi_idx - lo_idx
        total_pairs = int(counts_per.sum())
        if total_pairs == 0:
            return
        ends = np.cumsum(counts_per)
        starts = ends - counts_per
        within = np.arange(total_pairs) - np.repeat(starts, counts_per)
        keys = np.repeat(lo_idx, counts_per) + within
        vals = np.repeat(block, counts_per)
        z = (vals - self.grid[keys]) / self.bandwidth
        mass = np.exp(-0.5 * z * z)
        np.add.at(acc.column("total"), keys, mass)
        cnt = np.bincount(keys, minlength=len(acc)).astype(np.int64)
        count_col = acc.column("count")
        count_col += cnt
        acc.contrib += cnt

    def density(self, n_samples: int) -> np.ndarray:
        """Normalized density over the grid given the global sample count."""
        norm = n_samples * self.bandwidth * math.sqrt(2.0 * math.pi)
        out = np.zeros_like(self.grid)
        for key, obj in self.combination_map_.items():
            out[key] = obj.total / norm
        return out


def reference_value_grid_kde(
    samples: np.ndarray, grid: np.ndarray, bandwidth: float, cutoff: float = 4.0
) -> np.ndarray:
    """Ground truth for :class:`ValueGridKDE` (same truncation)."""
    samples = np.asarray(samples, dtype=np.float64)
    grid = np.asarray(grid, dtype=np.float64)
    z = (grid[None, :] - samples[:, None]) / bandwidth
    mass = np.exp(-0.5 * z * z)
    mass[np.abs(z) > cutoff] = 0.0
    return mass.sum(axis=0) / (samples.shape[0] * bandwidth * math.sqrt(2 * math.pi))
