"""Structural analytics on 3-D fields (extension; paper Section 5.8, ref [57]).

The paper argues Smart suits *ad-hoc structural analytics* because its
unit chunks preserve array positional information, citing SAGA's
structural aggregations.  The bundled grid aggregation and moving average
operate on the flattened 1-D view; this module provides the full 3-D
forms for simulation fields:

* :class:`TileAggregation3D` — mean over ``(tz, ty, tx)`` tiles of a
  ``(nz, ny, nx)`` field (multi-resolution downsampling for
  visualization);
* :class:`MovingAverage3D` — mean over a cubic sliding window centred at
  every cell (volumetric smoothing), with early emission at full-window
  coverage exactly like the 1-D case.

Positions are *global*: with the slab decomposition used by the bundled
simulations, rank ``r``'s flattened partition starts at global element
``z_start * ny * nx``, so tiles and windows spanning rank boundaries are
resolved by global combination like any other key.
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
from .objects import SumCountObj, WindowSumObj


class _Field3D(Scheduler):
    """Shared 3-D coordinate bookkeeping."""

    def __init__(self, args: ExecutionPolicy, comm: Communicator | None = None,
                 *, shape: tuple[int, int, int]):
        if args.chunk_size != 1:
            raise ValueError("3-D structural analytics consume scalar cells "
                             "(chunk_size must be 1)")
        super().__init__(args, comm)
        nz, ny, nx = shape
        if min(nz, ny, nx) < 1:
            raise ValueError(f"invalid field shape {shape}")
        self.shape = (int(nz), int(ny), int(nx))

    def coords(self, chunk: Chunk) -> tuple[int, int, int]:
        """Global (z, y, x) of the cell in ``chunk``."""
        nz, ny, nx = self.shape
        g = self.global_offset_ + chunk.start
        z, rem = divmod(g, ny * nx)
        y, x = divmod(rem, nx)
        return z, y, x

    def flat(self, z: int, y: int, x: int) -> int:
        _nz, ny, nx = self.shape
        return (z * ny + y) * nx + x


class TileAggregation3D(_Field3D):
    """Mean of every ``(tz, ty, tx)`` tile of a 3-D field.

    Key = flattened tile index over the ``ceil(n/t)``-per-axis tile grid.
    Edge tiles may be partial; their mean is over the cells they cover.
    """

    def __init__(self, args: ExecutionPolicy, comm=None, *,
                 shape: tuple[int, int, int], tile: tuple[int, int, int]):
        super().__init__(args, comm, shape=shape)
        tz, ty, tx = tile
        if min(tz, ty, tx) < 1:
            raise ValueError(f"invalid tile shape {tile}")
        self.tile = (int(tz), int(ty), int(tx))
        self.tiles_per_axis = tuple(
            -(-n // t) for n, t in zip(self.shape, self.tile)
        )

    def tile_key(self, z: int, y: int, x: int) -> int:
        tz, ty, tx = self.tile
        gz, gy, gx = z // tz, y // ty, x // tx
        _mz, my, mx = self.tiles_per_axis
        return (gz * my + gy) * mx + gx

    @property
    def num_tiles(self) -> int:
        mz, my, mx = self.tiles_per_axis
        return mz * my * mx

    def gen_key(self, chunk: Chunk, data: np.ndarray, combination_map: KeyedMap) -> int:
        return self.tile_key(*self.coords(chunk))

    def accumulate(self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None,
                   key: int) -> RedObj:
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
        # Tile keys are monotone in z, so the tile layers the split's
        # z-range spans bound every key it can touch.
        _nz, ny, nx = self.shape
        _mz, my, mx = self.tiles_per_axis
        z_lo = (self.global_offset_ + start) // (ny * nx)
        z_hi = (self.global_offset_ + stop - 1) // (ny * nx)
        tz = self.tile[0]
        return ColumnarAccumulator(
            SumCountObj(), (z_lo // tz) * my * mx, (z_hi // tz + 1) * my * mx
        )

    def batch_reduce(self, data: np.ndarray, start: int, stop: int,
                     acc: ColumnarAccumulator) -> None:
        _nz, ny, nx = self.shape
        tz, ty, tx = self.tile
        _mz, my, mx = self.tiles_per_axis
        g = np.arange(self.global_offset_ + start, self.global_offset_ + stop)
        z, rem = np.divmod(g, ny * nx)
        y, x = np.divmod(rem, nx)
        rel = ((z // tz) * my + (y // ty)) * mx + (x // tx) - acc.key_lo
        # ufunc.at adds element by element in position order onto the
        # seeded totals: the scalar loop's float grouping, bit for bit.
        np.add.at(acc.column("total"), rel, data[start:stop])
        counts = np.bincount(rel, minlength=len(acc))
        count_col = acc.column("count")
        count_col += counts
        acc.contrib += counts

    def means(self) -> np.ndarray:
        """Dense tile-mean field, shaped ``tiles_per_axis``."""
        out = np.full(self.num_tiles, np.nan)
        for key, obj in self.combination_map_.items():
            out[key] = obj.total / obj.count
        return out.reshape(self.tiles_per_axis)


class MovingAverage3D(_Field3D):
    """Cubic-window mean at every cell of a 3-D field; use with ``run2``.

    ``win_size`` is the odd edge length of the cube; a cell contributes to
    every window centre within ``win_size // 2`` along each axis.  The
    reduction object triggers at full ``win_size**3`` coverage (interior
    windows entirely inside one split), the direct 3-D generalization of
    paper Listing 5.
    """

    def __init__(self, args: ExecutionPolicy, comm=None, *,
                 shape: tuple[int, int, int], win_size: int):
        super().__init__(args, comm, shape=shape)
        if win_size < 1 or win_size % 2 == 0:
            raise ValueError(f"win_size must be odd and >= 1, got {win_size}")
        self.win_size = int(win_size)
        self.full_coverage = self.win_size**3

    def gen_keys(self, chunk: Chunk, data: np.ndarray, keys: list[int],
                 combination_map: KeyedMap) -> None:
        nz, ny, nx = self.shape
        z, y, x = self.coords(chunk)
        half = self.win_size // 2
        for cz in range(max(z - half, 0), min(z + half + 1, nz)):
            for cy in range(max(y - half, 0), min(y + half + 1, ny)):
                base = (cz * ny + cy) * nx
                keys.extend(
                    range(base + max(x - half, 0), base + min(x + half + 1, nx))
                )

    def accumulate(self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None,
                   key: int) -> RedObj:
        if red_obj is None:
            red_obj = WindowSumObj(self.full_coverage)
        red_obj.total += float(data[chunk.start])
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[key] = red_obj.total / red_obj.count


def reference_tile_aggregation_3d(
    field: np.ndarray, tile: tuple[int, int, int]
) -> np.ndarray:
    """Ground-truth tile means (partial edge tiles included)."""
    nz, ny, nx = field.shape
    tz, ty, tx = tile
    mz, my, mx = -(-nz // tz), -(-ny // ty), -(-nx // tx)
    out = np.empty((mz, my, mx))
    for gz in range(mz):
        for gy in range(my):
            for gx in range(mx):
                block = field[
                    gz * tz : (gz + 1) * tz,
                    gy * ty : (gy + 1) * ty,
                    gx * tx : (gx + 1) * tx,
                ]
                out[gz, gy, gx] = block.mean()
    return out


def reference_moving_average_3d(field: np.ndarray, win_size: int) -> np.ndarray:
    """Ground-truth clipped cubic-window mean (O(N·W³); test scale only)."""
    nz, ny, nx = field.shape
    half = win_size // 2
    out = np.empty_like(field, dtype=np.float64)
    for z in range(nz):
        z0, z1 = max(z - half, 0), min(z + half + 1, nz)
        for y in range(ny):
            y0, y1 = max(y - half, 0), min(y + half + 1, ny)
            for x in range(nx):
                x0, x1 = max(x - half, 0), min(x + half + 1, nx)
                out[z, y, x] = field[z0:z1, y0:y1, x0:x1].mean()
    return out
