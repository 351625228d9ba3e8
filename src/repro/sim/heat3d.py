"""Heat3D: explicit 3-D heat diffusion (the paper's large-output simulation).

The original Heat3D [paper ref 2] solves the transient heat equation on a
3-D grid with an explicit 7-point-stencil (FTCS) update, decomposed across
MPI ranks with halo exchange.  This implementation reproduces that
structure: z-axis slab decomposition over the communicator, one-plane
halos exchanged per step, fully vectorized numpy stencil (the guides'
first rule: no Python-level loops over grid points), swept over the flat
field in L2-sized blocks so each ufunc pass reads contiguous, cached memory.

Per time-step each rank outputs its entire interior temperature field —
the 'large volumes of data per step' behaviour (e.g. 400 MB/node in the
paper) that Figures 1, 7, 9a and 11a rely on.
"""

from __future__ import annotations

import numpy as np

from ..comm.interface import Communicator
from ..comm.local import LocalComm
from .base import Simulation
from .decomposition import decompose_1d

_HALO_TAG_UP = 101
_HALO_TAG_DOWN = 102

#: Elements per stencil block: 256 KiB of float64, so a block's operands
#: and the two scratch buffers stay in a core's L2 across the nine passes.
_BLOCK = 32768


class Heat3D(Simulation):
    """Rank-local slab of an explicit 3-D heat-diffusion simulation.

    Parameters
    ----------
    shape:
        Global grid ``(nz, ny, nx)``.  The z axis is decomposed across
        the communicator's ranks.
    comm:
        Communicator for halo exchange (default: single rank).
    alpha:
        Diffusion number ``α·Δt/Δx²``; must satisfy the explicit-scheme
        stability bound ``alpha <= 1/6`` in 3-D.
    hot_value / cold_value:
        Dirichlet boundary temperatures: the global z=0 face is held hot,
        every other face cold — a classic heated-plate configuration that
        produces evolving, spatially varying output for the analytics.
    """

    def __init__(
        self,
        shape: tuple[int, int, int],
        comm: Communicator | None = None,
        alpha: float = 0.1,
        hot_value: float = 100.0,
        cold_value: float = 0.0,
    ):
        nz, ny, nx = shape
        if min(nz, ny, nx) < 3:
            raise ValueError(f"grid must be at least 3 in every dimension, got {shape}")
        if not 0.0 < alpha <= 1.0 / 6.0:
            raise ValueError(f"alpha must be in (0, 1/6] for stability, got {alpha}")
        self.comm = comm if comm is not None else LocalComm()
        self.shape = (nz, ny, nx)
        self.alpha = float(alpha)
        self.hot_value = float(hot_value)
        self.cold_value = float(cold_value)
        self.slab = decompose_1d(nz, self.comm.size, self.comm.rank)
        # Local field with one halo plane on each z side.  Two buffers are
        # flip-flopped so the update never reads what it just wrote.
        local_nz = len(self.slab) + 2
        self._u = np.full((local_nz, ny, nx), cold_value, dtype=np.float64)
        self._u_next = self._u.copy()
        # The stencil sum and the 6·centre term of one block, reused.
        block = min(_BLOCK, (local_nz - 2) * ny * nx)
        self._acc = np.empty(block, dtype=np.float64)
        self._tmp = np.empty(block, dtype=np.float64)
        self._step = 0
        self._apply_boundary(self._u)
        self._apply_boundary(self._u_next)

    # -- Simulation interface ---------------------------------------------
    @property
    def step(self) -> int:
        return self._step

    @property
    def partition_elements(self) -> int:
        nz, ny, nx = self.shape
        return len(self.slab) * ny * nx

    @property
    def memory_nbytes(self) -> int:
        return self._u.nbytes * 2 + self._acc.nbytes * 2

    def advance(self) -> np.ndarray:
        """One FTCS step: halo exchange, stencil update, boundary refresh.

        Returns a flattened view of the interior (no copy — the read
        pointer of time-sharing mode).
        """
        self._exchange_halos()
        u, un = self._u, self._u_next
        _, ny, nx = u.shape
        plane = ny * nx
        f, fn = u.reshape(-1), un.reshape(-1)
        # The owned planes as one flat range, neighbours at ±1, ±nx, ±plane,
        # in the 3-D formula's order of operations (bit-identical).  x/y
        # face cells get throwaway values that _apply_boundary overwrites.
        end = plane * (u.shape[0] - 1)
        for lo in range(plane, end, len(self._acc)):
            hi = min(lo + len(self._acc), end)
            acc, tmp = self._acc[: hi - lo], self._tmp[: hi - lo]
            np.add(f[lo + plane : hi + plane], f[lo - plane : hi - plane], out=acc)
            acc += f[lo + nx : hi + nx]
            acc += f[lo - nx : hi - nx]
            acc += f[lo + 1 : hi + 1]
            acc += f[lo - 1 : hi - 1]
            np.multiply(f[lo:hi], 6.0, out=tmp)
            acc -= tmp
            acc *= self.alpha
            np.add(f[lo:hi], acc, out=fn[lo:hi])
        self._u, self._u_next = un, u
        self._apply_boundary(self._u)
        self._step += 1
        return self.interior.reshape(-1)

    def reset(self) -> None:
        self._u.fill(self.cold_value)
        self._u_next.fill(self.cold_value)
        self._apply_boundary(self._u)
        self._apply_boundary(self._u_next)
        self._step = 0

    # -- field access -------------------------------------------------------
    @property
    def interior(self) -> np.ndarray:
        """This rank's owned planes (halo planes stripped), as a 3-D view."""
        return self._u[1 : 1 + len(self.slab)]

    # -- internals ----------------------------------------------------------
    def _apply_boundary(self, u: np.ndarray) -> None:
        """Dirichlet faces: global z=0 hot, all other global faces cold.

        Only the faces this rank actually owns are touched; interior
        halo planes belong to neighbours.
        """
        cold, hot = self.cold_value, self.hot_value
        u[:, 0, :] = cold
        u[:, -1, :] = cold
        u[:, :, 0] = cold
        u[:, :, -1] = cold
        if not self.slab.has_lower_neighbor:
            u[0, :, :] = hot  # halo plane doubles as the global z=0 face
            u[1, :, :] = hot
        if not self.slab.has_upper_neighbor:
            u[-1, :, :] = cold
            u[-2, :, :] = cold

    def _exchange_halos(self) -> None:
        """Swap boundary planes with z neighbours (buffered send, then recv).

        Sends are buffered in this substrate (as with MPI_Bsend), so the
        symmetric send-then-receive order cannot deadlock.
        """
        comm, slab, u = self.comm, self.slab, self._u
        if slab.has_upper_neighbor:
            comm.send(u[-2].copy(), dest=comm.rank + 1, tag=_HALO_TAG_UP)
        if slab.has_lower_neighbor:
            comm.send(u[1].copy(), dest=comm.rank - 1, tag=_HALO_TAG_DOWN)
        if slab.has_lower_neighbor:
            u[0] = comm.recv(source=comm.rank - 1, tag=_HALO_TAG_UP)
        if slab.has_upper_neighbor:
            u[-1] = comm.recv(source=comm.rank + 1, tag=_HALO_TAG_DOWN)


def reference_heat3d_sequential(
    shape: tuple[int, int, int],
    steps: int,
    alpha: float = 0.1,
    hot_value: float = 100.0,
    cold_value: float = 0.0,
) -> np.ndarray:
    """Independent oracle: the textbook 3-D-slice stencil on the whole
    global grid (same halo and boundary convention); the final interior."""
    nz, ny, nx = shape
    u = np.full((nz + 2, ny, nx), cold_value, dtype=np.float64)
    u[:2] = hot_value
    for _ in range(steps):
        c = u[1:-1, 1:-1, 1:-1]
        lap = (
            u[2:, 1:-1, 1:-1] + u[:-2, 1:-1, 1:-1]
            + u[1:-1, 2:, 1:-1] + u[1:-1, :-2, 1:-1]
            + u[1:-1, 1:-1, 2:] + u[1:-1, 1:-1, :-2]
            - 6.0 * c
        )
        u[1:-1, 1:-1, 1:-1] = c + lap * alpha
        u[1], u[-2] = hot_value, cold_value  # the Dirichlet z faces
    return u[1:-1].copy()
