"""Heat3D: explicit 3-D heat diffusion (the paper's large-output simulation).

The original Heat3D [paper ref 2] solves the transient heat equation on a
3-D grid with an explicit 7-point-stencil (FTCS) update, decomposed across
MPI ranks with halo exchange.  This implementation reproduces that
structure: z-axis slab decomposition over the communicator, one-plane
halos exchanged per step, fully vectorized numpy stencil (the guides'
first rule: no Python-level loops over grid points).

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
        # The stencil sum, reused every step (interior-shaped).
        self._scratch = np.empty((local_nz - 2, ny - 2, nx - 2), dtype=np.float64)
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
        return self._u.nbytes + self._u_next.nbytes + self._scratch.nbytes

    def advance(self) -> np.ndarray:
        """One FTCS step: halo exchange, stencil update, boundary refresh.

        Returns a flattened view of the interior (no copy — the read
        pointer of time-sharing mode).
        """
        self._exchange_halos()
        u, un, acc = self._u, self._u_next, self._scratch
        interior = u[1:-1, 1:-1, 1:-1]
        # interior + alpha * (six neighbours, added left to right, minus
        # 6 * interior), evaluated in that order into reused memory.
        np.add(u[2:, 1:-1, 1:-1], u[:-2, 1:-1, 1:-1], out=acc)
        acc += u[1:-1, 2:, 1:-1]
        acc += u[1:-1, :-2, 1:-1]
        acc += u[1:-1, 1:-1, 2:]
        acc += u[1:-1, 1:-1, :-2]
        acc -= 6.0 * interior
        acc *= self.alpha
        np.add(interior, acc, out=un[1:-1, 1:-1, 1:-1])
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
    """Single-array reference solution used to validate the decomposed run.

    Runs the identical stencil on the full global grid (with the same
    implicit halo convention) and returns the final interior field.
    """
    sim = Heat3D(
        shape, LocalComm(), alpha=alpha, hot_value=hot_value, cold_value=cold_value
    )
    for _ in range(steps):
        sim.advance()
    return sim.interior.copy()
