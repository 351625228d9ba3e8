"""LULESH-like explicit shock-hydrodynamics proxy (moderate-output sim).

The paper uses LULESH [ref 3] purely as a simulation whose per-step output
is *moderate* (< 100 MB/node) and whose memory consumption grows
*cubically* with the configured edge size (Section 5.5 varies ``edge``
from 100 to 233 to sweep memory pressure).  This proxy reproduces exactly
those externally visible properties with a Sedov-blast-flavoured explicit
update on an ``edge³`` cube per rank:

* state: internal energy ``e``, relative volume ``v``, pressure ``p``,
  and a node-centred velocity magnitude ``q`` (four float64 cubes —
  cubic memory growth);
* per step: pressure from an ideal-gas-like EOS, artificial-viscosity
  damped energy update, and a diffusion-like volume relaxation — each a
  handful of vectorized stencil operations, structurally similar to the
  Lagrangian leapfrog in LULESH;
* halo: one-plane z exchange with neighbouring ranks so multi-rank runs
  stay coupled like the real domain-decomposed code;
* output: the energy field only (one cube of the four), so output volume
  is a fraction of the working set — the 'moderate output' property.
"""

from __future__ import annotations

import numpy as np

from ..comm.interface import Communicator
from ..comm.local import LocalComm
from .base import Simulation

_TAG_UP = 201
_TAG_DOWN = 202


class LuleshProxy(Simulation):
    """Sedov-blast-style explicit hydro proxy on an ``edge³`` cube per rank.

    Parameters
    ----------
    edge:
        Elements per cube edge on this rank (the paper's Section 5.5 /
        5.7 sweep variable; memory grows as ``4 · 8 · edge³`` bytes).
    comm:
        Communicator; ranks are coupled along z like a 1-D pencil of
        subdomains, mirroring how LULESH tiles nodes.
    gamma:
        EOS exponent (ideal-gas-like closure).
    cfl:
        Time-step scale of the explicit updates; keep < 0.3 for bounded
        trajectories.
    """

    def __init__(
        self,
        edge: int,
        comm: Communicator | None = None,
        gamma: float = 1.4,
        cfl: float = 0.2,
        seed: int = 1234,
    ):
        if edge < 3:
            raise ValueError(f"edge must be >= 3, got {edge}")
        if not 0.0 < cfl < 0.5:
            raise ValueError(f"cfl must be in (0, 0.5), got {cfl}")
        self.comm = comm if comm is not None else LocalComm()
        self.edge = int(edge)
        self.gamma = float(gamma)
        self.cfl = float(cfl)
        self.seed = seed
        shape = (edge, edge, edge)
        self.e = np.zeros(shape)  # internal energy
        self.v = np.ones(shape)  # relative volume
        self.p = np.zeros(shape)  # pressure
        self.q = np.zeros(shape)  # viscosity/velocity proxy
        self._step = 0
        self._deposit_initial_energy()

    def _deposit_initial_energy(self) -> None:
        """Sedov initialization: a point energy deposit at the rank-0 origin
        corner plus a small random perturbation field (deterministic seed)
        so the analytics see non-degenerate data from step one."""
        rng = np.random.default_rng(self.seed + self.comm.rank)
        self.e += 1e-3 * rng.random(self.e.shape)
        if self.comm.rank == 0:
            self.e[0, 0, 0] = float(self.edge) ** 1.5  # scaled point blast

    # -- Simulation interface ---------------------------------------------
    @property
    def step(self) -> int:
        return self._step

    @property
    def partition_elements(self) -> int:
        return self.edge**3

    @property
    def memory_nbytes(self) -> int:
        return self.e.nbytes + self.v.nbytes + self.p.nbytes + self.q.nbytes

    def advance(self) -> np.ndarray:
        """One explicit step: EOS, viscosity, energy/volume update, halo.

        Returns the flattened energy field (a no-copy view).
        """
        dt = self.cfl / self.edge
        # Equation of state: p = (gamma - 1) * e / v  (ideal-gas closure).
        np.divide(self.e, self.v, out=self.p)
        self.p *= self.gamma - 1.0
        # Artificial viscosity proxy: local pressure curvature along each
        # axis (the role q plays in LULESH's shock capturing).
        lap = _laplacian(self.p)
        np.abs(lap, out=self.q)
        # Energy update: advection-free Lagrangian work term dissipates
        # pressure peaks into the neighbourhood (energy is conserved up to
        # the boundary flux, see tests).
        self.e += dt * lap
        np.maximum(self.e, 0.0, out=self.e)
        # Volume relaxation toward uniform (compression spreads out).
        self.v += dt * _laplacian(self.v)
        np.clip(self.v, 0.1, 10.0, out=self.v)
        self._exchange_halos()
        self._step += 1
        return self.e.reshape(-1)

    def fields(self) -> dict[str, np.ndarray]:
        """All simulated fields by name (views, not copies).

        Multi-variable analytics — e.g. mutual information between energy
        and pressure — read additional fields here; ``advance()`` returns
        only the energy field, the simulation's nominal output.
        """
        return {"energy": self.e, "volume": self.v, "pressure": self.p,
                "viscosity": self.q}

    def reset(self) -> None:
        self.e.fill(0.0)
        self.v.fill(1.0)
        self.p.fill(0.0)
        self.q.fill(0.0)
        self._step = 0
        self._deposit_initial_energy()

    # -- internals ----------------------------------------------------------
    def _exchange_halos(self) -> None:
        """Blend boundary energy planes with z neighbours (coupling term).

        The proxy keeps each rank's cube self-contained (as LULESH keeps a
        subdomain per rank) and exchanges boundary planes of the energy
        field, averaging the received plane into the local boundary.
        """
        comm = self.comm
        if comm.size == 1:
            return
        rank, size = comm.rank, comm.size
        if rank + 1 < size:
            comm.send(self.e[-1].copy(), dest=rank + 1, tag=_TAG_UP)
        if rank > 0:
            comm.send(self.e[0].copy(), dest=rank - 1, tag=_TAG_DOWN)
        if rank > 0:
            incoming = comm.recv(source=rank - 1, tag=_TAG_UP)
            self.e[0] = 0.5 * (self.e[0] + incoming)
        if rank + 1 < size:
            incoming = comm.recv(source=rank + 1, tag=_TAG_DOWN)
            self.e[-1] = 0.5 * (self.e[-1] + incoming)


def _laplacian(field: np.ndarray) -> np.ndarray:
    """6-neighbour Laplacian with reflecting edges, fully vectorized.

    Each axis's ``upper + lower`` neighbour pair is built by slicing into
    one reused buffer; the edge plane reflects onto itself.
    """
    lap = -6.0 * field
    pair = np.empty_like(field)
    for axis in range(3):
        f, p = np.moveaxis(field, axis, 0), np.moveaxis(pair, axis, 0)
        p[:-1] = f[1:]
        p[-1] = f[-1]
        p[1:] += f[:-1]
        p[0] += f[0]
        lap += pair
    return lap
