"""In-transit and hybrid processing (extension; paper Section 6).

The paper positions Smart as deployable beyond pure in-situ placement:
*in-transit* platforms (PreDatA, GLEAN, JITStager, NESSIE) move analytics
to dedicated staging nodes, and *hybrid* platforms (ActiveSpaces,
DataSpaces, FlexIO) split work between simulation and staging nodes —
"our system can be incorporated into these platforms to support
in-transit or hybrid processing."  This module is that incorporation for
this reproduction's substrate.

The world communicator is split by role:

* **simulation ranks** run the simulation; depending on the mode they
  either forward raw partitions to their staging rank (in-transit) or run
  the reduction locally and forward their *local combination map*
  (hybrid — far fewer bytes on the wire, the usual motivation for hybrid
  placement);
* **staging ranks** own the Scheduler: they reduce incoming raw data (or
  merge incoming maps), then combine globally among themselves.

Roles are assigned by rank: the last ``num_staging`` ranks stage, the
rest simulate; simulation rank *i* forwards to staging rank
``i % num_staging``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..comm.interface import Communicator
from .maps import KeyedMap
from .scheduler import Scheduler
from .serialization import deserialize_map, serialize_map

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.base import Simulation

_TAG_DATA = 301
_TAG_MAP = 302


@dataclass(frozen=True)
class Placement:
    """Role assignment for one rank of an in-transit/hybrid job."""

    world_rank: int
    world_size: int
    num_staging: int

    def __post_init__(self) -> None:
        if not 1 <= self.num_staging < self.world_size:
            raise ValueError(
                f"need 1 <= staging ranks < world size, got {self.num_staging} "
                f"of {self.world_size}"
            )

    @property
    def num_simulation(self) -> int:
        return self.world_size - self.num_staging

    @property
    def is_staging(self) -> bool:
        return self.world_rank >= self.num_simulation

    @property
    def staging_index(self) -> int:
        """This staging rank's index among the staging ranks."""
        if not self.is_staging:
            raise ValueError(f"rank {self.world_rank} is a simulation rank")
        return self.world_rank - self.num_simulation

    @property
    def my_staging_rank(self) -> int:
        """The staging rank a simulation rank forwards to."""
        if self.is_staging:
            raise ValueError(f"rank {self.world_rank} is a staging rank")
        return self.num_simulation + (self.world_rank % self.num_staging)

    def producers_for(self, staging_index: int) -> list[int]:
        """Simulation ranks forwarding to the given staging rank."""
        return [
            r for r in range(self.num_simulation) if r % self.num_staging == staging_index
        ]


class InTransitDriver:
    """Run simulation and analytics on disjoint rank groups.

    Parameters
    ----------
    comm:
        The world communicator (every rank of the job).
    num_staging:
        How many trailing ranks are dedicated to analytics.
    mode:
        ``"in_transit"`` ships raw partitions to staging ranks;
        ``"hybrid"`` reduces locally on simulation ranks and ships the
        (much smaller) serialized local combination maps.

    Usage: every rank constructs the driver; simulation ranks call
    :meth:`run_simulation_side` with their simulation (and, in hybrid
    mode, a local scheduler); staging ranks build their sub-communicator
    with :func:`split_staging_comm`, construct the scheduler over it, and
    call :meth:`run_staging_side`.
    """

    def __init__(
        self,
        comm: Communicator,
        num_staging: int,
        *,
        mode: str = "in_transit",
    ):
        if mode not in ("in_transit", "hybrid"):
            raise ValueError(f"unknown mode {mode!r}")
        self.comm = comm
        self.placement = Placement(comm.rank, comm.size, num_staging)
        self.mode = mode

    # -- the SPMD entry points -------------------------------------------
    def run_simulation_side(
        self,
        simulation: "Simulation",
        num_steps: int,
        *,
        local_scheduler: Scheduler | None = None,
        multi_key: bool = False,
    ) -> int:
        """Simulation-rank body: advance and forward every time-step.

        In hybrid mode ``local_scheduler`` performs the rank-local
        reduction (its global combination must be off); the serialized
        local map is forwarded instead of the raw partition.

        Returns the number of payload bytes shipped (for the ablation
        bench comparing the two modes).
        """
        placement = self.placement
        if placement.is_staging:
            raise RuntimeError("run_simulation_side called on a staging rank")
        if self.mode == "hybrid":
            if local_scheduler is None:
                raise ValueError("hybrid mode needs a local_scheduler")
            local_scheduler.set_global_combination(False)
        dest = placement.my_staging_rank
        tag = _TAG_DATA if self.mode == "in_transit" else _TAG_MAP
        shipped = 0
        for _ in range(num_steps):
            partition = simulation.advance()
            if self.mode == "in_transit":
                payload = np.array(partition, copy=True)
                shipped += payload.nbytes
            else:
                runner = local_scheduler.run2 if multi_key else local_scheduler.run
                runner(partition)
                payload = serialize_map(
                    local_scheduler.get_combination_map(),
                    local_scheduler.policy.combine.wire_format,
                )
                local_scheduler.reset()
                shipped += len(payload)
            self.comm.send(payload, dest=dest, tag=tag)
        self.comm.send(None, dest=dest, tag=tag)  # end-of-stream sentinel
        return shipped

    def run_staging_side(
        self,
        scheduler: Scheduler,
        *,
        multi_key: bool = False,
    ) -> KeyedMap:
        """Staging-rank body: consume forwarded steps until every producer
        signals completion, then return the combination map.

        The scheduler's communicator must be the staging group's
        sub-communicator so its global combination spans staging ranks
        only.
        """
        placement = self.placement
        if not placement.is_staging:
            raise RuntimeError("run_staging_side called on a simulation rank")
        producers = placement.producers_for(placement.staging_index)
        live = set(producers)
        tag = _TAG_DATA if self.mode == "in_transit" else _TAG_MAP
        # Round-robin over producers: per (source, tag) delivery is FIFO,
        # so each recv sees that producer's next step or its sentinel.
        while live:
            for source in list(live):
                payload = self.comm.recv(source=source, tag=tag)
                if payload is None:
                    live.discard(source)
                    continue
                if self.mode == "in_transit":
                    runner = scheduler.run2 if multi_key else scheduler.run
                    # Per-step reduction stays staging-local; the global
                    # combination across staging ranks happens once at the
                    # end.
                    scheduler.set_global_combination(False)
                    runner(payload)
                else:
                    scheduler.get_combination_map().merge_map(
                        deserialize_map(payload), scheduler.merge
                    )
        # Final global combination across staging ranks.
        scheduler.set_global_combination(True)
        from .serialization import global_combine

        scheduler.combination_map_ = global_combine(
            scheduler.comm, scheduler.combination_map_, scheduler.merge,
            combine=scheduler.policy.combine,
        )
        scheduler.post_combine(scheduler.combination_map_)
        return scheduler.combination_map_


def split_staging_comm(comm: Communicator, num_staging: int) -> Communicator | None:
    """Build the staging-group communicator (collective over all ranks).

    Returns the sub-communicator on staging ranks, ``None`` on simulation
    ranks.  A thin wrapper over :func:`repro.comm.subgroup.split_comm`:
    staging ranks form one color, simulation ranks none.
    """
    from ..comm.subgroup import split_comm

    placement = Placement(comm.rank, comm.size, num_staging)
    color = "staging" if placement.is_staging else None
    return split_comm(comm, color, key=comm.rank)
