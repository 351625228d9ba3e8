"""Space-sharing in-situ mode (paper Section 3.2, Figure 4; Listing 2).

Simulation and analytics run *concurrently* on two disjoint core groups of
each node.  The simulation task feeds each finished time-step into the
scheduler's circular buffer (copying it — unlike time sharing, the
producer immediately moves on and may overwrite its own buffers); the
analytics task drains and processes the cells.  This module reproduces
Listing 2's two-OpenMP-task structure with two Python threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.base import Simulation


@dataclass
class CoreSplit:
    """How a node's cores are divided between the two tasks.

    The paper's Figure 10 labels schemes ``n_m``: ``n`` simulation threads
    and ``m`` analytics threads.
    """

    sim_threads: int
    analytics_threads: int

    def __post_init__(self) -> None:
        if self.sim_threads < 1 or self.analytics_threads < 1:
            raise ValueError(
                f"both core groups need >= 1 core, got "
                f"{self.sim_threads}_{self.analytics_threads}"
            )

    @property
    def label(self) -> str:
        return f"{self.sim_threads}_{self.analytics_threads}"

    @property
    def total(self) -> int:
        return self.sim_threads + self.analytics_threads


@dataclass
class SpaceSharingResult:
    """Outcome of a space-sharing run."""

    elapsed_seconds: float = 0.0
    producer_seconds: float = 0.0
    consumer_seconds: float = 0.0
    steps: int = 0
    producer_blocks: int = 0
    consumer_blocks: int = 0
    output: Any = None


class SpaceSharingDriver:
    """Run simulation and analytics concurrently through the circular buffer.

    Parameters
    ----------
    simulation:
        Object with ``advance() -> np.ndarray``.
    scheduler:
        The analytics application; its ``policy.buffer_capacity`` sizes
        the circular buffer and ``policy.engine.num_threads`` is the
        analytics core group (``CoreSplit.analytics_threads``).
    core_split:
        The ``n_m`` scheme.  Informational on this single-core host, but
        recorded so the performance model can replay the run on the
        paper's Xeon Phi node model.
    multi_key / out_factory / per_step:
        As in :class:`~repro.core.time_sharing.TimeSharingDriver`.
    """

    def __init__(
        self,
        simulation: "Simulation",
        scheduler: Scheduler,
        core_split: CoreSplit,
        *,
        multi_key: bool = False,
        out_factory: Callable[[np.ndarray], np.ndarray] | None = None,
        per_step: Callable[[int, Scheduler, np.ndarray | None], None] | None = None,
    ):
        self.simulation = simulation
        self.scheduler = scheduler
        self.core_split = core_split
        self.multi_key = multi_key
        self.out_factory = out_factory
        self.per_step = per_step

    def run(self, num_steps: int) -> SpaceSharingResult:
        """Execute the two tasks of Listing 2 and join them."""
        result = SpaceSharingResult(steps=num_steps)
        errors: list[BaseException] = []

        def simulation_task() -> None:
            t0 = time.perf_counter()
            try:
                for _ in range(num_steps):
                    partition = self.simulation.advance()
                    self.scheduler.feed(partition)
            except BaseException as exc:  # noqa: BLE001 - surfaced after join
                errors.append(exc)
                self.scheduler.close_feed()
            finally:
                result.producer_seconds = time.perf_counter() - t0

        def analytics_task() -> None:
            t0 = time.perf_counter()
            out = None
            try:
                for step in range(num_steps):
                    partition = None  # consume from the circular buffer
                    out = None
                    if self.out_factory is not None:
                        # Output shape may depend on the partition, which is
                        # only known after get(); pull manually in that case.
                        partition = self.scheduler._feed_buffer().get()
                        out = self.out_factory(partition)
                    runner = self.scheduler.run2 if self.multi_key else self.scheduler.run
                    runner(partition, out)
                    if self.per_step is not None:
                        self.per_step(step, self.scheduler, out)
                result.output = (
                    out if out is not None else self.scheduler.get_combination_map()
                )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                result.consumer_seconds = time.perf_counter() - t0

        t_start = time.perf_counter()
        producer = threading.Thread(target=simulation_task, name="smart-sim-task")
        consumer = threading.Thread(target=analytics_task, name="smart-analytics-task")
        producer.start()
        consumer.start()
        producer.join()
        consumer.join()
        result.elapsed_seconds = time.perf_counter() - t_start

        buffer = self.scheduler._feed_buffer()
        result.producer_blocks = buffer.producer_blocks
        result.consumer_blocks = buffer.consumer_blocks
        if errors:
            raise errors[0]
        return result
