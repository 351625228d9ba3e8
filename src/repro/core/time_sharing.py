"""Time-sharing in-situ mode (paper Section 3.2, Figure 3; Listing 1).

Simulation and analytics run *in turns* on the same cores.  When a
time-step's output partition is ready, Smart sets a read pointer on that
memory (here: the numpy array view is handed to ``run`` as it is; the
engines reduce it in place, but the process engine's workers read copies
of their own splits) and the analytics must finish before the simulation
resumes and overwrites it.

:class:`TimeSharingDriver` wires a simulation and a scheduler into that
loop and records the per-phase timings the evaluation figures need.
Overlapping simulation with analytics is the paper's other mode:
:class:`~repro.core.space_sharing.SpaceSharingDriver`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.base import Simulation


@dataclass
class StepTiming:
    """Wall-clock seconds of one time-step, split by phase."""

    simulate: float
    analyze: float

    @property
    def total(self) -> float:
        return self.simulate + self.analyze


@dataclass
class TimeSharingResult:
    """Outcome of a time-sharing run."""

    steps: list[StepTiming] = field(default_factory=list)
    output: Any = None

    @property
    def simulate_seconds(self) -> float:
        return sum(s.simulate for s in self.steps)

    @property
    def analyze_seconds(self) -> float:
        return sum(s.analyze for s in self.steps)

    @property
    def total_seconds(self) -> float:
        return sum(s.total for s in self.steps)


class TimeSharingDriver:
    """Run a simulation with in-situ analytics, alternating per time-step.

    Parameters
    ----------
    simulation:
        Any object with ``advance() -> np.ndarray`` returning this rank's
        output partition for the next time-step (see
        :class:`repro.sim.base.Simulation`).
    scheduler:
        The analytics application.  Its ``policy.copy_input`` decides
        whether the partition is processed through the read pointer
        (paper's design) or via an extra copy (Fig. 9's comparison).
    multi_key:
        Use ``run2``/``gen_keys`` (window-based analytics).
    out_factory:
        Optional callable ``(partition) -> np.ndarray`` building the output
        array for each step; required for early-emission analytics.
    per_step:
        Optional callback ``(step_index, scheduler, out)`` observed after
        every analytics run — e.g. to reset state or snapshot results.
    """

    def __init__(
        self,
        simulation: "Simulation",
        scheduler: Scheduler,
        *,
        multi_key: bool = False,
        out_factory: Callable[[np.ndarray], np.ndarray] | None = None,
        per_step: Callable[[int, Scheduler, np.ndarray | None], None] | None = None,
    ):
        self.simulation = simulation
        self.scheduler = scheduler
        self.multi_key = multi_key
        self.out_factory = out_factory
        self.per_step = per_step

    def run(self, num_steps: int) -> TimeSharingResult:
        """Alternate ``num_steps`` simulate/analyze rounds (Listing 1 loop)."""
        result = TimeSharingResult()
        out = None
        for step in range(num_steps):
            t0 = time.perf_counter()
            partition = self.simulation.advance()
            t1 = time.perf_counter()
            out = self.out_factory(partition) if self.out_factory else None
            runner = self.scheduler.run2 if self.multi_key else self.scheduler.run
            # Read pointer: the partition array itself is handed to the
            # analytics; the simulation is *not* advanced again until run
            # returns, so the shared memory is never torn (Figure 3).
            runner(partition, out)
            if self.per_step is not None:
                self.per_step(step, self.scheduler, out)
            t2 = time.perf_counter()
            result.steps.append(StepTiming(simulate=t1 - t0, analyze=t2 - t1))
        result.output = out if out is not None else self.scheduler.get_combination_map()
        return result
