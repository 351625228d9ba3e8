"""Time-sharing in-situ mode (paper Section 3.2, Figure 3; Listing 1).

Simulation and analytics run *in turns* on the same cores.  When a
time-step's output partition is ready, Smart sets a read pointer on that
memory (here: processes the numpy array view directly, no copy) and the
analytics must finish before the simulation resumes and overwrites it.

:class:`TimeSharingDriver` wires a simulation and a scheduler into that
loop and records the per-phase timings the evaluation figures need.  Two
steady-state extensions ride on the execution engine's resident
buffers:

* **Double buffering** (``TimeSharingDriver(double_buffer=True)``) — the
  simulation writes each step straight into one of two alternating
  engine ``step_buffer`` slots.  On the process engine those slots are
  resident shared-memory segments, so the partition reaches the worker
  pool with *zero* copies (the serial loop pays one copy per step:
  simulation buffer into the per-run segment).
* **Pipelining** (:class:`PipelinedTimeSharingDriver`) — simulation of
  step ``t+1`` overlaps analytics of step ``t``, bounded by the same
  two slots: the producer can run at most one step ahead, so a slot is
  never overwritten while the analytics still reads it (the Figure-3
  torn-read hazard is excluded by construction, not by discipline).
  Results are bit-exact with the serial driver — steps are analyzed in
  order against the same byte streams.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .circular_buffer import BufferClosed, CircularBuffer
from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.base import Simulation


@dataclass
class StepTiming:
    """Wall-clock seconds of one time-step, split by phase.

    ``overlap_seconds`` is the portion of this step's simulate phase that
    ran concurrently with analytics of the previous step (always 0 for
    the serial drivers); ``total`` is the step's contribution to
    wall-clock, i.e. the overlapped time is counted once, not twice.
    """

    simulate: float
    analyze: float
    overlap_seconds: float = 0.0

    @property
    def total(self) -> float:
        return self.simulate + self.analyze - self.overlap_seconds


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
    def overlap_seconds(self) -> float:
        """Seconds of simulate/analyze concurrency reclaimed by pipelining."""
        return sum(s.overlap_seconds for s in self.steps)

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
    double_buffer:
        Write simulation output directly into two alternating
        engine-resident ``step_buffer`` slots (via
        :meth:`~repro.sim.base.Simulation.advance_into`) instead of the
        simulation's own buffer.  On the process engine each step is then
        a *direct* residency hit — no copy-in.  Off by default: the plain
        mode matches the paper's Listing 1 exactly.
    """

    def __init__(
        self,
        simulation: "Simulation",
        scheduler: Scheduler,
        *,
        multi_key: bool = False,
        out_factory: Callable[[np.ndarray], np.ndarray] | None = None,
        per_step: Callable[[int, Scheduler, np.ndarray | None], None] | None = None,
        double_buffer: bool = False,
    ):
        self.simulation = simulation
        self.scheduler = scheduler
        self.multi_key = multi_key
        self.out_factory = out_factory
        self.per_step = per_step
        self.double_buffer = double_buffer

    def _advance(self, step: int) -> np.ndarray:
        """One simulation step, honouring the buffering mode."""
        if self.double_buffer:
            buf = self.scheduler.engine.step_buffer(
                step % 2, (self.simulation.partition_elements,), np.float64
            )
            return self.simulation.advance_into(buf)
        partition = self.simulation.advance()
        # The simulation may reuse its output buffer in place (Figure 3);
        # tell the residency layer so the engine re-copies this step.
        self.scheduler.notify_data_changed()
        return partition

    def run(self, num_steps: int) -> TimeSharingResult:
        """Alternate ``num_steps`` simulate/analyze rounds (Listing 1 loop)."""
        result = TimeSharingResult()
        out = None
        for step in range(num_steps):
            t0 = time.perf_counter()
            partition = self._advance(step)
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


class PipelinedTimeSharingDriver(TimeSharingDriver):
    """Overlap simulation of step ``t+1`` with analytics of step ``t``.

    A producer thread advances the simulation into engine-resident
    ``step_buffer`` slots; the calling thread drains them in order and
    runs the analytics.  The pipeline depth (default 2 — classic double
    buffering) bounds how far the producer may run ahead: a slot is only
    recycled after its analytics completes, so the in-place-overwrite
    hazard of plain time sharing cannot occur.

    Determinism: steps are analyzed strictly in order against exactly the
    bytes ``advance_into`` produced, so the output is bit-exact with
    ``TimeSharingDriver`` over the same simulation (the tests assert it
    for every engine backend).

    Telemetry (written into the scheduler's recorder): the
    ``pipeline.steps`` counter, ``pipeline.overlap_seconds`` /
    ``pipeline.producer_wait_seconds`` / ``pipeline.consumer_wait_seconds``
    timers, and the ``pipeline.buffer_high_water`` gauge.  Per-step
    :attr:`StepTiming.overlap_seconds` reports how much of each simulate
    phase was hidden behind the previous step's analytics.

    Note: with an in-process engine on a single core, a CPU-bound
    simulation and CPU-bound analytics serialize on the GIL or the core
    itself; pipelining pays off when the simulation has wait phases
    (halo exchange, I/O, accelerator kernels) or the analytics runs on
    the process engine.
    """

    def __init__(
        self,
        simulation: "Simulation",
        scheduler: Scheduler,
        *,
        multi_key: bool = False,
        out_factory: Callable[[np.ndarray], np.ndarray] | None = None,
        per_step: Callable[[int, Scheduler, np.ndarray | None], None] | None = None,
        depth: int = 2,
    ):
        if depth < 2:
            raise ValueError(f"pipeline depth must be >= 2, got {depth}")
        super().__init__(
            simulation,
            scheduler,
            multi_key=multi_key,
            out_factory=out_factory,
            per_step=per_step,
            double_buffer=True,
        )
        self.depth = depth

    def run(self, num_steps: int) -> TimeSharingResult:
        result = TimeSharingResult()
        out = None
        telemetry = self.scheduler.telemetry
        engine = self.scheduler.engine  # created on this thread, once
        elements = self.simulation.partition_elements
        free: CircularBuffer = CircularBuffer(self.depth)
        ready: CircularBuffer = CircularBuffer(self.depth)
        for slot in range(self.depth):
            free.put(slot)
        failure: list[BaseException] = []

        def produce() -> None:
            try:
                for _ in range(num_steps):
                    with telemetry.span("pipeline.producer_wait_seconds"):
                        slot = free.get()
                    buf = engine.step_buffer(slot, (elements,), np.float64)
                    s0 = time.perf_counter()
                    partition = self.simulation.advance_into(buf)
                    s1 = time.perf_counter()
                    ready.put((slot, partition, s0, s1))
            except BufferClosed:  # consumer bailed out early
                pass
            except BaseException as exc:  # surfaced on the consumer thread
                failure.append(exc)
            finally:
                ready.close()

        producer = threading.Thread(target=produce, name="smart-pipeline-sim")
        producer.start()
        prev_analyze: tuple[float, float] | None = None
        try:
            for step in range(num_steps):
                try:
                    with telemetry.span("pipeline.consumer_wait_seconds"):
                        slot, partition, s0, s1 = ready.get()
                except BufferClosed:  # producer died; failure holds why
                    break
                a0 = time.perf_counter()
                out = self.out_factory(partition) if self.out_factory else None
                runner = self.scheduler.run2 if self.multi_key else self.scheduler.run
                runner(partition, out)
                if self.per_step is not None:
                    self.per_step(step, self.scheduler, out)
                a1 = time.perf_counter()
                free.put(slot)
                # This step's simulate phase overlapped the previous
                # step's analyze phase; the intersection is wall-clock
                # the pipeline reclaimed.
                overlap = 0.0
                if prev_analyze is not None:
                    overlap = max(
                        0.0, min(s1, prev_analyze[1]) - max(s0, prev_analyze[0])
                    )
                prev_analyze = (a0, a1)
                result.steps.append(
                    StepTiming(
                        simulate=s1 - s0, analyze=a1 - a0, overlap_seconds=overlap
                    )
                )
                telemetry.add_time("pipeline.overlap_seconds", overlap)
                telemetry.inc("pipeline.steps")
        finally:
            free.close()
            producer.join()
            telemetry.set_gauge("pipeline.buffer_high_water", ready.high_water)
        if failure:
            raise failure[0]
        result.output = out if out is not None else self.scheduler.get_combination_map()
        return result
