"""Scheduler arguments (paper Table 1, runtime function 1).

``SchedArgs(int num_threads, size_t chunk_size, const void* extra_data,
int num_iters)`` from the C++ API, extended with the knobs this
reproduction adds (block streaming, real threading, the map-path
selector, space-sharing buffer capacity, and the Fig-9 extra-copy toggle).

.. deprecated::
    ``SchedArgs`` is now a thin facade over the layered
    :class:`~repro.core.policy.ExecutionPolicy`: construction lowers the
    flat knobs onto per-concern policies (:meth:`SchedArgs.to_policy`),
    which own all validation, fingerprints, and defaults.  Every
    existing ``SchedArgs(...)`` spelling keeps working and produces a
    bit-identical run; new code should construct policies directly (see
    the migration table in docs/API.md).  A single
    ``PendingDeprecationWarning`` per process marks the facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..faults import FaultPolicy
from .policy import CombinePolicy, EnginePolicy, ExecutionPolicy, warn_once


@dataclass
class SchedArgs:
    """Configuration for a :class:`~repro.core.scheduler.Scheduler`.

    Parameters
    ----------
    num_threads:
        Threads per process for the reduction phase.  To maximize
        analytics performance this should equal the simulation's thread
        count in time-sharing mode (paper Listing 1 discussion).
    chunk_size:
        Elements per unit chunk — often the feature-vector length of the
        analytics (1 for histogram, ``num_dims`` for k-means).
    extra_data:
        Additional analytics input (e.g. initial k-means centroids),
        handed to ``process_extra_data``.  Default ``None``.
    num_iters:
        Iterations for iterative processing (k-means, logistic
        regression).  Default 1.
    block_size:
        Elements per scheduler block; the runtime processes a partition
        block by block.  ``None`` processes the whole partition as one
        block.
    engine:
        Execution backend for the reduction phase: ``"serial"`` (in-order
        loop, deterministic — the default), ``"thread"`` (persistent
        thread pool owned by the scheduler), or ``"process"``
        (persistent process pool over shared-memory input, GIL-free).
        All backends produce identical results.
    map_path:
        Map-phase implementation selector (``"auto"``, ``"scalar"``, or
        ``"batch"``) — see
        :attr:`repro.core.policy.EnginePolicy.map_path`.
    buffer_capacity:
        Cells in the space-sharing circular buffer (paper Figure 4).
    copy_input:
        Time-sharing only: make an extra copy of the simulation output
        before analytics instead of processing through the read pointer.
        Exists solely to reproduce the paper's Figure 9 comparison.
    disable_early_emission:
        Ignore reduction-object triggers, holding every object until the
        combination phase — the unoptimized implementation the paper's
        Figure 11 compares against.
    combine_algorithm:
        Global-combination algorithm: ``"gather"`` (the paper's
        merge-on-master), ``"tree"`` (binomial reduce, merging work
        spread across ranks), or ``"allreduce"`` (contiguous elementwise
        reduce of packed records — the hand-written-MPI shape of the
        paper's Section 5.3; requires every schema field to declare a
        merge ufunc, otherwise falls back to ``"gather"``).
    wire_format:
        Global-combination wire format: ``"pickle"`` (the paper's
        design point — reduction objects serialized noncontiguously,
        the overhead Section 5.3 measures) or ``"columnar"`` (maps with
        a :class:`~repro.core.red_obj.Field` schema travel as one
        contiguous keys-array plus one structured records-array and are
        merged with per-field ufuncs; schemaless maps still fall back
        to pickle).
    residency:
        Process-engine input residency: ``"auto"`` (the default) keeps
        the partition's shared-memory segment alive across ``run()``
        calls and skips the copy-in when the incoming array is the same
        unchanged buffer (iterative analytics re-running one partition)
        or an engine ``step_buffer`` slot the producer filled directly
        (double-buffered drivers); ``"off"`` restores the
        segment-per-run behaviour — allocate, copy, release every run.
        Contract for ``"auto"``: a caller that rewrites a previously-run
        array *in place* must call ``Scheduler.notify_data_changed()``
        (the time-sharing drivers do) so the engine re-copies.
    fault_policy:
        How the runtime reacts to a detected fault (a dead or hung
        process-engine worker): ``"fail_fast"`` (the default — the
        failure propagates as :class:`~repro.faults.EngineFaultError`),
        ``"retry"`` (the supervisor respawns the pool and the scheduler
        replays the current iteration from the last consistent
        combination map, with exponential backoff — bit-exact results),
        or ``"degrade"`` (the failed workers' split contributions are
        dropped for that iteration and recorded in ``faults.*``
        telemetry).  Accepts a mode name or a configured
        :class:`~repro.faults.FaultPolicy` (e.g.
        ``FaultPolicy.retry(max_attempts=5, task_deadline=2.0)``).
    """

    num_threads: int = 1
    chunk_size: int = 1
    extra_data: Any = None
    num_iters: int = 1
    block_size: int | None = None
    engine: str = "serial"
    map_path: str = "auto"
    buffer_capacity: int = 4
    copy_input: bool = False
    disable_early_emission: bool = False
    combine_algorithm: str = "gather"
    wire_format: str = "pickle"
    residency: str = "auto"
    fault_policy: str | FaultPolicy = "fail_fast"

    def __post_init__(self) -> None:
        warn_once(
            "sched_args.facade",
            "SchedArgs is a facade over repro.core.policy.ExecutionPolicy; "
            "prefer constructing policies directly (see docs/API.md)",
            PendingDeprecationWarning,
            stacklevel=3,
        )
        # Lowering validates every knob exactly once, in the policy layer
        # — the single home of the runtime's validity rules.
        self._policy = self.to_policy()

    def to_policy(self) -> ExecutionPolicy:
        """Lower the flat knobs onto the layered policy object."""
        return ExecutionPolicy(
            engine=EnginePolicy(
                backend=self.engine,
                num_threads=self.num_threads,
                residency=self.residency,
                map_path=self.map_path,
            ),
            combine=CombinePolicy(
                algorithm=self.combine_algorithm,
                wire_format=self.wire_format,
            ),
            fault=FaultPolicy.parse(self.fault_policy),
            chunk_size=self.chunk_size,
            num_iters=self.num_iters,
            block_size=self.block_size,
            extra_data=self.extra_data,
            buffer_capacity=self.buffer_capacity,
            copy_input=self.copy_input,
            disable_early_emission=self.disable_early_emission,
        )

    @property
    def policy(self) -> ExecutionPolicy:
        """The :class:`~repro.core.policy.ExecutionPolicy` this facade
        lowered to at construction."""
        return self._policy

    @property
    def resolved_engine(self) -> str:
        """The effective backend name."""
        return self._policy.resolved_engine

    @property
    def resolved_fault_policy(self) -> FaultPolicy:
        """The effective :class:`~repro.faults.FaultPolicy` object."""
        return self._policy.resolved_fault_policy
