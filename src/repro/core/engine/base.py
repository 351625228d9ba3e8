"""The execution-engine interface: *how* splits are reduced.

The paper separates what an analytics computes (Table 1 callbacks) from
how the runtime executes it (OpenMP threads within a rank, MPI across
ranks).  The scheduler owns the *what* — blocks, splits, reduction maps,
combination — and delegates the *how* to an :class:`ExecutionEngine`,
the intra-rank analogue of the pluggable communicator backends in
``repro.comm``: the same Algorithm-1 structure runs over a serial loop,
a persistent thread pool, or owned worker processes over shared-memory
input, selected by ``EnginePolicy.backend``.

Lifecycle: an engine is created lazily on the scheduler's first run and
lives for the scheduler's lifetime (``start`` once, ``shutdown`` once —
asserted by the ``engine.pools_created`` telemetry counter, which counts
worker teams: a worker replaced after a fault is not a new team).  Engines
hold a strong reference to their scheduler only between ``begin_run``
and ``end_run``, so dropping the scheduler drops the engine and its
worker pool with it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..chunk import Split
from ..maps import KeyedMap

if TYPE_CHECKING:  # pragma: no cover
    from ...telemetry import Recorder
    from ..policy import EnginePolicy
    from ..scheduler import Scheduler


def join_keys(parts: list[np.ndarray]) -> np.ndarray:
    """The early-emitted keys of several splits or blocks as one ``int64`` array."""
    return np.concatenate(parts) if len(parts) > 1 else parts[0] if parts else np.empty(0, np.int64)


class ExecutionEngine:
    """Maps splits onto an execution substrate and collects emitted keys.

    Per-engine telemetry (written into the scheduler's recorder):

    * ``engine.pools_created`` — worker pools created over the engine's
      lifetime (1 for the pooled engines, 0 for serial and for a
      one-thread process engine).
    * ``engine.splits`` — splits executed.
    * ``engine.split_seconds`` timer — per-split wall-clock.
    """

    name: str = "?"
    #: True when the backend reduces splits in a fixed order on one
    #: thread — the property the conformance oracle requires of its
    #: reference execution (``repro.verify`` refuses a non-deterministic
    #: oracle engine).
    deterministic: bool = False

    def __init__(self, num_workers: int, telemetry: "Recorder"):
        self.num_workers = int(num_workers)
        self.telemetry = telemetry
        self._sched: "Scheduler | None" = None
        self._data: np.ndarray | None = None
        self._out: np.ndarray | None = None
        self._multi_key = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Acquire execution resources (worker pools).  Idempotent."""

    def shutdown(self) -> None:
        """Release execution resources.  Idempotent."""

    def begin_run(
        self,
        scheduler: "Scheduler",
        data: np.ndarray,
        out: np.ndarray | None,
        multi_key: bool,
    ) -> None:
        """Bind one partition's context for the duration of a run."""
        self._sched = scheduler
        self._data = data
        self._out = out
        self._multi_key = multi_key

    def end_run(self) -> None:
        """Drop the per-run context (breaks the scheduler reference cycle)."""
        self._sched = None
        self._data = None
        self._out = None

    def invalidate_state(self) -> None:
        """Scheduler state changed mid-run (combination phase ran).

        In-process engines see the change for free; the process engine
        overrides this to retire the delta its workers hold (and the
        reduction maps they kept for the iteration that just ended).
        """

    # -- execution ---------------------------------------------------------
    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> np.ndarray:
        """Reduce every split of one block; return the early-emitted keys
        as one ``int64`` array.

        Each split is reduced against ``red_maps[split.thread_id]``
        (mutated in place).  This default reduces the splits in order on
        the calling thread; the thread engine spreads the same calls over
        its pool, and the process engine reduces thread 0's here and the
        others' in its workers and folds their replies back, raising
        :class:`~repro.faults.EngineFaultError` when a worker was lost.
        A list first handed in must be an iteration's fresh maps
        (``Scheduler._make_reduction_maps``): the process engine's
        workers derive those themselves, and go on from the maps they
        kept while later blocks hand in the same list.  After a raise
        the iteration is void; replay it with a new list.
        """
        return join_keys([self._reduce(split, red_maps[split.thread_id]) for split in splits])

    def _reduce(self, split: Split, red_map: KeyedMap) -> np.ndarray:
        """Reduce one split in this process, timed; its emitted keys."""
        sched = self._sched
        assert sched is not None, "map_splits outside begin_run/end_run"
        with self.telemetry.span("engine.split_seconds"):
            emitted = sched._reduce_split(split, red_map, self._data, self._out, self._multi_key)
        self.telemetry.inc("engine.splits")
        return emitted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.num_workers})"


def create_engine(
    policy: "EnginePolicy", telemetry: "Recorder | None" = None
) -> ExecutionEngine:
    """Instantiate the engine an :class:`~repro.core.policy.EnginePolicy`
    names (the policy has already validated the backend), with
    ``policy.num_threads`` workers."""
    from .process import ProcessEngine
    from .serial import SerialEngine
    from .thread import ThreadEngine

    if telemetry is None:
        from ...telemetry import Recorder

        telemetry = Recorder()
    engines = {"serial": SerialEngine, "thread": ThreadEngine, "process": ProcessEngine}
    return engines[policy.backend](policy.num_threads, telemetry)
