"""Threaded SPMD communicator: N ranks as real threads, one process.

This is the stand-in for MPI in this reproduction (see DESIGN.md section 1).
Each rank of the SPMD program runs on its own thread.  A message is a
private copy (:func:`_isolate`) appended to its receiver's mailbox, keyed
by ``(source, tag)``; every collective is
:class:`~repro.comm.interface.Communicator`'s over those messages, the same
code process ranks run, so the two backends differ in transport alone.
Synchronization is *real* (threads genuinely block on receives), so the
ordering, deadlock, and semantics properties of the code under test match a
genuine MPI execution.

Concurrency contract (same as MPI): all ranks of a communicator must call
collectives in the same order; a rank that receives another collective's
message raises :class:`~repro.comm.errors.RankMismatchError`.  Several
threads of one rank may use it at once as long as at most one of them
calls collectives and the others keep to their own ``send``/``recv``
tags: in space-sharing mode (Listing 2 of the paper) the simulation
thread exchanges halos on its tags while the analytics thread combines.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import CommAborted, CommTimeoutError
from .interface import Communicator
from .profiler import TrafficProfiler

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan

#: Default seconds to wait in a collective before declaring the job wedged.
#: Generous enough for slow CI; small enough that a deadlocked test fails.
DEFAULT_TIMEOUT = 120.0


def _isolate(obj: Any) -> Any:
    """Return a copy of ``obj`` so receiver and sender never share buffers.

    Mirrors MPI semantics where every rank owns its receive buffer.  Only
    what is mutable is copied: immutable leaves (numbers, strings, dtypes,
    classes) pass through, numpy arrays get a cheap buffer copy, tuples
    are rebuilt element by element, and other objects are deep-copied.
    """
    if obj is None or isinstance(
        obj, (int, float, bool, str, bytes, np.generic, np.dtype, type)
    ):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if type(obj) is tuple:
        return tuple(_isolate(v) for v in obj)
    return copy.deepcopy(obj)


class InterleaveSchedule:
    """Deterministic per-rank micro-delays that perturb thread interleaving.

    The conformance fuzzer (``repro.verify.fuzz``) uses this to shake
    out collective-ordering races: before every communication call, a
    rank sleeps for a seed-derived jitter keyed by ``(seed, rank,
    per-rank call index)``.  The mapping is a pure integer mix (no
    global RNG state), so the same seed replays the exact same
    interleaving pressure — a failing schedule is reproducible from its
    seed alone.

    Zero-cost when not installed; a fresh instance must be used per run
    (call indices are stateful).
    """

    def __init__(self, seed: int, max_delay: float = 0.0015,
                 probability: float = 0.6):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.seed = int(seed)
        self.max_delay = float(max_delay)
        self.probability = float(probability)
        self._lock = threading.Lock()
        self._calls: dict[int, int] = defaultdict(int)

    @staticmethod
    def _mix(*parts: int) -> int:
        # splitmix64-style avalanche over the concatenated inputs.
        mask = (1 << 64) - 1
        x = 0x9E3779B97F4A7C15
        for part in parts:
            x = (x + (int(part) & mask) + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            x ^= x >> 31
        return x

    def delay(self, rank: int) -> float:
        """Seconds this rank should sleep before its next comm call."""
        with self._lock:
            index = self._calls[rank]
            self._calls[rank] = index + 1
        mixed = self._mix(self.seed, rank, index)
        gate = (mixed & 0xFFFFFF) / float(1 << 24)
        if gate >= self.probability:
            return 0.0
        return ((mixed >> 24) & 0xFFFFFF) / float(1 << 24) * self.max_delay

    def reset(self) -> None:
        """Rewind call indices so the same instance replays its schedule."""
        with self._lock:
            self._calls.clear()


class SimCluster:
    """Factory and shared state for a set of :class:`SimComm` rank handles.

    Parameters
    ----------
    size:
        Number of SPMD ranks.
    profiler:
        Optional shared :class:`TrafficProfiler`; when set, every rank's
        communication is accounted into it.
    timeout:
        Seconds a rank may block in a receive (and so in a collective)
        before the whole job is aborted (deadlock detection for tests).
    deadline:
        Optional per-call deadline in seconds.  A ``recv`` or collective
        blocked longer than this raises
        :class:`~repro.comm.errors.CommTimeoutError` on the blocked rank
        (and aborts the job so peers unblock) — a precise stall signal
        for supervised recovery, instead of relying only on the coarse
        job ``timeout``.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`.  When set, every
        rank's communication calls consult it: messages may be delayed
        or dropped and ranks crashed at seeded call indices.  ``None``
        (the default) keeps every hook a no-op.
    interleave:
        Optional :class:`InterleaveSchedule`.  When set, every rank
        sleeps a seed-derived jitter before each communication call,
        deterministically perturbing message arrival order (the
        conformance schedule fuzzer's hook).  ``None`` costs nothing.
    """

    def __init__(
        self,
        size: int,
        profiler: TrafficProfiler | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        deadline: float | None = None,
        fault_plan: "FaultPlan | None" = None,
        interleave: InterleaveSchedule | None = None,
    ):
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.size = size
        self.profiler = profiler
        self.timeout = timeout
        self.deadline = deadline
        self.fault_plan = fault_plan
        self.interleave = interleave
        # One mailbox set and one condition per receiving rank: a sender
        # wakes only its receiver's threads.
        self._mail: list[dict[tuple, deque]] = [defaultdict(deque) for _ in range(size)]
        self._conds = [threading.Condition() for _ in range(size)]
        self._aborted: tuple[str, int | None, str | None] | None = None
        self._abort_lock = threading.Lock()

    def comm(self, rank: int) -> "SimComm":
        """The world-communicator handle for ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return SimComm(self, rank)

    def comms(self) -> list["SimComm"]:
        """World-communicator handles for every rank, rank order."""
        return [self.comm(r) for r in range(self.size)]

    def abort(
        self,
        reason: str = "aborted",
        *,
        origin_rank: int | None = None,
        origin_exc_type: str | None = None,
    ) -> None:
        """Abort the job: every blocked rank raises :class:`CommAborted`.

        ``origin_rank``/``origin_exc_type`` identify the failure that
        initiated the abort; peers' :class:`CommAborted` carry them so
        :class:`~repro.comm.errors.SpmdError` aggregation points at the
        root cause instead of a wall of secondary aborts.
        """
        with self._abort_lock:  # the first abort names the origin
            if self._aborted is None:
                self._aborted = (reason, origin_rank, origin_exc_type)
        for cond in self._conds:
            with cond:
                cond.notify_all()

    def _check_abort(self) -> None:
        if self._aborted is not None:
            reason, origin_rank, origin_exc_type = self._aborted
            raise CommAborted(reason, origin_rank=origin_rank,
                              origin_exc_type=origin_exc_type)

    def _put(self, obj: Any, dest: int, key: tuple) -> None:
        """Deliver a private copy of ``obj`` to ``dest``'s mailbox ``key``."""
        payload = _isolate(obj)
        with self._conds[dest]:
            self._check_abort()
            self._mail[dest][key].append(payload)
            self._conds[dest].notify_all()

    def _get(self, rank: int, key: tuple) -> Any:
        """Take the next message from ``rank``'s mailbox ``key`` (source, tag)."""
        deadline = self.deadline
        limit = self.timeout if deadline is None else min(self.timeout, deadline)
        with self._conds[rank]:  # guards the rank's mailboxes too
            box = self._mail[rank][key]
            self._conds[rank].wait_for(lambda: box or self._aborted is not None, limit)
            if box:
                return box.popleft()
        self._check_abort()
        source, tag = key
        where = f"recv(source={source}, tag={tag}) on rank {rank}"
        if deadline is not None and deadline <= self.timeout:
            reason = f"{where} exceeded the {deadline}s call deadline"
            self.abort(reason)
            raise CommTimeoutError(reason, source=source, tag=tag, deadline_seconds=deadline)
        reason = f"{where} timed out after {self.timeout}s"
        self.abort(reason)
        raise CommAborted(reason)


class SimComm(Communicator):
    """One rank's handle onto a :class:`SimCluster`."""

    def __init__(self, cluster: SimCluster, rank: int):
        self._cluster, self._rank = cluster, rank
        self.profiler = cluster.profiler

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._cluster.size

    def _enter(self, op: str, payload: Any = None, *, nbytes: int | None = None,
               record: bool = True) -> bool:
        cluster = self._cluster
        if cluster.interleave is not None:
            jitter = cluster.interleave.delay(self._rank)
            if jitter > 0.0:
                time.sleep(jitter)
        plan = cluster.fault_plan
        dropped = plan is not None and plan.comm_call(self._rank, op)
        if record:
            self._record(op, payload, nbytes)
        return dropped

    def _put(self, obj: Any, dest: int, tag: int) -> None:
        self._cluster._put(obj, dest, (self._rank, tag))

    def _get(self, source: int, tag: int) -> Any:
        return self._cluster._get(self._rank, (source, tag))
