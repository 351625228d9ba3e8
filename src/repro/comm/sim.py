"""Threaded SPMD communicator: N ranks as real threads, one process.

This is the stand-in for MPI in this reproduction (see DESIGN.md section 1).
Each rank of the SPMD program runs on its own thread; collectives are
implemented with shared slots guarded by a pair of alternating barriers, and
point-to-point messages go through tag-addressed mailboxes.  Synchronization
is *real* (threads genuinely block at barriers and on receives), so the
ordering, deadlock, and semantics properties of the code under test match a
genuine MPI execution; only the transport differs.

Concurrency contract (same as MPI): all ranks of a communicator must call
collectives in the same order.  Code that needs concurrent communication
from multiple threads of the same rank (space-sharing mode, Listing 2 of
the paper) must :meth:`~SimComm.dup` the communicator, exactly as one would
duplicate an MPI communicator.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from .errors import CommAborted, CommTimeoutError, RankMismatchError
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


class _Context:
    """Shared state for one communicator context (one 'MPI communicator')."""

    def __init__(self, size: int, timeout: float, deadline: float | None = None):
        self.size = size
        self.timeout = timeout
        self.deadline = deadline
        self.slots: list[Any] = [None] * size
        self.root_slot: Any = None
        self.tag_slot: Any = None  # collective-consistency checking
        self.enter = threading.Barrier(size)
        self.leave = threading.Barrier(size)
        self.mail: dict[tuple[int, int, int], deque[Any]] = defaultdict(deque)
        self.mail_cond = threading.Condition()
        self.aborted = False
        self.abort_reason: str | None = None
        self.abort_origin_rank: int | None = None
        self.abort_origin_exc_type: str | None = None

    def abort(
        self,
        reason: str,
        *,
        origin_rank: int | None = None,
        origin_exc_type: str | None = None,
    ) -> None:
        self.aborted = True
        if self.abort_reason is None:
            self.abort_reason = reason
            self.abort_origin_rank = origin_rank
            self.abort_origin_exc_type = origin_exc_type
        self.enter.abort()
        self.leave.abort()
        with self.mail_cond:
            self.mail_cond.notify_all()

    def check_abort(self) -> None:
        if self.aborted:
            raise CommAborted(
                self.abort_reason or "SPMD job aborted",
                origin_rank=self.abort_origin_rank,
                origin_exc_type=self.abort_origin_exc_type,
            )

    def wait(self, barrier: threading.Barrier) -> None:
        self.check_abort()
        effective = self.timeout if self.deadline is None else min(self.timeout, self.deadline)
        try:
            barrier.wait(timeout=effective)
        except threading.BrokenBarrierError:
            if not self.aborted and effective < self.timeout:
                # The per-call deadline, not the job timeout, expired on
                # this rank: surface the precise stall signal (the abort
                # still tears the context down so peers unblock).
                self.abort(f"collective exceeded the {effective}s call deadline")
                raise CommTimeoutError(
                    f"collective exceeded the {effective}s call deadline",
                    deadline_seconds=effective,
                ) from None
            if not self.aborted:
                self.abort(f"collective timed out after {self.timeout}s")
            raise CommAborted(
                self.abort_reason or "barrier broken",
                origin_rank=self.abort_origin_rank,
                origin_exc_type=self.abort_origin_exc_type,
            ) from None
        self.check_abort()


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
        Seconds a rank may block in a collective before the whole job is
        aborted (deadlock detection for tests).
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
        deterministically perturbing barrier arrival order (the
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
        self._world = _Context(size, timeout, deadline)
        self._contexts: list[_Context] = [self._world]
        self._ctx_lock = threading.Lock()

    def comm(self, rank: int) -> "SimComm":
        """The world-communicator handle for ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return SimComm(self, self._world, rank)

    def comms(self) -> list["SimComm"]:
        """World-communicator handles for every rank, rank order."""
        return [self.comm(r) for r in range(self.size)]

    def new_context(self) -> _Context:
        ctx = _Context(self.size, self.timeout, self.deadline)
        with self._ctx_lock:
            self._contexts.append(ctx)
        return ctx

    def abort(
        self,
        reason: str = "aborted",
        *,
        origin_rank: int | None = None,
        origin_exc_type: str | None = None,
    ) -> None:
        """Abort every context: all blocked ranks raise :class:`CommAborted`.

        ``origin_rank``/``origin_exc_type`` identify the failure that
        initiated the abort; peers' :class:`CommAborted` carry them so
        :class:`~repro.comm.errors.SpmdError` aggregation points at the
        root cause instead of a wall of secondary aborts.
        """
        with self._ctx_lock:
            contexts = list(self._contexts)
        for ctx in contexts:
            ctx.abort(reason, origin_rank=origin_rank, origin_exc_type=origin_exc_type)


class SimComm(Communicator):
    """One rank's handle onto a :class:`SimCluster` context."""

    def __init__(self, cluster: SimCluster, context: _Context, rank: int):
        self._cluster = cluster
        self._ctx = context
        self._rank = rank
        self.profiler = cluster.profiler

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._ctx.size

    def _fault(self, op: str) -> str | None:
        """Consult the cluster's fault plan before a communication call.

        Returns ``"drop"`` when the plan asks this call's message to be
        silently discarded (``send`` honours it); delays sleep in place;
        crashes raise :class:`~repro.faults.InjectedRankCrash` exactly
        where a real process death would surface.
        """
        schedule = self._cluster.interleave
        if schedule is not None:
            jitter = schedule.delay(self._rank)
            if jitter > 0.0:
                time.sleep(jitter)
        plan = self._cluster.fault_plan
        if plan is None:
            return None
        spec = plan.comm_fault(self._rank, op)
        if spec is None:
            return None
        if spec.kind == "delay":
            time.sleep(spec.seconds)
            return None
        if spec.kind == "drop":
            return "drop"
        from ..faults import InjectedRankCrash  # deferred: avoid import cycle

        raise InjectedRankCrash(self._rank, plan.call_count("comm", self._rank) - 1, op)

    # -- point to point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "dest")
        if self._fault("send") == "drop":
            return  # the message vanishes in transit
        self._record("send", obj)
        ctx = self._ctx
        payload = _isolate(obj)
        with ctx.mail_cond:
            ctx.check_abort()
            ctx.mail[(dest, self._rank, tag)].append(payload)
            ctx.mail_cond.notify_all()

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        self._fault("recv")
        ctx = self._ctx
        key = (self._rank, source, tag)
        deadline = ctx.deadline
        start = time.monotonic()
        with ctx.mail_cond:
            while not ctx.mail.get(key):
                ctx.check_abort()
                remaining = ctx.timeout - (time.monotonic() - start)
                if deadline is not None:
                    remaining = min(
                        remaining, deadline - (time.monotonic() - start)
                    )
                if not ctx.mail_cond.wait(timeout=max(remaining, 0.001)):
                    elapsed = time.monotonic() - start
                    if deadline is not None and elapsed >= deadline:
                        reason = (
                            f"recv(source={source}, tag={tag}) exceeded the "
                            f"{deadline}s call deadline on rank {self._rank}"
                        )
                        ctx.abort(reason)
                        raise CommTimeoutError(
                            reason,
                            source=source,
                            tag=tag,
                            deadline_seconds=deadline,
                        )
                    if elapsed >= ctx.timeout:
                        ctx.abort(
                            f"recv(source={source}, tag={tag}) timed out on rank {self._rank}"
                        )
                        ctx.check_abort()
            return ctx.mail[key].popleft()

    # -- collectives ------------------------------------------------------
    def _collective_check(self, name: str) -> None:
        """Detect mismatched collective calls across ranks (cheap guard)."""
        ctx = self._ctx
        if self._rank == 0:
            ctx.tag_slot = name
        ctx.wait(ctx.enter)
        if ctx.tag_slot != name:
            ctx.abort(
                f"collective mismatch: rank {self._rank} called {name!r} while "
                f"rank 0 called {ctx.tag_slot!r}"
            )
            ctx.check_abort()

    def barrier(self) -> None:
        self._fault("barrier")
        self._record("barrier", nbytes=0)
        ctx = self._ctx
        self._collective_check("barrier")
        ctx.wait(ctx.leave)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        self._fault("bcast")
        ctx = self._ctx
        if self._rank == root:
            self._record("bcast", obj)
            ctx.root_slot = obj
        self._collective_check("bcast")
        ctx.wait(ctx.leave)  # root_slot published
        result = ctx.root_slot if self._rank == root else _isolate(ctx.root_slot)
        ctx.wait(ctx.enter)  # everyone done reading
        if self._rank == root:
            ctx.root_slot = None
        ctx.wait(ctx.leave)
        return result

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        self._fault("gather")
        self._record("gather", obj)
        ctx = self._ctx
        ctx.slots[self._rank] = obj
        self._collective_check("gather")
        ctx.wait(ctx.leave)  # slots published
        result = [_isolate(v) for v in ctx.slots] if self._rank == root else None
        ctx.wait(ctx.enter)
        ctx.slots[self._rank] = None
        ctx.wait(ctx.leave)
        return result

    def allgather(self, obj: Any) -> list[Any]:
        self._fault("allgather")
        self._record("allgather", obj)
        ctx = self._ctx
        ctx.slots[self._rank] = obj
        self._collective_check("allgather")
        ctx.wait(ctx.leave)
        result = [v if i == self._rank else _isolate(v) for i, v in enumerate(ctx.slots)]
        ctx.wait(ctx.enter)
        ctx.slots[self._rank] = None
        ctx.wait(ctx.leave)
        return result

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        self._fault("scatter")
        ctx = self._ctx
        if self._rank == root:
            if objs is None:
                ctx.abort(f"scatter root {root} passed None")
            elif len(objs) != self.size:
                ctx.abort(
                    f"scatter needs exactly {self.size} values, got {len(objs)}"
                )
            else:
                self._record("scatter", objs)
                ctx.root_slot = list(objs)
        self._collective_check("scatter")
        ctx.wait(ctx.leave)
        ctx.check_abort()
        value = ctx.root_slot[self._rank]
        if self._rank != root:
            value = _isolate(value)
        ctx.wait(ctx.enter)
        if self._rank == root:
            ctx.root_slot = None
        ctx.wait(ctx.leave)
        return value

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        self._fault("alltoall")
        ctx = self._ctx
        if len(objs) != self.size:
            ctx.abort(
                f"alltoall on rank {self._rank} needs {self.size} values, got {len(objs)}"
            )
            ctx.check_abort()
        self._record("alltoall", list(objs))
        ctx.slots[self._rank] = list(objs)
        self._collective_check("alltoall")
        ctx.wait(ctx.leave)
        result = [_isolate(ctx.slots[src][self._rank]) for src in range(self.size)]
        ctx.wait(ctx.enter)
        ctx.slots[self._rank] = None
        ctx.wait(ctx.leave)
        return result

    # -- structure --------------------------------------------------------
    def dup(self) -> "SimComm":
        """Collectively duplicate into an independent context.

        All ranks must call :meth:`dup` together; the new communicator's
        collectives are fully independent from the parent's (same rank ids).
        """
        ctx = self._ctx
        if self._rank == 0:
            ctx.root_slot = self._cluster.new_context()
        self._collective_check("dup")
        ctx.wait(ctx.leave)
        new_ctx = ctx.root_slot  # shared by reference on purpose
        ctx.wait(ctx.enter)
        if self._rank == 0:
            ctx.root_slot = None
        ctx.wait(ctx.leave)
        if not isinstance(new_ctx, _Context):  # pragma: no cover - defensive
            raise RankMismatchError("dup lost the new context")
        return SimComm(self._cluster, new_ctx, self._rank)
