"""SPMD ranks as forked processes over a pipe mesh (``comm_backend="process"``).

:func:`run_ranks` makes a socketpair per pair of ranks and a reply pipe
per rank and forks the ranks (:func:`~repro.core.worker.start_process`);
each closes every end not its own.  :class:`ProcessComm` moves one
message and names ``dup`` contexts; ``send``/``recv`` and every
collective come from :class:`~repro.comm.subgroup.RootedComm`.  One
drain thread per rank reads every pipe into per-``(source, context,
tag)`` mailboxes, so no send waits on its receiver's code, however large.

A rank that finishes says goodbye on each pipe; one that fails or dies
leaves EOF, and a receive from it raises
:class:`~repro.comm.errors.CommAborted` at once.  Nothing reconnects: a
lost peer is a crashed rank, for ``supervised_launch`` to retry.

``comm`` faults apply once per public call, as on sim ranks; ``network``
faults once per message sent (``network_fault(rank, op="send")``):
``slowlink``/``partition`` sleep, ``disconnect`` shuts the rank's pipes
and fails it, ``truncate`` marks the message corrupt and its receive
raises :class:`~repro.comm.errors.FrameCorruptionError` (a socketpair
corrupts no bytes, so nothing is checksummed).  Each rank consults its
fork's copy of the plan (a spec with no ``target`` may fire once per
rank) and reports its firings and profiler ops with its result or
``_portable`` error; the launching plan and profiler absorb them.
"""

from __future__ import annotations

import itertools
import pickle
import socket
import threading
import time
from collections import defaultdict, deque
from contextlib import suppress
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..core.worker import (_STOP_SECONDS, _pipe, _portable, pack, recv_frames, send_frames,
                           start_process, stop_process, unpack)
from .errors import CommAborted, CommError, CommTimeoutError, FrameCorruptionError
from .profiler import TrafficProfiler
from .subgroup import RootedComm

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan


class _Mesh:
    """One rank's ends of the mesh, its mailboxes and its drain thread."""

    def __init__(self, rank: int, size: int, pipes: dict[int, Connection], timeout: float,
                 deadline: float | None, profiler: TrafficProfiler | None,
                 plan: "FaultPlan | None"):
        self.rank, self.size, self.pipes, self.plan = rank, size, pipes, plan
        self.timeout, self.deadline, self.profiler = timeout, deadline, profiler
        self._mail: dict[tuple, deque] = defaultdict(deque)
        self._gone: set[int] = set()  # peers whose pipe closed without a goodbye
        self._cond = threading.Condition()
        self._locks = {peer: threading.Lock() for peer in pipes}
        threading.Thread(target=self._drain, name="spmd-drain", daemon=True).start()

    def _drain(self) -> None:
        peers = {conn: peer for peer, conn in self.pipes.items()}
        while peers:
            for conn in wait(list(peers)):
                try:
                    frames = recv_frames(conn)  # [header, *message]
                except (EOFError, OSError):
                    frames = None
                peer = peers[conn]
                with self._cond:
                    if frames:
                        ctx, tag, corrupt = pickle.loads(frames[0])
                        self._mail[peer, ctx, tag].append((corrupt, frames[1:]))
                    else:  # []: a goodbye; None: EOF without one
                        del peers[conn]
                        if frames is None:
                            self._gone.add(peer)
                    self._cond.notify_all()

    def put(self, obj: Any, dest: int, ctx: tuple, tag: int) -> None:
        spec = self.plan.network_fault(self.rank, op="send") if self.plan else None
        if spec is not None and spec.kind == "disconnect":
            self.shut()
            raise CommError(f"injected network disconnect: rank {self.rank} left the mesh")
        if spec is not None and spec.kind in ("slowlink", "partition"):
            time.sleep(spec.seconds)
        corrupt = spec is not None and spec.kind == "truncate"
        if dest == self.rank:  # pickled in-band: the sender keeps copy semantics
            with self._cond:
                self._mail[dest, ctx, tag].append((corrupt, [pickle.dumps(obj, protocol=5)]))
                self._cond.notify_all()
            return
        try:
            with self._locks[dest]:
                send_frames(self.pipes[dest], [pickle.dumps((ctx, tag, corrupt)), *pack(obj)])
        except OSError:
            raise CommAborted(f"rank {dest} is gone", origin_rank=dest) from None

    def get(self, source: int, ctx: tuple, tag: int) -> Any:
        limit = self.timeout if self.deadline is None else min(self.timeout, self.deadline)
        with self._cond:
            box = self._mail[source, ctx, tag]
            ready = self._cond.wait_for(lambda: box or source in self._gone, limit)
            item = box.popleft() if box else None
        if item is None:
            where = f"recv(source={source}, tag={tag}) on rank {self.rank}"
            if ready:
                raise CommAborted(f"{where}: rank {source} is gone", origin_rank=source)
            if self.deadline is not None and self.deadline <= self.timeout:
                raise CommTimeoutError(f"{where} exceeded the {self.deadline}s call deadline",
                                       source=source, tag=tag, deadline_seconds=self.deadline)
            raise CommAborted(f"{where} timed out after {self.timeout}s")
        corrupt, frames = item
        if corrupt:
            raise FrameCorruptionError(f"message from rank {source} (tag {tag}) arrived corrupt")
        return unpack(frames)

    def goodbye(self) -> None:
        """Tell every peer this rank sends nothing more."""
        for peer, conn in self.pipes.items():
            with suppress(OSError), self._locks[peer]:  # OSError: it is gone already
                send_frames(conn, [])

    def shut(self) -> None:
        """Shut every pipe down: peers read EOF now, whoever holds the sockets."""
        for conn in self.pipes.values():
            sock = socket.socket(fileno=conn.fileno())
            with suppress(OSError):  # the peer closed first
                sock.shutdown(socket.SHUT_RDWR)
            sock.detach()  # the fd stays the connection's


class ProcessComm(RootedComm):
    """One rank process's communicator over its :class:`_Mesh`."""

    def __init__(self, mesh: _Mesh, ctx: tuple = ()):
        self._mesh, self._ctx = mesh, ctx
        self._dups = itertools.count(1)
        self.profiler = mesh.profiler

    @property
    def rank(self) -> int:
        return self._mesh.rank

    @property
    def size(self) -> int:
        return self._mesh.size

    def _enter(self, op: str, payload: Any = None, *, nbytes: int | None = None,
               record: bool = True) -> bool:
        plan = self._mesh.plan
        dropped = plan is not None and plan.comm_call(self.rank, op)
        if record:
            self._record(op, payload, nbytes)
        return dropped

    def _put(self, obj: Any, dest: int, tag: int) -> None:
        self._mesh.put(obj, dest, self._ctx, tag)

    def _get(self, source: int, tag: int) -> Any:
        return self._mesh.get(source, self._ctx, tag)

    def dup(self) -> "ProcessComm":
        # Named by this context and its dup count: ranks dup in one order.
        return ProcessComm(self._mesh, (*self._ctx, next(self._dups)))


def _rank_main(reply: Connection, fn: Callable, args: tuple, mesh_args: tuple,
               profiled: bool, plan: "FaultPlan | None") -> None:
    mark = plan.mark() if plan is not None else None
    mesh = _Mesh(*mesh_args, TrafficProfiler() if profiled else None, plan)
    try:
        outcome = (True, fn(ProcessComm(mesh), *args))
        mesh.goodbye()
    except BaseException as exc:  # noqa: BLE001 - the parent reports it
        mesh.shut()
        outcome = (False, _portable(exc))
    report = (mesh.profiler.snapshot() if profiled else None,
              plan.since(mark) if plan is not None else None)
    try:
        message = pack((*outcome, *report))
    except Exception as exc:  # an unpicklable result
        message = pack((False, _portable(exc), *report))
    send_frames(reply, message)


def run_ranks(n_ranks: int, fn: Callable, args_per_rank: Sequence[tuple] | None,
              profiler: TrafficProfiler | None, timeout: float, deadline: float | None,
              fault_plan: "FaultPlan | None") -> tuple[list, dict[int, BaseException]]:
    """Run ``fn(comm, *args)`` on ``n_ranks`` rank processes: (results, failures by rank)."""
    ends: dict[tuple[int, int], Connection] = {}
    for i, j in itertools.combinations(range(n_ranks), 2):
        ends[i, j], ends[j, i] = _pipe()
    replies = [_pipe() for _ in range(n_ranks)]  # (parent end, rank end)
    rank_ends = [*ends.values(), *(rank_end for _, rank_end in replies)]
    every = [*rank_ends, *(parent_end for parent_end, _ in replies)]
    waiting = {replies[r][0]: r for r in range(n_ranks)}
    outcomes: dict[int, tuple] = {}
    procs = []
    try:
        for r in range(n_ranks):
            pipes = {j: ends[r, j] for j in range(n_ranks) if j != r}
            own = {*pipes.values(), replies[r][1]}
            args = args_per_rank[r] if args_per_rank else ()
            procs.append(start_process(
                _rank_main, (replies[r][1], fn, args, (r, n_ranks, pipes, timeout, deadline),
                             profiler is not None, fault_plan),
                name=f"spmd-rank-{r}",
                inherited=tuple(c for c in every if c not in own)))
        for conn in rank_ends:
            conn.close()  # the ranks hold them now
        while waiting:
            for conn in wait(list(waiting)):
                r = waiting.pop(conn)
                try:
                    outcomes[r] = unpack(recv_frames(conn))
                except (EOFError, OSError):  # it died without replying
                    stop_process(procs[r])
                    died = CommError(f"rank {r} died with exit code {procs[r].exitcode}")
                    outcomes[r] = (False, died, None, None)
    finally:
        for conn in every:
            conn.close()
        for proc in procs:
            stop_process(proc, 0.0 if waiting else _STOP_SECONDS)
    results: list[Any] = [None] * n_ranks
    failures: dict[int, BaseException] = {}
    for r in range(n_ranks):
        ok, value, ops, fired = outcomes[r]
        (results if ok else failures)[r] = value
        if ops is not None and profiler is not None:
            profiler.merge(ops)
        if fired is not None and fault_plan is not None:
            fault_plan.merge(fired)
    return results, failures
