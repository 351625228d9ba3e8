"""The communicator the Smart runtime is written against.

This plays the role MPI plays for the original C++ Smart, with only the
calls Smart makes: tagged ``send``/``recv`` (the simulations' halo
exchange), ``barrier``, ``bcast``, ``gather``, ``allgather`` and
``reduce``/``allreduce`` (global combination and
``merge_distributed_output``).  The same analytics code runs unchanged
on :class:`~repro.comm.local.LocalComm` (one rank),
:class:`~repro.comm.sim.SimComm` (N SPMD ranks as threads) and
:class:`~repro.comm.process.ProcessComm` (N SPMD ranks as processes);
each moves one message, and every collective is built here from those
messages, so the backends differ in transport alone.

Naming follows mpi4py conventions: lowercase methods move generic Python
objects; the capitalized ``Allreduce`` moves numpy buffers elementwise and
is what the low-level baseline analytics use (mirroring the paper's
``MPI_Allreduce`` on contiguous arrays, Section 5.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

import numpy as np

from .errors import InvalidRankError, RankMismatchError
from .profiler import TrafficProfiler
from .reduce_ops import ReduceOp, as_reduce_op

#: Tag of every collective message.  Each pair of ranks receives its
#: collective messages in the order it sent them, and every rank calls
#: collectives in the same order, so one tag serves them all.
_COLL_TAG = (1 << 19) + 7


class Communicator(ABC):
    """One SPMD rank's communicator, every collective over point-to-point.

    A subclass supplies ``rank``, ``size`` and moves one message with
    :meth:`_put` / :meth:`_get`; ``send``/``recv`` are those behind one
    :meth:`_enter`, which also runs once at the top of every public
    collective, so a subclass can account a collective as one call
    however many messages it takes.

    Each collective message is ``(op, payload)``: a rank that receives
    another call's message raises :class:`RankMismatchError` naming both.
    Rooted calls follow MPI semantics (non-root ranks of :meth:`gather` /
    :meth:`reduce` receive ``None``) and fan in to the root before they
    fan out, so the root hears from every rank; ``allgather`` is one
    direct exchange.
    """

    #: Optional traffic profiler; ``None`` disables accounting.
    profiler: TrafficProfiler | None = None

    # -- identity ---------------------------------------------------------
    @property
    @abstractmethod
    def rank(self) -> int:
        """This rank's index in ``[0, size)``."""

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of ranks in the communicator."""

    @property
    def is_master(self) -> bool:
        """True on rank 0 (the paper's 'master node' for global combination)."""
        return self.rank == 0

    # -- transport --------------------------------------------------------
    @abstractmethod
    def _put(self, obj: Any, dest: int, tag: int) -> None:
        """Move one message to ``dest``."""

    @abstractmethod
    def _get(self, source: int, tag: int) -> Any:
        """Take the next message from ``source`` on ``tag``."""

    def _enter(self, op: str, payload: Any = None, *, nbytes: int | None = None,
               record: bool = True) -> bool:
        """Hook: one public call ``op`` starts; True drops a ``send``'s message."""
        return False

    # -- point to point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a Python object to ``dest`` (blocking, buffered)."""
        self._check_rank(dest, "dest")
        if not self._enter("send", record=False):  # dropped: it vanishes in transit
            self._record("send", obj)
            self._put(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the next Python object from ``source`` on ``tag`` (blocking)."""
        self._check_rank(source, "source")
        self._enter("recv", record=False)
        return self._get(source, tag)

    # -- collectives ------------------------------------------------------
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        self._enter("barrier", nbytes=0)
        self._fan_out("barrier", None, 0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; returns the value on all ranks."""
        self._check_rank(root, "root")
        self._enter("bcast", obj, record=self.rank == root)
        return self._fan_out("bcast", obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (rank order)."""
        self._check_rank(root, "root")
        self._enter("gather", obj)
        return self._fan_in("gather", obj, root)

    def allgather(self, obj: Any) -> list[Any]:
        """Gather one value per rank to every rank (rank order)."""
        self._enter("allgather", obj)
        for r in range(self.size):
            if r != self.rank:
                self._put(("allgather", obj), r, _COLL_TAG)
        return [obj if r == self.rank else self._take("allgather", r)
                for r in range(self.size)]

    def reduce(
        self, obj: Any, op: ReduceOp | Callable[[Any, Any], Any] | str = "sum", root: int = 0
    ) -> Any:
        """Reduce one value per rank onto ``root`` (None elsewhere)."""
        rop = as_reduce_op(op)
        values = self.gather(obj, root=root)
        if values is None:
            return None
        return rop.reduce(values)

    def allreduce(self, obj: Any, op: ReduceOp | Callable[[Any, Any], Any] | str = "sum") -> Any:
        """Reduce one value per rank; every rank receives the result."""
        rop = as_reduce_op(op)
        return rop.reduce(self.allgather(obj))

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray, op: str = "sum") -> None:
        """Elementwise allreduce of numpy buffers into ``recvbuf``.

        This is the call the hand-written low-level baselines use; it is the
        contiguous-buffer ``MPI_Allreduce`` of the paper's Section 5.3.
        """
        if sendbuf.shape != recvbuf.shape:
            raise ValueError(
                f"Allreduce shape mismatch: send {sendbuf.shape} vs recv {recvbuf.shape}"
            )
        result = self.allreduce(sendbuf, op=op)
        np.copyto(recvbuf, result)

    # -- collective messages ----------------------------------------------
    def _take(self, op: str, source: int) -> Any:
        called, obj = self._get(source, _COLL_TAG)
        if called != op:
            raise RankMismatchError(
                f"collective mismatch: rank {self.rank} called {op!r} while "
                f"rank {source} called {called!r}")
        return obj

    def _fan_in(self, op: str, obj: Any, root: int) -> list[Any] | None:
        if self.rank != root:
            self._put((op, obj), root, _COLL_TAG)
            return None
        return [obj if r == root else self._take(op, r) for r in range(self.size)]

    def _fan_out(self, op: str, obj: Any, root: int) -> Any:
        """Every rank gets ``root``'s ``obj``, after a fan-in to ``root``."""
        self._fan_in(op, None, root)
        if self.rank != root:
            return self._take(op, root)
        for r in range(self.size):
            if r != root:
                self._put((op, obj), r, _COLL_TAG)
        return obj

    def _check_rank(self, r: int, what: str = "rank") -> None:
        if not 0 <= r < self.size:
            raise InvalidRankError(f"{what} {r} out of range [0, {self.size})")

    def _record(self, op: str, payload: Any = None, nbytes: int | None = None) -> None:
        if self.profiler is not None:
            self.profiler.record(op, payload, nbytes)
