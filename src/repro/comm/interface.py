"""The communicator interface the Smart runtime is written against.

This plays the role MPI plays for the original C++ Smart: the runtime and
the simulations call only methods defined here, so the same analytics code
runs unchanged on :class:`~repro.comm.local.LocalComm` (one rank, zero
overhead), :class:`~repro.comm.sim.SimComm` (N SPMD ranks as threads) and
:class:`~repro.comm.process.ProcessComm` (N SPMD ranks as processes).

Naming follows mpi4py conventions: lowercase methods move generic Python
objects; the capitalized ``Allreduce`` moves numpy buffers elementwise and
is what the low-level baseline analytics use (mirroring the paper's
``MPI_Allreduce`` on contiguous arrays, Section 5.3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

import numpy as np

from .errors import InvalidRankError
from .profiler import TrafficProfiler
from .reduce_ops import ReduceOp, as_reduce_op


class Request:
    """Handle for a nonblocking operation (mpi4py ``Request`` analog).

    ``wait()`` blocks until completion and returns the received object
    (``None`` for sends); ``test()`` polls without blocking.
    """

    __slots__ = ("_resolve", "_done", "_value")

    def __init__(self, resolve: Callable[[], Any] | None, value: Any = None):
        self._resolve = resolve
        self._done = resolve is None
        self._value = value

    @classmethod
    def _completed(cls, value: Any) -> "Request":
        return cls(None, value)

    @classmethod
    def _deferred(cls, resolve: Callable[[], Any]) -> "Request":
        return cls(resolve)

    def wait(self) -> Any:
        """Block until the operation completes; return its result."""
        if not self._done:
            assert self._resolve is not None
            self._value = self._resolve()
            self._resolve = None
            self._done = True
        return self._value

    def test(self) -> tuple[bool, Any]:
        """(completed, result-or-None) without blocking on a receive."""
        return (self._done, self._value if self._done else None)


class Communicator(ABC):
    """Abstract SPMD communicator.

    Every method with a ``root`` argument follows MPI rooted-collective
    semantics: non-root ranks pass their contribution and receive ``None``
    (for :meth:`gather` / :meth:`reduce`) or the broadcast value (for
    :meth:`bcast` / :meth:`scatter`).
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

    # -- point to point ---------------------------------------------------
    @abstractmethod
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a Python object to ``dest`` (blocking, buffered)."""

    @abstractmethod
    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive a Python object from ``source`` (blocking)."""

    # -- nonblocking point to point (mpi4py-style isend/irecv) -------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> "Request":
        """Nonblocking send; returns a :class:`Request`.

        All sends in this substrate are buffered, so the send completes
        immediately; the request exists for API parity with MPI code.
        """
        self.send(obj, dest, tag)
        return Request._completed(None)

    def irecv(self, source: int, tag: int = 0) -> "Request":
        """Nonblocking receive; ``Request.wait()`` blocks and returns the
        message.  Lets halo-exchange code post receives before sends, as
        MPI programs do."""
        return Request._deferred(lambda: self.recv(source, tag))

    def sendrecv(
        self, obj: Any, dest: int, source: int, sendtag: int = 0, recvtag: int = 0
    ) -> Any:
        """Combined send+receive (``MPI_Sendrecv``): deadlock-free pairwise
        exchange — the idiom halo exchanges are written in."""
        self.send(obj, dest, tag=sendtag)
        return self.recv(source, tag=recvtag)

    # -- collectives ------------------------------------------------------
    @abstractmethod
    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""

    @abstractmethod
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``obj`` from ``root``; returns the value on all ranks."""

    @abstractmethod
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank to ``root`` (rank order)."""

    @abstractmethod
    def allgather(self, obj: Any) -> list[Any]:
        """Gather one value per rank to every rank (rank order)."""

    @abstractmethod
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``objs[i]`` from ``root`` to rank ``i``."""

    @abstractmethod
    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Exchange ``objs[j]`` from each rank ``i`` to each rank ``j``."""

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

    # -- numpy buffer collectives (the 'fast path') -----------------------
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

    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """In-place broadcast of a numpy buffer."""
        result = self.bcast(buf if self.rank == root else None, root=root)
        if self.rank != root:
            np.copyto(buf, result)

    # -- structure --------------------------------------------------------
    @abstractmethod
    def dup(self) -> "Communicator":
        """Duplicate the communicator into an independent context.

        Space-sharing mode gives the simulation and the analytics tasks
        separate contexts so their collectives never interleave (the
        ``MPI_THREAD_MULTIPLE`` concern of Listing 2).
        """

    def _check_rank(self, r: int, what: str = "rank") -> None:
        if not 0 <= r < self.size:
            raise InvalidRankError(f"{what} {r} out of range [0, {self.size})")

    def _record(self, op: str, payload: Any = None, nbytes: int | None = None) -> None:
        if self.profiler is not None:
            self.profiler.record(op, payload, nbytes)
