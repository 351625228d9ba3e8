"""mpi4py-backed communicator: run the same code on a real cluster.

This reproduction's substrate (:mod:`repro.comm.sim`) runs SPMD ranks as
threads; on a machine with MPI available, :class:`MpiComm` adapts an
``mpi4py`` communicator to the same :class:`Communicator` interface, so
every scheduler, simulation, and driver in this repository runs
unmodified under ``mpiexec``:

.. code-block:: bash

    mpiexec -n 8 python my_insitu_job.py

.. code-block:: python

    from repro.comm.mpi import world_comm
    comm = world_comm()          # rank's view of MPI_COMM_WORLD
    sim = Heat3D((256, 256, 256), comm)
    smart = Histogram(ExecutionPolicy(engine=EnginePolicy(num_threads=8)), comm, ...)

mpi4py is imported lazily: this module imports fine without it, and
raises a clear error only when an MPI communicator is actually requested.
"""

from __future__ import annotations

from typing import Any, Sequence

from .interface import Communicator
from .profiler import TrafficProfiler


class MpiNotAvailable(RuntimeError):
    """mpi4py is not installed (or failed to initialize)."""


def _load_mpi():
    try:
        from mpi4py import MPI  # noqa: PLC0415 - lazy by design
    except ImportError as exc:  # pragma: no cover - depends on environment
        raise MpiNotAvailable(
            "mpi4py is required for the MPI backend: pip install mpi4py "
            "(and run under mpiexec)"
        ) from exc
    return MPI


def world_comm(profiler: TrafficProfiler | None = None) -> "MpiComm":
    """This rank's view of ``MPI_COMM_WORLD``."""
    MPI = _load_mpi()
    return MpiComm(MPI.COMM_WORLD, profiler=profiler)


class MpiComm(Communicator):
    """Adapter from an ``mpi4py`` communicator to this repository's API.

    Generic-object methods map to mpi4py's lowercase (pickle-based)
    methods; the numpy-buffer fast paths map to the uppercase ones.
    """

    def __init__(self, mpi_comm: Any, profiler: TrafficProfiler | None = None):
        self._mpi = _load_mpi()
        self._comm = mpi_comm
        self.profiler = profiler

    @property
    def rank(self) -> int:
        return self._comm.Get_rank()

    @property
    def size(self) -> int:
        return self._comm.Get_size()

    # -- point to point -----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "dest")
        self._record("send", obj)
        # bsend semantics match the threaded substrate's buffered sends;
        # plain send suffices because mpi4py's send buffers small messages
        # and the runtime pairs every send with a matching recv.
        self._comm.send(obj, dest=dest, tag=tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        return self._comm.recv(source=source, tag=tag)

    # -- collectives ------------------------------------------------------
    def barrier(self) -> None:
        self._record("barrier", nbytes=0)
        self._comm.Barrier()

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        if self.rank == root:
            self._record("bcast", obj)
        return self._comm.bcast(obj, root=root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        self._record("gather", obj)
        return self._comm.gather(obj, root=root)

    def allgather(self, obj: Any) -> list[Any]:
        self._record("allgather", obj)
        return self._comm.allgather(obj)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(f"scatter needs exactly {self.size} values")
            self._record("scatter", objs)
        return self._comm.scatter(objs, root=root)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} values")
        self._record("alltoall", list(objs))
        return self._comm.alltoall(list(objs))

    # -- numpy fast paths ---------------------------------------------------
    def Allreduce(self, sendbuf, recvbuf, op: str = "sum") -> None:
        if sendbuf.shape != recvbuf.shape:
            raise ValueError(
                f"Allreduce shape mismatch: {sendbuf.shape} vs {recvbuf.shape}"
            )
        self._record("Allreduce", sendbuf)
        mpi_op = {
            "sum": self._mpi.SUM,
            "max": self._mpi.MAX,
            "min": self._mpi.MIN,
            "prod": self._mpi.PROD,
        }.get(op)
        if mpi_op is None:
            # Fall back to the generic path for custom operators.
            super().Allreduce(sendbuf, recvbuf, op)
            return
        self._comm.Allreduce(sendbuf, recvbuf, op=mpi_op)

    def Bcast(self, buf, root: int = 0) -> None:
        self._record("Bcast", buf)
        self._comm.Bcast(buf, root=root)

    # -- structure -----------------------------------------------------------
    def dup(self) -> "MpiComm":
        return MpiComm(self._comm.Dup(), profiler=self.profiler)
