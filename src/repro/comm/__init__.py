"""Message-passing substrate (the reproduction's stand-in for MPI).

Public surface:

* :class:`Communicator` — the communicator the Smart runtime targets:
  ``send``/``recv``, ``barrier``, ``bcast``, ``gather``, ``allgather``,
  ``reduce``/``allreduce`` and ``Allreduce``, every collective built over
  a subclass's point-to-point messages.
* :class:`LocalComm` — single-rank communicator.
* :class:`SimCluster` / :class:`SimComm` — N SPMD ranks as threads.
* :class:`ProcessComm` — one rank of ``spmd_launch(...,
  comm_backend="process")``: N SPMD ranks as forked processes over a
  pipe mesh.
* :func:`spmd_launch` — ``mpiexec``-style launcher.
* :func:`supervised_launch` — the launcher under a recovery policy
  (retry with backoff / degrade by dropping failed ranks).
* :class:`TrafficProfiler` — byte/message accounting for the perf model.
* Reduce operators: ``SUM`` (the default), :class:`ReduceOp` and
  :func:`as_reduce_op`, which also takes any binary callable.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": ("CommAborted", "CommError", "CommTimeoutError", "FrameCorruptionError",
                "InvalidRankError", "RankMismatchError", "SpmdError"),
    ".interface": ("Communicator",),
    ".launcher": ("spmd_launch", "supervised_launch"),
    ".local": ("LocalComm",),
    ".process": ("ProcessComm",),
    ".profiler": ("TrafficProfiler", "payload_nbytes"),
    ".reduce_ops": ("SUM", "ReduceOp", "as_reduce_op"),
    ".sim": ("InterleaveSchedule", "SimCluster", "SimComm"),
})

__all__ = [
    "CommAborted",
    "CommError",
    "CommTimeoutError",
    "FrameCorruptionError",
    "Communicator",
    "InvalidRankError",
    "LocalComm",
    "ProcessComm",
    "RankMismatchError",
    "ReduceOp",
    "InterleaveSchedule",
    "SimCluster",
    "SimComm",
    "SpmdError",
    "TrafficProfiler",
    "as_reduce_op",
    "payload_nbytes",
    "spmd_launch",
    "supervised_launch",
    "SUM",
]
