"""Message-passing substrate (the reproduction's stand-in for MPI).

Public surface:

* :class:`Communicator` — the interface the Smart runtime targets.
* :class:`LocalComm` — single-rank communicator.
* :class:`SimCluster` / :class:`SimComm` — N SPMD ranks as threads.
* :class:`ProcessComm` — one rank of ``spmd_launch(...,
  comm_backend="process")``: N SPMD ranks as forked processes over a
  pipe mesh.
* :func:`spmd_launch` — ``mpiexec``-style launcher.
* :func:`supervised_launch` — the launcher under a recovery policy
  (retry with backoff / degrade by dropping failed ranks).
* :class:`TrafficProfiler` — byte/message accounting for the perf model.
* Reduce operators: ``SUM``, ``MAX``, ``MIN``, ``PROD``, ``CONCAT``, ...
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": ("CommAborted", "CommError", "CommTimeoutError", "FrameCorruptionError",
                "InvalidRankError", "RankMismatchError", "SpmdError"),
    ".interface": ("Communicator", "Request"),
    ".launcher": ("spmd_launch", "supervised_launch"),
    ".local": ("LocalComm",),
    ".process": ("ProcessComm",),
    ".profiler": ("OpStats", "TrafficProfiler", "payload_nbytes"),
    ".reduce_ops": ("CONCAT", "LAND", "LOR", "MAX", "MIN", "PROD", "SUM", "ReduceOp",
                    "as_reduce_op"),
    ".sim": ("InterleaveSchedule", "SimCluster", "SimComm"),
    ".subgroup": ("UNDEFINED", "GroupComm", "split_comm"),
})

__all__ = [
    "CommAborted",
    "CommError",
    "CommTimeoutError",
    "FrameCorruptionError",
    "Communicator",
    "Request",
    "InvalidRankError",
    "LocalComm",
    "OpStats",
    "ProcessComm",
    "RankMismatchError",
    "ReduceOp",
    "GroupComm",
    "InterleaveSchedule",
    "SimCluster",
    "SimComm",
    "SpmdError",
    "TrafficProfiler",
    "as_reduce_op",
    "payload_nbytes",
    "split_comm",
    "spmd_launch",
    "supervised_launch",
    "UNDEFINED",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "CONCAT",
]
