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

from .errors import (
    CommAborted,
    CommError,
    CommTimeoutError,
    FrameCorruptionError,
    InvalidRankError,
    RankMismatchError,
    SpmdError,
)
from .interface import Communicator, Request
from .launcher import spmd_launch, supervised_launch
from .local import LocalComm
from .process import ProcessComm
from .profiler import OpStats, TrafficProfiler, payload_nbytes
from .reduce_ops import CONCAT, LAND, LOR, MAX, MIN, PROD, SUM, ReduceOp, as_reduce_op
from .sim import InterleaveSchedule, SimCluster, SimComm
from .subgroup import UNDEFINED, GroupComm, split_comm

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
