"""Communication traffic accounting.

Every communicator can carry a :class:`TrafficProfiler`.  The profiler
records, per operation kind, the number of calls and an estimate of the
payload bytes moved.  The performance model (``repro.perfmodel``) replays
these counters with an alpha-beta network model to predict synchronization
cost at cluster scale, so the counters must reflect what an MPI
implementation would actually put on the wire.

The profiler is a thin facade over a :class:`repro.telemetry.Recorder`
(the same primitive the scheduler's ``run.*`` counters and the execution
engines write into): each operation kind is one recorder op tally, read
by :meth:`TrafficProfiler.snapshot` or by name.  A profiler can also be
constructed over an existing recorder to merge communication traffic
into a scheduler's unified snapshot.
"""

from __future__ import annotations

import pickle
import sys
import warnings
from typing import Any

import numpy as np

from ..telemetry import OpStats, Recorder

__all__ = ["OpStats", "TrafficProfiler", "payload_nbytes"]

_pickle_fallback_warned = False


def _getsizeof_estimate(obj: Any) -> int:
    """Shallow-recursive ``sys.getsizeof`` fallback for unpicklable payloads."""
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        total += sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        total += sum(sys.getsizeof(item) for item in obj)
    return int(total)


def payload_nbytes(obj: Any) -> int:
    """Estimate the on-wire size of ``obj`` in bytes.

    numpy arrays are counted at their buffer size (MPI would send the raw
    buffer); everything else is counted at its pickle size, mirroring how
    mpi4py transports generic Python objects.  Unpicklable payloads fall
    back to a ``sys.getsizeof``-based estimate (with a one-time warning)
    rather than silently undercounting the traffic the perfmodel replays.
    """
    global _pickle_fallback_warned
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (int, float, bool, np.generic)):
        return 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        if not _pickle_fallback_warned:
            _pickle_fallback_warned = True
            warnings.warn(
                f"payload_nbytes: pickling a {type(obj).__name__} failed ({exc!r}); "
                "falling back to sys.getsizeof estimates for unpicklable payloads "
                "(traffic counters become approximate)",
                RuntimeWarning,
                stacklevel=2,
            )
        return _getsizeof_estimate(obj)


class TrafficProfiler:
    """Thread-safe per-operation traffic counters.

    A single profiler may be shared by all ranks of a
    :class:`~repro.comm.sim.SimCluster`; recording is serialized by the
    backing recorder's lock.

    Parameters
    ----------
    recorder:
        Optional :class:`~repro.telemetry.Recorder` to account into
        (e.g. a scheduler's, to unify the snapshot).  A private one is
        created when omitted.
    """

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder if recorder is not None else Recorder()

    def record(self, op: str, payload: Any = None, nbytes: int | None = None) -> None:
        """Record one call of kind ``op`` moving ``payload`` (or ``nbytes``)."""
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        self.recorder.record_op(op, size)

    def record_wire(self, wire_format: str, nbytes: int) -> None:
        """Account one serialized combination-map payload per wire format.

        Global combination tallies every payload it produces under
        ``wire.<format>`` (``wire.pickle`` / ``wire.columnar`` /
        ``wire.allreduce``), separate from the transport ops that move
        it, so format regressions show up directly in byte terms: the
        columnar formats should move strictly fewer bytes than pickle
        for the same combination maps.
        """
        self.recorder.record_op(f"wire.{wire_format}", int(nbytes))

    def merge(self, snapshot: dict[str, tuple[int, int]]) -> None:
        """Add another profiler's :meth:`snapshot` (a rank process's) into this one."""
        for op, (calls, nbytes) in snapshot.items():
            self.recorder.record_op(op, nbytes, calls)

    def reset(self) -> None:
        self.recorder.reset()

    def total_bytes(self) -> int:
        return sum(self.recorder.op(op).bytes for op in self.recorder.op_names())

    def total_calls(self) -> int:
        return sum(self.recorder.op(op).calls for op in self.recorder.op_names())

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """Return ``{op: (calls, bytes)}`` at this instant."""
        ops = self.recorder.snapshot()["ops"]
        return {op: (s["calls"], s["bytes"]) for op, s in ops.items()}

    def bytes_for(self, op: str) -> int:
        return self.recorder.op(op).bytes

    def calls_for(self, op: str) -> int:
        return self.recorder.op(op).calls
