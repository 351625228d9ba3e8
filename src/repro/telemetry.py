"""Unified runtime telemetry.

One :class:`Recorder` backs every runtime statistic in the system: the
scheduler's ``run.*`` counters, the communication layer's
:class:`~repro.comm.profiler.TrafficProfiler`, the execution engines'
per-split timings and the service's per-tenant accounting all write
into the same primitive — named counters, timers, and per-operation
(calls, bytes) tallies — and every reader reads a name in full, so the
harness, the perfmodel calibration, and the benchmarks read a single
structured snapshot.

Four primitives:

* **counters** — monotonically adjusted integers (``inc``), plus
  high-water marks (``observe_max``).  Namespaced by dotted prefixes:
  the scheduler uses ``run.*``, engines use ``engine.*``.
* **timers** — accumulated wall-clock spans (``add_time`` or the
  ``span`` context manager), tracking call count, total and max seconds.
* **ops** — per-operation-kind call/byte tallies (``record_op``), the
  traffic profiler's unit of account.
* **gauges** — last-written point-in-time values (``set_gauge``), for
  live state such as resident shared-memory bytes or a pipeline
  buffer's high-water occupancy.

All mutation is serialized by one internal lock, so a recorder may be
shared by the scheduler, a thread engine's workers, and a communicator.
A prefix read (``counters("service.tenant.t1.")``) ends its prefix with
a ``.`` so that it cannot capture a sibling's names (``t11``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class OpStats:
    """Aggregate statistics for one operation kind."""

    calls: int = 0
    bytes: int = 0

    def add(self, nbytes: int, calls: int = 1) -> None:
        self.calls += calls
        self.bytes += nbytes


@dataclass
class TimerStats:
    """Accumulated wall-clock time of one named span."""

    calls: int = 0
    seconds: float = 0.0
    max_seconds: float = 0.0

    def add(self, seconds: float) -> None:
        self.calls += 1
        self.seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds


class Recorder:
    """Thread-safe counters, timers, and op tallies behind one lock.

    Not picklable (it owns a lock); the process engine ships counter
    *snapshots* across process boundaries and merges them back with
    :meth:`merge_counters`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, TimerStats] = {}
        self._ops: dict[str, OpStats] = {}
        self._gauges: dict[str, float] = {}

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> int:
        """Add ``value`` to counter ``name``; return the new total."""
        with self._lock:
            total = self._counters.get(name, 0) + int(value)
            self._counters[name] = total
            return total

    def set_counter(self, name: str, value: int) -> None:
        with self._lock:
            self._counters[name] = int(value)

    def observe_max(self, name: str, value: int) -> None:
        """Raise counter ``name`` to ``value`` if it is below (high-water mark)."""
        with self._lock:
            if value > self._counters.get(name, 0):
                self._counters[name] = int(value)

    def counter(self, name: str, default: int = 0) -> int:
        with self._lock:
            return self._counters.get(name, default)

    def counters(self, prefix: str | None = None) -> dict[str, int]:
        """Snapshot of all counters, optionally filtered by name prefix."""
        with self._lock:
            if prefix is None:
                return dict(self._counters)
            return {name: value for name, value in self._counters.items()
                    if name.startswith(prefix)}

    def merge_counters(self, counters: dict[str, int]) -> None:
        """Add a counter snapshot (e.g. from a worker process) into this one."""
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + int(value)

    # -- timers ------------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = TimerStats()
            timer.add(float(seconds))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into timer ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    def timer(self, name: str) -> TimerStats:
        """A copy of timer ``name`` (zeros when never recorded)."""
        with self._lock:
            timer = self._timers.get(name)
            return TimerStats(timer.calls, timer.seconds, timer.max_seconds) if timer else TimerStats()

    # -- gauges ------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Record the current value of a point-in-time quantity."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    # -- ops ---------------------------------------------------------------
    def record_op(self, op: str, nbytes: int = 0, calls: int = 1) -> None:
        with self._lock:
            stats = self._ops.get(op)
            if stats is None:
                stats = self._ops[op] = OpStats()
            stats.add(int(nbytes), calls)

    def op(self, name: str) -> OpStats:
        """A copy of op tally ``name`` (zeros when never recorded)."""
        with self._lock:
            stats = self._ops.get(name)
            return OpStats(stats.calls, stats.bytes) if stats else OpStats()

    def op_names(self) -> list[str]:
        with self._lock:
            return list(self._ops)

    # -- lifecycle ---------------------------------------------------------
    def reset(self, prefix: str | None = None) -> None:
        """Clear recorded state; with ``prefix``, only names starting with it."""
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._timers.clear()
                self._ops.clear()
                self._gauges.clear()
                return
            for table in (self._counters, self._timers, self._ops, self._gauges):
                for name in [n for n in table if n.startswith(prefix)]:
                    del table[name]

    def snapshot(self) -> dict:
        """One structured view of everything recorded so far.

        ``{"counters": {name: int},
           "timers":  {name: {"calls", "seconds", "max_seconds"}},
           "ops":     {name: {"calls", "bytes"}},
           "gauges":  {name: float}}``
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {
                        "calls": t.calls,
                        "seconds": t.seconds,
                        "max_seconds": t.max_seconds,
                    }
                    for name, t in self._timers.items()
                },
                "ops": {
                    name: {"calls": s.calls, "bytes": s.bytes}
                    for name, s in self._ops.items()
                },
            }

