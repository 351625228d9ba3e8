"""Unified runtime telemetry.

One :class:`Recorder` backs every runtime statistic in the system: the
scheduler's :class:`~repro.core.scheduler.RunStats`, the communication
layer's :class:`~repro.comm.profiler.TrafficProfiler`, and the execution
engines' per-split timings all write into the same primitive — named
counters, timers, and per-operation (calls, bytes) tallies — so the
harness, the perfmodel calibration, and the benchmarks read a single
structured snapshot instead of three ad-hoc ones.

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

When several independent producers (e.g. concurrent analytics jobs in
the multi-tenant service) must share one recorder without their names
colliding, :meth:`Recorder.scoped` hands out a :class:`ScopedRecorder`
child: a drop-in recorder whose every name is transparently prefixed
with a dotted namespace (``service.tenant.a.job.3.``) in the parent.
Scope prefixes always end with a ``.`` so neighbouring namespaces can
never prefix-match each other (``job.1.`` does not capture
``job.11.*`` — the collision a bare ``counters("job.1")`` query has).
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

    # -- scoping -----------------------------------------------------------
    def scoped(self, prefix: str) -> "ScopedRecorder":
        """A child recorder writing through to this one under ``prefix``.

        The prefix is normalized to end with a ``.`` (namespace
        boundary), so sibling scopes can never capture each other's
        names the way a raw ``counters(prefix)`` substring query can
        (``"job.1"`` matches ``job.11.*``; ``"job.1."`` does not).
        Scopes nest: ``rec.scoped("a").scoped("b")`` writes ``a.b.*``.
        """
        return ScopedRecorder(self, prefix)

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


class ScopedRecorder(Recorder):
    """A namespaced view of a parent :class:`Recorder`.

    Every write delegates to the *root* recorder with the scope prefix
    prepended; every read filters the root's state down to the scope and
    strips the prefix, so scope-local code sees plain names
    (``run.chunks_processed``) while the parent aggregates the fully
    qualified ones (``service.tenant.a.job.3.run.chunks_processed``).

    Drop-in: a scheduler, an execution engine, or a communicator handed
    a scoped recorder behaves identically to one handed the root —
    including :meth:`span` and :meth:`merge_counters` (the process
    engine's worker-snapshot merge lands inside the scope).  All state
    and locking live in the root; the scope itself is immutable and
    thread-safe by construction.
    """

    def __init__(self, parent: Recorder, prefix: str):
        if not prefix:
            raise ValueError("scope prefix must be non-empty")
        if not prefix.endswith("."):
            prefix += "."
        if isinstance(parent, ScopedRecorder):
            # Flatten nesting: one hop to the root, combined prefix.
            self._root: Recorder = parent._root
            self._scope = parent._scope + prefix
        else:
            self._root = parent
            self._scope = prefix

    @property
    def root(self) -> Recorder:
        """The underlying unscoped recorder all writes land in."""
        return self._root

    @property
    def scope(self) -> str:
        """This recorder's full dotted prefix (always ``.``-terminated)."""
        return self._scope

    def _strip(self, table: dict) -> dict:
        n = len(self._scope)
        return {name[n:]: value for name, value in table.items()
                if name.startswith(self._scope)}

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, value: int = 1) -> int:
        return self._root.inc(self._scope + name, value)

    def set_counter(self, name: str, value: int) -> None:
        self._root.set_counter(self._scope + name, value)

    def observe_max(self, name: str, value: int) -> None:
        self._root.observe_max(self._scope + name, value)

    def counter(self, name: str, default: int = 0) -> int:
        return self._root.counter(self._scope + name, default)

    def counters(self, prefix: str | None = None) -> dict[str, int]:
        return self._strip(self._root.counters(self._scope + (prefix or "")))

    def merge_counters(self, counters: dict[str, int]) -> None:
        self._root.merge_counters(
            {self._scope + name: value for name, value in counters.items()})

    # -- timers ------------------------------------------------------------
    def add_time(self, name: str, seconds: float) -> None:
        self._root.add_time(self._scope + name, seconds)

    def timer(self, name: str) -> TimerStats:
        return self._root.timer(self._scope + name)

    # -- gauges ------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        self._root.set_gauge(self._scope + name, value)

    def gauge(self, name: str, default: float = 0) -> float:
        return self._root.gauge(self._scope + name, default)

    # -- ops ---------------------------------------------------------------
    def record_op(self, op: str, nbytes: int = 0, calls: int = 1) -> None:
        self._root.record_op(self._scope + op, nbytes, calls)

    def op(self, name: str) -> OpStats:
        return self._root.op(self._scope + name)

    def op_names(self) -> list[str]:
        n = len(self._scope)
        return [name[n:] for name in self._root.op_names()
                if name.startswith(self._scope)]

    # -- lifecycle ---------------------------------------------------------
    def reset(self, prefix: str | None = None) -> None:
        self._root.reset(self._scope + (prefix or ""))

    def snapshot(self) -> dict:
        snap = self._root.snapshot()
        return {table: self._strip(snap[table])
                for table in ("counters", "gauges", "timers", "ops")}
