"""Refcounted shared-read residency for sim steps.

The in-situ contract is that a sim step is written once and read by
many analytics jobs.  :class:`SharedStepStore` makes that sharing
explicit at the service layer: the first :meth:`register` of a step
writes it once, by its file descriptor, into a one-slot
:class:`~repro.core.worker.Ring`, and every job that names the step
:meth:`attach`\\ es a lease naming the *same* segment, which a reader
maps by name (:func:`~repro.core.worker.view`) — N concurrent readers,
one resident copy, so dispatch bytes stay flat as tenants grow.  The
store never maps a step's pages itself.

Lifetime is refcounted.  :meth:`release` (or the :class:`StepLease`
context manager) drops a reader; :meth:`retire` marks a step evictable,
but the ring is only closed once the last reader has
released — eviction can never fire under a live reader.  Leases live in
the process that holds the store: the service takes each job's lease when
it admits the job and releases it when the job ends, whatever becomes of
the seat process that reads the segment, so a queued job keeps its step
and no lease outlives its job.

Telemetry lands in the ``engine.residency.shared_*`` namespace next to
the process engine's per-run residency counters:

* ``engine.residency.shared_copies`` / ``shared_copied_bytes`` — one
  per registered step (the single upload).
* ``engine.residency.shared_attaches`` — one per reader that did *not*
  need its own copy.
* ``engine.residency.shared_evict_deferred`` — retire() under readers.
* gauges ``engine.residency.shared_segments`` / ``shared_readers`` —
  live state, written where a count changes.
"""

from __future__ import annotations

import math
import threading
from multiprocessing.util import Finalize

import numpy as np

from ..core.worker import Ring, halt, write_segment
from ..telemetry import Recorder

__all__ = ["SharedStepStore", "StepLease"]


class _Step(Ring):
    """A resident step: its one frame in a one-slot ring, and its leases."""

    def __init__(self, shape: tuple, dtype: np.dtype):
        super().__init__(1)
        self.shape, self.dtype = shape, dtype
        self.readers = 0  # live leases
        self.retired = False  # evictable: freed when the last lease ends


class StepLease:
    """One reader's refcounted handle on a resident step.

    ``lease.segment`` is what a reader needs to map the step's bytes
    (:func:`~repro.core.worker.view`): the segment's name, the step's shape
    and its dtype string.  Usable as a context manager (releases on exit).
    """

    def __init__(self, store: "SharedStepStore", step_id: str, segment: tuple[str, tuple, str]):
        self._store = store
        self.step_id = step_id
        self.segment = segment
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._store._release(self.step_id)

    def __enter__(self) -> "StepLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SharedStepStore:
    """Refcounted shared-memory rings, one per registered sim step."""

    def __init__(self, telemetry: Recorder | None = None):
        self._lock = threading.RLock()  # close() runs the exit halt under it
        self._steps: dict[str, _Step] = {}
        #: live leases over every step (the ``shared_readers`` gauge)
        self._readers = 0
        self.telemetry = telemetry if telemetry is not None else Recorder()
        # A store never closed frees its rings when collected or at
        # interpreter exit, by a worker pool's halt (and beside it).
        Finalize(self, halt, args=((), self._steps.values(), self._lock), exitpriority=10)

    # -- registration --------------------------------------------------
    def register(self, step_id: str, data: np.ndarray) -> None:
        """Publish ``data`` as resident step ``step_id`` (one copy).

        A step is immutable once published: any second ``register`` of a
        taken id raises, whatever array it passes.
        """
        data = np.ascontiguousarray(data)
        with self._lock:
            if step_id in self._steps:
                raise ValueError(f"step {step_id!r} is already resident")
            step = _Step(data.shape, data.dtype)
            try:
                offset = step.place(0, data.nbytes)  # makes the segment
                write_segment(step.segment, offset, data)
            except BaseException:
                step.close()  # a full /dev/shm: nothing stays resident
                raise
            self._steps[step_id] = step
            self.telemetry.inc("engine.residency.shared_copies")
            self.telemetry.inc("engine.residency.shared_copied_bytes", data.nbytes)
            self.telemetry.set_gauge("engine.residency.shared_segments", len(self._steps))

    # -- leases --------------------------------------------------------
    def attach(self, step_id: str) -> StepLease:
        """Take a refcounted lease on a resident step's segment."""
        with self._lock:
            step = self._steps.get(step_id)
            if step is None:
                raise KeyError(f"step {step_id!r} is not resident")
            if step.retired:
                # Deferred eviction: the step accepts no new readers.
                raise KeyError(f"step {step_id!r} is retired")
            step.readers += 1
            self._readers += 1
            self.telemetry.inc("engine.residency.shared_attaches")
            self.telemetry.set_gauge("engine.residency.shared_readers", self._readers)
            return StepLease(self, step_id, (step.segment.name, step.shape, step.dtype.str))

    def _release(self, step_id: str) -> None:
        with self._lock:
            step = self._steps.get(step_id)
            if step is None:
                return
            step.readers -= 1
            self._readers -= 1
            self.telemetry.set_gauge("engine.residency.shared_readers", self._readers)
            if step.retired and not step.readers:
                self._evict_locked(step_id)

    # -- eviction ------------------------------------------------------
    def retire(self, step_id: str) -> bool:
        """Mark a step evictable; evict now iff no reader holds a ref.

        Returns True if the segment was freed, False if eviction was
        deferred behind live readers (it will fire on the last release).
        """
        with self._lock:
            step = self._steps.get(step_id)
            if step is None:
                return True
            step.retired = True
            if step.readers:
                self.telemetry.inc("engine.residency.shared_evict_deferred")
                return False
            self._evict_locked(step_id)
            return True

    def _evict_locked(self, step_id: str) -> None:
        step = self._steps.pop(step_id)
        assert not step.readers, "eviction under a live reader"
        step.close()
        self.telemetry.set_gauge("engine.residency.shared_segments", len(self._steps))

    # -- introspection -------------------------------------------------
    def elements(self, step_id: str) -> int:
        """Element count of a resident step (no lease, no counters)."""
        with self._lock:
            step = self._steps.get(step_id)
            if step is None:
                raise KeyError(f"step {step_id!r} is not resident")
            return math.prod(step.shape)

    def readers(self, step_id: str) -> int:
        with self._lock:
            step = self._steps.get(step_id)
            return step.readers if step else 0

    def resident_steps(self) -> list[str]:
        with self._lock:
            return list(self._steps)

    def segment_names(self) -> set[str]:
        """Names of the shared-memory segments still resident."""
        with self._lock:
            return {step.segment.name for step in self._steps.values()}

    def hit_rate(self) -> float:
        """Fraction of reads served by an existing resident copy."""
        hits = self.telemetry.counter("engine.residency.shared_attaches")
        copies = self.telemetry.counter("engine.residency.shared_copies")
        total = hits + copies
        return hits / total if total else 0.0

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Force-free every segment (shutdown path; ignores refcounts)."""
        with self._lock:
            halt((), self._steps.values(), self._lock)
            self._steps.clear()
            self._readers = 0
            self.telemetry.set_gauge("engine.residency.shared_segments", 0)
            self.telemetry.set_gauge("engine.residency.shared_readers", 0)

    def __enter__(self) -> "SharedStepStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
