"""Process engine: GIL-free reduction over resident shared-memory input.

The calling thread is thread 0 of the team, as the thread reaching an
OpenMP parallel region is (PAPER.md §3.2), and reduces its splits
through the read pointer; a :class:`~repro.core.worker.Pool` of
``num_workers - 1`` processes, kept while the scheduler lives, reduces
the rest, each on its own duplex pipe (a team of one has no pool, no
segment, no copy).  Two things move between parent and workers:

* **Input** — the partition stays behind the read pointer: a worker
  split is copied into the pool's one segment, at its own offset, when a
  run first sends it (a retry reuses it; thread 0's is never copied), so
  a split's callbacks read only its chunks (Table 1).
* **State and results** — everything else travels as bytes on the
  worker's pipe, and a worker keeps what it is sent.  Worker ``i``
  serves thread ``i + 1`` and holds a *session* of four versioned parts: the
  scheduler *core* (callbacks, policy, constants; one per engine), the
  run *header* (segment name, dtype, length, layout context,
  ``multi_key``, whether there is an output array; one per ``begin_run``,
  on which the worker binds its data view and builds its scheduler
  instance and its ``Recorder``), the iteration *delta*
  (combination map and ``mutable_state()``; one per combination phase)
  and the thread's reduction *map* (one per list handed to
  ``map_splits``, so a replayed iteration starts over).  A task carries
  only the parts whose version differs from ``Worker.holds`` — on a
  healthy block, the split alone.  A new map part says "derive the seed
  from the delta" (``Scheduler._make_reduction_maps``); on a list's
  later blocks a worker goes on from the map it kept, and one lacking it
  is shipped the parent's.  ``invalidate_state`` retires delta and map,
  ``end_run`` the header too; a worker whose task raised holds nothing,
  nor does a spawned or replaced one, so it is sent everything: recovery
  has no second path.  Maps cross packed when their objects have a
  schema, pickled otherwise (``CombinePolicy.wire_format`` is the comm
  wire, not these pipes); a reply is the updated map, early-emitted
  entries and the task's counter deltas — or the callbacks' exception,
  re-raised in the parent with its type.

``map_splits`` is the one dispatch loop, for every fault policy and with
or without a :class:`~repro.faults.FaultPlan` (drawn for worker tasks
only): send each worker its thread's split (one found dead while idle is
replaced first and costs nothing), reduce thread 0's, then
:func:`~repro.core.worker.wait` on the busy workers.  An exception,
thread 0's too, is raised once the block has drained; a death is *that*
worker's task lost; ``FaultPolicy.task_deadline`` passing with no reply
at all is a hang of every busy worker.  A dead or hung worker is
replaced (``engine.residency.invalidations``) and once the block has
drained the outcome follows the policy: ``retry`` raises
:class:`~repro.faults.EngineFaultError` so the scheduler replays the
iteration from the last consistent combination map, ``degrade`` folds
the completed splits and records the dropped ones, ``fail_fast`` raises.
A healthy block never takes any of those branches, so supervision costs
nothing and is never absent.
"""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import time
from typing import Iterable

import numpy as np

from ...faults import EngineFaultError, FaultPolicy
from ...telemetry import Recorder
from ..blas import one_blas_thread, set_blas_threads
from ..chunk import Split
from ..maps import KeyedMap
from ..serialization import deserialize_map, serialize_map, wire_format_of
from ..worker import Pool, Worker, detach, pack, view, wait
from .base import ExecutionEngine, join_keys


class _Session:
    """Worker side: the session parts this worker was sent and still
    holds, and the input segment it has mapped; called once per task."""

    def __init__(self):
        self.core = self.sched = self.red_map = None
        self.segments: dict = {}

    def __call__(self, message: tuple) -> tuple:
        """Install the session parts the task carries, then reduce its
        split against the kept view, state and reduction map."""
        parts, split, fault = message
        if fault is not None:
            if fault.kind == "kill":
                os._exit(1)  # simulated worker crash: no cleanup, no reply
            time.sleep(fault.seconds)  # "hang": stall well past the task deadline
        if "core" in parts:
            self.core = pickle.loads(parts["core"])
        if "header" in parts:
            self._bind_run(parts["header"])
        sched = self.sched
        if "delta" in parts:
            com_map_bytes, state = pickle.loads(parts["delta"])
            sched.combination_map_ = deserialize_map(com_map_bytes)
            sched.load_state(state)
        if "map" in parts:  # None: this iteration's seed, derived here
            payload = parts["map"]
            self.red_map = (sched._make_reduction_maps(1)[0] if payload is None
                            else deserialize_map(payload))
        emitted = KeyedMap()
        sched._reduce_split(split, self.red_map, sched.data_, None, self.multi_key,
                            capture=emitted)
        counters = sched.telemetry.counters()
        sched.telemetry.reset()
        return (
            serialize_map(self.red_map, "columnar"),
            serialize_map(emitted, "columnar") if self.wants_emitted and len(emitted) else b"",
            counters,
        )

    def _bind_run(self, header: tuple) -> None:
        """A new run: a scheduler instance over the resident core, with its
        own telemetry, viewing the run's partition."""
        self.sched = None  # drops the last run's view before its segment can close
        sched = copy.copy(self.core)
        sched.telemetry = Recorder()
        (name, dtype, n_elems, sched.global_offset_,
         sched.total_len_, self.multi_key, self.wants_emitted) = header
        detach(self.segments, [held for held in self.segments if held != name])
        sched.data_ = view(self.segments, name, (n_elems,), dtype)
        self.sched = sched


class ProcessEngine(ExecutionEngine):
    """Reduce splits on owned worker processes over one resident shm segment."""

    name = "process"

    def __init__(self, num_workers, telemetry):
        super().__init__(num_workers, telemetry)
        self._pool: Pool | None = None
        # The session: current (version, payload) of each part, and the list
        # of reduction maps (``map_splits``' last) the "map" part stands for.
        self._parts: dict[str, tuple[int, object]] = {}
        self._versions = itertools.count(1)
        self._red_maps: list[KeyedMap] | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._pool is None and self.num_workers > 1:  # thread 0 is the caller
            self._pool = Pool(_Session, self.num_workers - 1, name="smart-engine",
                              telemetry=self.telemetry, replaced="engine.residency.invalidations")
            self.telemetry.inc("engine.pools_created")

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
            self.telemetry.set_gauge("engine.residency.resident_bytes", 0)

    def begin_run(self, scheduler, data, out, multi_key) -> None:
        self._blas = one_blas_thread() if self._pool else None  # thread 0 shares the cores
        if scheduler.policy.engine.num_threads > self.num_workers:  # thread i -> worker i - 1
            raise RuntimeError(f"policy.engine.num_threads raised past this engine's team of "
                               f"{self.num_workers}; close() the scheduler first so it is rebuilt")
        super().begin_run(scheduler, data, out, multi_key)
        if self._pool is None:
            return
        segment = self._pool.segment(int(data.nbytes))
        self.telemetry.set_gauge("engine.residency.resident_bytes", segment.size)
        self._staged = np.ndarray(data.shape, dtype=data.dtype, buffer=segment.buf)
        self._copied = set()  # worker splits copied in as first sent (_send_task)
        self._ensure_core(scheduler)
        self.invalidate_state()
        self._publish("header", (
            segment.name, data.dtype.str, int(data.shape[0]),
            scheduler.global_offset_, scheduler.total_len_, multi_key, out is not None,
        ))

    def end_run(self) -> None:
        set_blas_threads(self._blas)  # the count before the run
        self._parts.pop("header", None)
        self._staged = None  # this run's view of the segment
        self.invalidate_state()
        super().end_run()

    def invalidate_state(self) -> None:
        """The combination phase ran: the delta, and with it every kept
        reduction map, belongs to the iteration that just ended."""
        for name in ("delta", "map"):
            self._parts.pop(name, None)
        self._red_maps = None

    # -- the session --------------------------------------------------------
    def _publish(self, name: str, payload) -> None:
        self._parts[name] = (next(self._versions), payload)

    def _ensure_core(self, sched) -> None:
        """Pickle the immutable scheduler core, once per engine: the
        scheduler minus everything workers must not share (arrays,
        communicator, engine, telemetry, fault plan) *and* minus what the
        header and the delta carry (the layout context, the combination
        map; ``mutable_state()`` attributes are overwritten worker-side)."""
        if "core" in self._parts:
            return
        clone = copy.copy(sched)
        for name in (
            "data_", "out_", "comm", "_fed", "_engine", "telemetry",
            "fault_plan", "combination_map_",  # the map travels in the delta
        ):
            setattr(clone, name, None)
        self._publish("core", pickle.dumps(clone, pickle.HIGHEST_PROTOCOL))

    def _tally_wire(self, payload: bytes) -> bytes:
        """Count a map payload crossing a worker pipe, by its encoding."""
        self.telemetry.record_op(f"engine.wire.{wire_format_of(payload)}", len(payload))
        return payload

    # -- execution ---------------------------------------------------------
    def _send_task(self, worker: Worker, split: Split, red_map: KeyedMap | None) -> None:
        """Send ``split`` with the session parts ``worker`` lacks;
        ``red_map`` is its thread's map so far (``None``: still the seed)."""
        span = (split.start, split.stop)
        if span not in self._copied:  # first sent this run: copy it in
            self._copied.add(span)
            self._staged[split.start:split.stop] = self._data[split.start:split.stop]
            self.telemetry.inc("engine.residency.copied_bytes", len(split) * self._data.itemsize)
        parts: dict[str, object] = {}
        for name, (version, payload) in self._parts.items():
            if worker.holds.get(name) != version:
                worker.holds[name] = version
                parts[name] = payload
        if "map" in parts and red_map is not None:  # the seed will not do
            parts["map"] = self._tally_wire(serialize_map(red_map, "columnar"))
        plan = self._sched.fault_plan
        fault = plan.engine_fault() if plan is not None else None
        if fault is not None:
            self.telemetry.inc(f"faults.injected.engine.{fault.kind}")
        frames = pack((parts, split, fault))
        core = parts.get("core", b"")
        if core:
            self.telemetry.record_op("engine.state.core", len(core))
        self.telemetry.record_op("engine.dispatch", sum(map(len, frames)) - len(core))
        worker.send(frames)

    def _dispatch(self, splits: list[Split], red_maps: list[KeyedMap], fresh: bool,
                  policy: FaultPolicy) -> tuple[list[np.ndarray], list[tuple | None]]:
        """Send the workers their splits, reduce thread 0's here, collect
        the replies: thread 0's emitted keys, and a reply per split
        (``None``: thread 0's, or dropped in degrade mode).  One task is
        in flight per worker, so neither side can block writing to a
        pipe nobody reads."""
        results: list[tuple | None] = [None] * len(splits)
        busy: dict[Worker, int] = {}
        error: BaseException | None = None
        lost, kind = 0, "dead"
        try:
            for index, split in enumerate(splits):
                if split.thread_id:
                    worker = self._pool.worker(split.thread_id - 1)
                    busy[worker] = index
                    self._send_task(worker, split, None if fresh else red_maps[split.thread_id])
            try:
                own = [self._reduce(s, red_maps[0]) for s in splits if not s.thread_id]
            except Exception as exc:  # raised once the workers have replied
                error = exc
            while busy:
                ready = wait(busy, policy.task_deadline)
                # Nothing at all within the deadline: every busy worker hangs.
                for worker in ready or list(busy):
                    index = busy.pop(worker)
                    reply = worker.receive() if ready else None
                    if reply is None:
                        lost, kind = lost + 1, "dead" if ready else "hung"
                        self.telemetry.inc(f"faults.detected.worker_{kind}")
                        with self.telemetry.span("faults.recovery_seconds"):
                            self._pool.replace(splits[index].thread_id - 1)
                    elif isinstance(reply, BaseException):
                        error = error or reply
                        worker.holds.clear()  # whatever it installed, send it all again
                    else:
                        results[index] = reply
        except BaseException:
            # Interrupted mid-block (Ctrl-C in a notebook): a busy worker
            # must neither answer the next block with this one's reply
            # nor still be reading a segment the next run rewrites.
            for index in busy.values():
                self._pool.replace(splits[index].thread_id - 1)
            raise
        if error is not None:
            raise error
        if lost and policy.mode == "degrade":
            self.telemetry.inc("faults.dropped_splits", lost)
        elif lost:
            raise EngineFaultError(f"{lost} split task(s) lost to a {kind} worker "
                                   "(worker replaced)")
        return own, results

    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> np.ndarray:
        splits = list(splits)
        if self._pool is None:  # a team of one: the caller is all of it
            return super().map_splits(splits, red_maps)
        sched = self._sched
        assert sched is not None and "header" in self._parts, "map_splits outside a run"
        if "delta" not in self._parts:  # first block since the combination phase
            com_map_bytes = serialize_map(sched.combination_map_, "columnar")
            delta = pickle.dumps((com_map_bytes, sched.mutable_state()), pickle.HIGHEST_PROTOCOL)
            self._publish("delta", delta)
            self.telemetry.record_op("engine.state.delta", len(delta))
        # A list not handed in last time is fresh (an iteration's, or its
        # replay's): whatever a worker kept, it derives the seed.  After that
        # block, a worker lacking its thread's map is sent it so far.
        fresh = red_maps is not self._red_maps
        if fresh:
            self._red_maps = red_maps
            self._publish("map", None)
        with self.telemetry.span("engine.block_seconds"):
            emitted, results = self._dispatch(splits, red_maps, fresh, sched.policy.fault)
        for split, result in zip(splits, results):
            if result is None:  # thread 0's, or dropped under degrade
                continue
            map_bytes, emitted_bytes, counters = result
            red_maps[split.thread_id].replace_contents(deserialize_map(self._tally_wire(map_bytes)))
            self.telemetry.merge_counters(counters)
            self.telemetry.inc("engine.splits")
            if emitted_bytes:
                entries = deserialize_map(self._tally_wire(emitted_bytes))
                emitted.append(sched._convert_entries(entries, self._out))
        return join_keys(emitted)
