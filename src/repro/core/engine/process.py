"""Process engine: GIL-free reduction over resident shared-memory input.

The engine owns ``num_workers`` daemon processes for as long as its
scheduler lives (the paper's fixed thread team, PAPER.md §3.2), each on
its own duplex pipe.  Two things move between parent and workers:

* **Input** — the partition lives in parent-owned
  ``multiprocessing.shared_memory`` segments that survive across runs.
  ``begin_run`` copies data in only on a *miss*; when the incoming array
  is the same unchanged buffer as a resident copy (tracked by the
  scheduler's data version), or is itself a view of a resident
  ``step_buffer`` slot a double-buffered driver filled directly, the
  copy is skipped and only the segment's data epoch advances.  Workers
  reduce zero-copy numpy views of the segments.  This is the engine's
  only shared memory.
* **State and results** — everything else travels as bytes on the
  worker's pipe, and a worker keeps what it is sent.  Worker ``i``
  serves thread ``i`` and holds a *session* of four versioned parts: the
  scheduler *core* (callbacks, policy, constants; one per engine), the
  run *header* (segment name, dtype, length, offset, layout context,
  ``multi_key``, whether there is an output array; one per ``begin_run``,
  on which the worker binds its data view and builds its scheduler
  instance, ``Recorder`` and ``RunStats``), the iteration *delta*
  (combination map and ``mutable_state()``; one per combination phase)
  and the thread's reduction *map* (one per list handed to
  ``map_splits``, so a replayed iteration starts over).  A task carries
  only the parts whose version differs from ``_Worker.holds`` — on a
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
or without a :class:`~repro.faults.FaultPlan`: send each split to its
thread's worker, then block in ``multiprocessing.connection.wait`` on
the busy workers' pipes and process sentinels.  A readable pipe is a
reply; a ready sentinel with nothing to read is *that* worker's death
with *that* task lost; ``FaultPolicy.task_deadline`` passing with no
reply at all is a hang of every busy worker.  A dead or hung worker is
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
import math
import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
from contextlib import contextmanager
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from ...faults import EngineFaultError, FaultPolicy
from ...telemetry import Recorder
from ..chunk import Split
from ..maps import KeyedMap
from ..serialization import deserialize_map, serialize_map, wire_format_of
from .base import ExecutionEngine

#: Resident input segments kept per engine: two double-buffer slots plus
#: one steady-state partition copy.  A worker caches as many attachments.
_MAX_RESIDENT_SEGMENTS = 3

#: Elements sampled for the in-place-rewrite tripwire on steady-state
#: residency hits (a strided fingerprint, not a full content check).
_FINGERPRINT_SAMPLES = 64


@contextmanager
def _untracked_shm():
    """Suppress resource-tracker registration for a SharedMemory call.

    The parent owns every segment's lifetime (it unlinks its resident
    input segments on shutdown); a worker only attaches.  On Python <
    3.13 attaching would also register the segment with the resource
    tracker, which would then warn about — and try to re-unlink — a
    segment the worker does not own.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original_register


def _attach_segment(
    segments: dict[str, shared_memory.SharedMemory], name: str
) -> shared_memory.SharedMemory:
    """Worker side: the named input segment, attached once and cached.

    A worker serves many tasks against the same resident segments;
    re-attaching per task would churn file descriptors.  Bounded: the
    oldest attachment is dropped when the cache is full, so segments the
    parent has already replaced do not pin memory.
    """
    segment = segments.get(name)
    if segment is None:
        while len(segments) >= _MAX_RESIDENT_SEGMENTS:
            segments.pop(next(iter(segments))).close()
        with _untracked_shm():
            segment = shared_memory.SharedMemory(name=name)
        segments[name] = segment
    return segment


def _run_task(session: SimpleNamespace, message: tuple) -> tuple:
    """Worker side: install the session parts the task carries, then
    reduce its split against the kept view, state and reduction map."""
    parts, split, fault = message
    if fault is not None:
        if fault.kind == "kill":
            os._exit(1)  # simulated worker crash: no cleanup, no reply
        time.sleep(fault.seconds)  # "hang": stall well past the task deadline
    if "core" in parts:
        session.core = pickle.loads(parts["core"])
    if "header" in parts:
        _bind_run(session, parts["header"])
    sched = session.sched
    if "delta" in parts:
        com_map_bytes, state = pickle.loads(parts["delta"])
        sched.combination_map_ = deserialize_map(com_map_bytes)
        sched.load_state(state)
    if "map" in parts:  # None: this iteration's seed, derived here
        payload = parts["map"]
        session.red_map = (
            sched._make_reduction_maps(1)[0] if payload is None
            else deserialize_map(payload)
        )
    emitted = KeyedMap()
    sched._reduce_split(
        split, session.red_map, sched.data_, None, session.multi_key, capture=emitted
    )
    counters = sched.telemetry.counters()
    sched.telemetry.reset()
    return (
        serialize_map(session.red_map, "columnar"),
        serialize_map(emitted, "columnar") if session.wants_emitted and len(emitted) else b"",
        counters,
    )


def _bind_run(session: SimpleNamespace, header: tuple) -> None:
    """A new run: a scheduler instance over the resident core, with its
    own telemetry, viewing the run's partition."""
    from ..scheduler import RunStats  # deferred: scheduler imports this module's package

    session.sched = None  # drops the last run's view before its segment can close
    sched = copy.copy(session.core)
    sched.telemetry = Recorder()
    sched.stats = RunStats(sched.telemetry)
    (shm_name, dtype, n_elems, data_offset, sched.global_offset_,
     sched.total_len_, session.multi_key, session.wants_emitted) = header
    segment = _attach_segment(session.segments, shm_name)
    sched.data_ = np.ndarray(
        (n_elems,), dtype=np.dtype(dtype), buffer=segment.buf, offset=data_offset
    )
    session.sched = sched


def _portable(exc: Exception) -> Exception:
    """``exc`` with its worker traceback noted, if it survives a pickle
    round trip; otherwise a ``RuntimeError`` naming it (an exception
    whose constructor takes other arguments than its ``args`` would fail
    to rebuild in the parent)."""
    exc.add_note("process-engine worker traceback:\n" + traceback.format_exc())
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        portable = RuntimeError(f"{type(exc).__name__}: {exc}")
        portable.__notes__ = exc.__notes__
        return portable
    return exc


def _worker_main(conn) -> None:
    """Worker process: serve split tasks from ``conn`` until told to stop.

    ``session`` is what this worker has been sent and still holds, plus
    the input segments it has attached; every message but the empty one
    (stop) gets exactly one reply.
    """
    session = SimpleNamespace(core=None, sched=None, red_map=None, segments={})
    while True:
        try:
            message = conn.recv_bytes()
        except EOFError:  # the parent is gone
            return
        if not message:
            return
        try:
            reply = _run_task(session, pickle.loads(message))
        except Exception as exc:
            reply = _portable(exc)
        conn.send(reply)


class _Worker:
    """One owned worker process, the parent's end of its pipe, and the
    version of each session part it was last sent."""

    __slots__ = ("process", "conn", "holds")

    def __init__(self):
        self.conn, child_conn = mp.Pipe()
        self.process = mp.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()  # the worker's end lives in the worker only
        self.holds: dict[str, int] = {}

    def send(self, message: bytes) -> None:
        try:
            self.conn.send_bytes(message)
        except OSError:
            pass  # already dead: its sentinel reports the loss

    def receive(self):
        """The reply waiting on the pipe, or ``None`` if the worker died
        without (or while) sending one."""
        try:
            return self.conn.recv() if self.conn.poll() else None
        except (EOFError, OSError):
            return None

    def stop(self, kill: bool = False) -> None:
        if kill:
            self.process.kill()
        else:
            self.send(b"")
        self.process.join()
        self.conn.close()


def _fingerprint(data: np.ndarray) -> np.ndarray:
    """A small strided sample of ``data`` (the steady-state tripwire)."""
    flat = data.reshape(-1)
    stride = max(1, flat.shape[0] // _FINGERPRINT_SAMPLES)
    return flat[::stride][: _FINGERPRINT_SAMPLES].copy()


def _fingerprints_match(a: np.ndarray | None, b: np.ndarray) -> bool:
    if a is None or a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


class _ResidentSegment:
    """One parent-owned shared-memory segment holding partition bytes.

    Tracks everything the residency protocol needs: the data *epoch*
    (advanced whenever the segment's contents change — a copy-in or a
    direct in-place rewrite through a ``step_buffer`` view), the source
    array a steady-state hit is checked against (held strongly, so the
    identity test can never alias a recycled ``id``), and the
    ``step_buffer`` slot pinned to the segment, if any (pinned segments
    are never evicted: the driver holds live views of them).
    """

    __slots__ = (
        "shm",
        "addr",
        "capacity",
        "epoch",
        "slot",
        "source",
        "source_version",
        "source_print",
        "nbytes",
        "dtype",
        "last_used",
    )

    def __init__(self, shm: shared_memory.SharedMemory):
        self.shm = shm
        self.capacity = shm.size
        self.addr = np.frombuffer(shm.buf, dtype=np.uint8).__array_interface__["data"][0]
        self.epoch = 0
        self.slot: int | None = None
        self.source: np.ndarray | None = None
        self.source_version = -1
        self.source_print: np.ndarray | None = None
        self.nbytes = 0
        self.dtype: str | None = None
        self.last_used = 0


class ProcessEngine(ExecutionEngine):
    """Reduce splits on owned worker processes over resident shm input."""

    name = "process"

    def __init__(self, num_workers, telemetry):
        super().__init__(num_workers, telemetry)
        self._workers: list[_Worker] = []
        # Input residency (guarded by _segments_lock: a pipelined driver's
        # producer thread requests step buffers while the consumer runs).
        self._segments_lock = threading.Lock()
        self._residents: list[_ResidentSegment] = []
        self._active: _ResidentSegment | None = None
        self._use_seq = itertools.count(1)
        # The session: current (version, payload) of each part, and the list
        # of reduction maps (``map_splits``' last) the "map" part stands for.
        self._parts: dict[str, tuple[int, object]] = {}
        self._versions = itertools.count(1)
        self._red_maps: list[KeyedMap] | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if not self._workers:
            self._workers = [_Worker() for _ in range(self.num_workers)]
            self.telemetry.inc("engine.pools_created")

    def _stop_workers(self, kill: bool = False) -> None:
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop(kill)

    def shutdown(self) -> None:
        self._stop_workers()
        self._release_all_segments()
        super().shutdown()

    def __del__(self):  # pragma: no cover - interpreter-exit safety net
        self._stop_workers(kill=True)
        self._release_all_segments()

    def begin_run(self, scheduler, data, out, multi_key) -> None:
        if scheduler.policy.engine.num_threads > len(self._workers):  # thread i -> worker i
            raise RuntimeError(
                f"policy.engine.num_threads raised past this engine's {len(self._workers)} "
                "workers; close() the scheduler first so the team is rebuilt"
            )
        super().begin_run(scheduler, data, out, multi_key)
        nbytes = int(data.nbytes)
        data_version = getattr(scheduler, "_data_version", 0)
        with self._segments_lock:
            seg, offset = self._bind_segment(data, nbytes, data_version)
            seg.last_used = next(self._use_seq)
            self._active = seg
            self.telemetry.set_gauge("engine.residency.epoch", seg.epoch)
        self._ensure_core(scheduler)
        self.invalidate_state()
        self._publish("header", (
            seg.shm.name, data.dtype.str, int(data.shape[0]), offset,
            scheduler.global_offset_, scheduler.total_len_, multi_key, out is not None,
        ))

    def _bind_segment(
        self, data: np.ndarray, nbytes: int, data_version: int
    ) -> tuple[_ResidentSegment, int]:
        """Resolve ``data`` to a resident segment (lock held).

        Hit paths, tried in order:

        1. *direct* — ``data`` is a view of a resident segment (the
           producer wrote a ``step_buffer`` slot in place).  No copy;
           the slot's epoch advances because its contents changed.
        2. *steady-state* — ``data`` is the very array copied in before,
           and the scheduler's data version says it was not rewritten
           (``notify_data_changed``).  No copy, epoch unchanged.  A
           strided content fingerprint backstops the contract: an
           unannounced in-place rewrite that changes any sampled element
           is demoted to a miss (``engine.residency.guard_trips``).

        Anything else is a miss: copy into a reusable resident segment,
        or a fresh one.
        """
        direct = self._find_direct(data)
        if direct is not None:
            seg, offset = direct
            seg.epoch += 1  # contents rewritten in place by the producer
            seg.source = None
            seg.source_print = None
            self.telemetry.inc("engine.residency.hits")
            self.telemetry.inc("engine.residency.direct_hits")
            self.telemetry.inc("engine.residency.bytes_saved", nbytes)
            return seg, offset
        seg = self._find_steady(data, data_version)
        if seg is not None:
            self.telemetry.inc("engine.residency.hits")
            self.telemetry.inc("engine.residency.bytes_saved", nbytes)
            return seg, 0
        seg = self._install(data, nbytes, data_version)
        self.telemetry.inc("engine.residency.misses")
        return seg, 0

    def _find_direct(self, data: np.ndarray) -> tuple[_ResidentSegment, int] | None:
        if not data.flags["C_CONTIGUOUS"]:
            return None
        addr = data.__array_interface__["data"][0]
        for seg in self._residents:
            if seg.addr <= addr and addr + int(data.nbytes) <= seg.addr + seg.capacity:
                return seg, addr - seg.addr
        return None

    def _find_steady(
        self, data: np.ndarray, data_version: int
    ) -> _ResidentSegment | None:
        for seg in self._residents:
            if (
                seg.source is data
                and seg.source_version == data_version
                and seg.nbytes == int(data.nbytes)
                and seg.dtype == data.dtype.str
            ):
                if not _fingerprints_match(seg.source_print, _fingerprint(data)):
                    # Rewritten in place without notify_data_changed():
                    # safety net, not a licensed code path.
                    self.telemetry.inc("engine.residency.guard_trips")
                    return None
                return seg
        return None

    def _install(
        self, data: np.ndarray, nbytes: int, data_version: int
    ) -> _ResidentSegment:
        seg = self._reusable_segment(data, nbytes)
        if seg is None:
            seg = self._new_segment(max(nbytes, 1))
        if nbytes:
            view = np.ndarray(data.shape, dtype=data.dtype, buffer=seg.shm.buf)
            np.copyto(view, data)
            del view
        seg.epoch += 1
        seg.nbytes = nbytes
        seg.dtype = data.dtype.str
        seg.source = data  # strong ref: identity check can never alias
        seg.source_version = data_version
        seg.source_print = _fingerprint(data) if nbytes else None
        self.telemetry.inc("engine.residency.copied_bytes", nbytes)
        return seg

    def _reusable_segment(
        self, data: np.ndarray, nbytes: int
    ) -> _ResidentSegment | None:
        candidates = [
            seg
            for seg in self._residents
            if seg.slot is None and seg is not self._active and seg.capacity >= nbytes
        ]
        if not candidates:
            return None
        for seg in candidates:
            if seg.source is data:  # recopy of a notified array: keep its home
                return seg
        return min(candidates, key=lambda seg: seg.last_used)

    def _new_segment(self, capacity: int) -> _ResidentSegment:
        evictable = [
            seg
            for seg in self._residents
            if seg.slot is None and seg is not self._active
        ]
        while len(self._residents) >= _MAX_RESIDENT_SEGMENTS and evictable:
            victim = min(evictable, key=lambda seg: seg.last_used)
            evictable.remove(victim)
            self._release_segment(victim)
        shm = shared_memory.SharedMemory(create=True, size=capacity)
        seg = _ResidentSegment(shm)
        self._residents.append(seg)
        self._update_resident_gauge()
        return seg

    def _release_segment(self, seg: _ResidentSegment) -> None:
        if seg in self._residents:
            self._residents.remove(seg)
        seg.source = None
        try:
            seg.shm.close()
        except BufferError:  # pragma: no cover - caller still holds a view
            # A step_buffer view is still alive; the mapping is reclaimed
            # when the last view dies.  Unlinking below still removes the
            # /dev/shm name, so nothing leaks past the process.
            pass
        try:
            seg.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
        self._update_resident_gauge()

    def _release_all_segments(self) -> None:
        with self._segments_lock:
            for seg in list(self._residents):
                self._release_segment(seg)
            self._active = None

    def _update_resident_gauge(self) -> None:
        self.telemetry.set_gauge(
            "engine.residency.resident_bytes",
            sum(seg.capacity for seg in self._residents),
        )

    def step_buffer(self, slot: int, shape, dtype) -> np.ndarray:
        """A writable view of a resident segment pinned to ``slot``.

        Double-buffered drivers fill alternating slots with simulation
        output; a partition passed to ``run`` out of a slot is a
        *direct* residency hit — workers attach the segment, nothing is
        copied anywhere.  Slot segments are never evicted while pinned
        (the caller holds live views); they are released on shutdown or
        when the slot is re-requested with a larger footprint.
        """
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        with self._segments_lock:
            seg = next((s for s in self._residents if s.slot == slot), None)
            if seg is not None and seg.capacity < nbytes:
                self._release_segment(seg)
                seg = None
            if seg is None:
                seg = self._new_segment(max(nbytes, 1))
                seg.slot = slot
            seg.source = None
            seg.source_print = None
            seg.last_used = next(self._use_seq)
            return np.ndarray(shape, dtype=dtype, buffer=seg.shm.buf)

    def end_run(self) -> None:
        with self._segments_lock:
            self._active = None
        self._parts.pop("header", None)
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
        """Pickle the immutable scheduler core, once per engine.

        The core is the scheduler minus everything workers must not
        share (arrays, communicator, engine, telemetry, fault plan)
        *and* minus what the header and the delta carry (the layout
        context, the combination map; ``mutable_state()`` attributes are
        simply overwritten worker-side).
        """
        if "core" in self._parts:
            return
        clone = copy.copy(sched)
        for name in (
            "data_", "out_", "comm", "_fed", "_engine", "telemetry", "stats",
            "fault_plan", "combination_map_",  # the map travels in the delta
        ):
            setattr(clone, name, None)
        self._publish("core", pickle.dumps(clone, pickle.HIGHEST_PROTOCOL))

    def _tally_wire(self, payload: bytes) -> bytes:
        """Count a map payload crossing a worker pipe, by its encoding."""
        self.telemetry.record_op(f"engine.wire.{wire_format_of(payload)}", len(payload))
        return payload

    # -- execution ---------------------------------------------------------
    def _send_task(self, worker: _Worker, split: Split, red_map: KeyedMap | None) -> None:
        """Send ``split`` with the session parts ``worker`` lacks;
        ``red_map`` is its thread's map so far (``None``: still the seed)."""
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
        message = pickle.dumps((parts, split, fault), pickle.HIGHEST_PROTOCOL)
        core = parts.get("core", b"")
        if core:
            self.telemetry.record_op("engine.state.core", len(core))
        self.telemetry.record_op("engine.dispatch", len(message) - len(core))
        worker.send(message)

    def _replace(self, worker: _Worker) -> None:
        """Put a fresh worker (one that holds nothing) in ``worker``'s place."""
        worker.stop(kill=True)
        self._workers[self._workers.index(worker)] = _Worker()

    def _dispatch(
        self, splits: list[Split], so_far: list[KeyedMap | None], policy: FaultPolicy
    ) -> list[tuple | None]:
        """Run every split on its thread's worker; ``None`` marks a
        dropped one (degrade mode).  One task is in flight per worker, so
        neither side can block writing to a pipe nobody reads."""
        results: list[tuple | None] = [None] * len(splits)
        busy: dict[_Worker, int] = {}
        error: BaseException | None = None
        lost, kind = 0, "dead"
        try:
            for index, split in enumerate(splits):
                worker = self._workers[split.thread_id]
                busy[worker] = index
                self._send_task(worker, split, so_far[split.thread_id])
            while busy:
                owner = {w.conn: w for w in busy} | {w.process.sentinel: w for w in busy}
                ready = wait(list(owner), timeout=policy.task_deadline)
                # Nothing at all within the deadline: every busy worker hangs.
                for worker in dict.fromkeys(owner[r] for r in ready) or list(busy):
                    index = busy.pop(worker)
                    reply = worker.receive() if ready else None
                    if reply is None:
                        lost, kind = lost + 1, "dead" if ready else "hung"
                        self.telemetry.inc(f"faults.detected.worker_{kind}")
                        with self.telemetry.span("faults.recovery_seconds"):
                            self._replace(worker)
                        self.telemetry.inc("engine.residency.invalidations")
                    elif isinstance(reply, BaseException):
                        error = error or reply
                        worker.holds.clear()  # whatever it installed, send it all again
                    else:
                        results[index] = reply
        except BaseException:
            # Interrupted mid-block (Ctrl-C in a notebook): a busy worker
            # must neither answer the next block with this one's reply
            # nor still be reading a segment the next run rewrites.
            for worker in busy:
                self._replace(worker)
            raise
        if error is not None:
            raise error
        if lost and policy.mode == "degrade":
            self.telemetry.inc("faults.dropped_splits", lost)
        elif lost:
            raise EngineFaultError(
                f"{lost} split task(s) lost to a {kind} worker (worker replaced)"
            )
        return results

    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> set[int]:
        splits = list(splits)
        if not splits:
            return set()
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
        so_far: list[KeyedMap | None] = red_maps
        if red_maps is not self._red_maps:
            self._red_maps = red_maps
            self._publish("map", None)
            so_far = [None] * len(red_maps)
        with self.telemetry.span("engine.block_seconds"):
            results = self._dispatch(splits, so_far, sched.policy.fault)
        emitted: set[int] = set()
        for split, result in zip(splits, results):
            if result is None:  # dropped under degrade
                continue
            map_bytes, emitted_bytes, counters = result
            red_maps[split.thread_id].replace_contents(
                deserialize_map(self._tally_wire(map_bytes))
            )
            self.telemetry.merge_counters(counters)
            self.telemetry.inc("engine.splits")
            if emitted_bytes:
                entries = deserialize_map(self._tally_wire(emitted_bytes))
                emitted.update(sched._convert_entries(entries, self._out))
        return emitted
