"""Process engine: GIL-free reduction over resident shared-memory input.

Workers are a persistent ``multiprocessing`` pool (created once per
scheduler lifetime, like the thread engine's pool).  The data plane is
built for the *steady state* of in-situ analytics — iterative runs over
an unchanged partition and per-step time-sharing loops — so the costs
that the naive protocol pays every ``run()`` are paid once and amortized:

* **Input residency** — the partition lives in parent-owned
  ``multiprocessing.shared_memory`` segments that survive across runs.
  ``begin_run`` copies data in only on a *miss*; when the incoming array
  is the same unchanged buffer as a resident copy (tracked by the
  scheduler's data version), or is itself a view of a resident
  ``step_buffer`` slot a double-buffered driver filled directly, the
  copy is skipped and only the segment's data epoch advances.  Workers
  reduce zero-copy numpy views of the segments.
* **Scheduler-state deltas** — the pickled scheduler is split into an
  immutable *core* (callbacks, the policy, constants), published once
  per scheduler through a named shared-memory segment and cached
  worker-side by version, and a small per-iteration *delta* (layout
  context, combination map in the configured wire format, and the
  application's ``mutable_state()``).  Per-task dispatch ships the delta
  plus a split's reduction map — kilobytes, not the whole object graph.

Protocol per block:

1. the parent ensures the core is published (``engine.state.core``),
   builds the iteration delta once (``engine.state.delta`` — rebuilt
   when ``invalidate_state`` reports a combination phase), and
   serializes each split's reduction map with the scheduler's wire
   format;
2. each worker rebuilds a per-task scheduler as a shallow copy of its
   cached core, installs the delta, attaches the input segment, runs the
   ordinary ``_reduce_split`` over its split, and returns the updated
   reduction map, any early-emitted entries as a second map payload, and
   its telemetry counter deltas.  Large return payloads travel through a
   worker-created shared-memory segment (the parent copies and unlinks
   it) instead of the pool's result pipe;
3. the parent folds the maps back into ``red_maps`` via the trusted
   bulk path, converts emitted entries into the output array
   (emission-at-combination semantics are preserved bit for bit), and
   merges the counters into the unified recorder.

Supervision: when a :class:`~repro.faults.FaultPlan` is installed on the
scheduler or ``ExecutionPolicy.fault`` is not ``fail_fast``, dispatch
switches from ``pool.map`` to a supervised ``apply_async`` loop.  The
supervisor watches pool health (worker pids/exit codes) and per-worker
heartbeat timestamps; a dead or hung worker triggers pool respawn —
which also republishes the scheduler core under a fresh version
(``engine.residency.invalidations``), so relaunched workers can never
alias stale cached state — and the outcome follows the policy:
``retry`` raises :class:`~repro.faults.EngineFaultError` so the
scheduler replays the iteration from the last consistent combination
map, ``degrade`` folds the completed splits and records the dropped
ones, ``fail_fast`` raises.  With no plan and the default policy the
fast ``pool.map`` path is byte-for-byte the unsupervised one, so healthy
runs pay nothing.
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
from contextlib import contextmanager
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterable

import numpy as np

from ...faults import EngineFaultError, FaultPlan, FaultPolicy
from ...telemetry import Recorder
from ..chunk import Split
from ..maps import KeyedMap
from ..serialization import deserialize_map, serialize_map, wire_format_of
from .base import ExecutionEngine

#: Return payloads at least this large travel via a shared-memory segment
#: instead of the pool's result pipe (pipe transfers re-copy through the
#: pickle layer; shm is one bulk copy each side).
_SHM_RETURN_MIN = 1 << 16

#: Prefix of worker-created return segments: ``smartret-<pid>-<seq>``.
#: Naming them lets the parent reap orphans left by a killed worker
#: (segments exported but never returned through the result pipe).
_RETURN_PREFIX = "smartret"

#: Prefix of parent-published scheduler-core segments:
#: ``smartcore-<pid>-<version>``.  Never reaped by the orphan sweep (the
#: parent owns their lifetime explicitly).
_CORE_PREFIX = "smartcore"

#: Resident input segments kept per engine: two double-buffer slots plus
#: one steady-state partition copy.
_MAX_RESIDENT_SEGMENTS = 3

#: Attached segments cached per worker process (core + resident inputs).
_MAX_WORKER_SEGMENTS = 4

#: Elements sampled for the in-place-rewrite tripwire on steady-state
#: residency hits (a strided fingerprint, not a full content check).
_FINGERPRINT_SAMPLES = 64

#: Supervisor poll interval while tasks are outstanding.
_POLL_SECONDS = 0.005

#: After damage is detected, how long to keep draining without any new
#: completion before in-flight tasks are declared lost.
_GRACE_SECONDS = 0.2


@contextmanager
def _untracked_shm():
    """Suppress resource-tracker registration for a SharedMemory call.

    Segment lifetimes here are owned explicitly (the parent unlinks its
    resident input and core segments on shutdown; return segments are
    unlinked by the parent as soon as they are drained).  On Python <
    3.13 creating or attaching would also register the segment with the
    resource tracker, which would then warn about — and try to re-unlink
    — segments it does not own.
    """
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original_register


#: Process-local cache of attached shared-memory segments, keyed by name
#: in attach order.  A worker serves many tasks against the same resident
#: segments (two slots + a steady-state partition + the scheduler core);
#: re-attaching per task would churn file descriptors.  Bounded: the
#: oldest attachment is dropped when the cache is full, so segments the
#: parent has already replaced do not pin memory.
_worker_segments: dict[str, shared_memory.SharedMemory] = {}

#: Worker-side cached scheduler core: ``(segment_name, version, scheduler)``.
#: Replaced whenever a task carries a different version — including after
#: a pool respawn, where fresh workers start empty and rebuild from the
#: (republished) core segment.
_worker_core: tuple[str, int, object] | None = None

#: Worker-side heartbeat array (shared with the parent) and this
#: worker's slot in it, bound by the pool initializer.
_worker_heartbeats = None
_worker_slot = 0

#: Worker-side sequence for unique return-segment names.
_return_seq = itertools.count()

#: Parent-side sequence for unique core-segment names (shared across all
#: engines in the process so two schedulers never collide).
_core_seq = itertools.count(1)


def _worker_init(heartbeats) -> None:
    """Pool initializer: bind the shared heartbeat array to this worker."""
    global _worker_heartbeats, _worker_slot
    _worker_heartbeats = heartbeats
    identity = mp.current_process()._identity
    _worker_slot = (identity[0] - 1) % len(heartbeats) if identity else 0


def _beat() -> None:
    if _worker_heartbeats is not None:
        _worker_heartbeats[_worker_slot] = time.monotonic()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    segment = _worker_segments.get(name)
    if segment is None:
        while len(_worker_segments) >= _MAX_WORKER_SEGMENTS:
            oldest = next(iter(_worker_segments))
            _worker_segments.pop(oldest).close()
        with _untracked_shm():
            segment = shared_memory.SharedMemory(name=name)
        _worker_segments[name] = segment
    return segment


def _core_scheduler(core_name: str, core_version: int, core_len: int):
    """Worker side: the immutable scheduler core, cached by version."""
    global _worker_core
    cached = _worker_core
    if cached is not None and cached[0] == core_name and cached[1] == core_version:
        return cached[2]
    segment = _attach_segment(core_name)
    sched = pickle.loads(bytes(segment.buf[:core_len]))
    _worker_core = (core_name, core_version, sched)
    return sched


def _export_payload(payload: bytes):
    """Worker side: hand a payload to the parent, via shm when large."""
    if len(payload) < _SHM_RETURN_MIN:
        return ("raw", payload)
    name = f"{_RETURN_PREFIX}-{os.getpid()}-{next(_return_seq)}"
    with _untracked_shm():
        segment = shared_memory.SharedMemory(name=name, create=True, size=len(payload))
    segment.buf[: len(payload)] = payload
    segment.close()  # the parent unlinks after draining
    return ("shm", name, len(payload))


def _import_payload(ref) -> bytes:
    """Parent side: drain a worker payload reference (unlinking shm)."""
    if ref[0] == "raw":
        return ref[1]
    _kind, name, length = ref
    with _untracked_shm():
        segment = shared_memory.SharedMemory(name=name)
    try:
        payload = bytes(segment.buf[:length])
    finally:
        segment.close()
        segment.unlink()
    return payload


def _discard_payload(ref) -> None:
    """Parent side: release a worker payload we will never fold (no leak)."""
    if ref and ref[0] == "shm":
        try:
            _import_payload(ref)
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass


def _run_split_task(task: tuple) -> tuple:
    """Worker side: reduce one split against the shared partition."""
    (
        core_name,
        core_version,
        core_len,
        delta_bytes,
        shm_name,
        dtype,
        n_elems,
        data_offset,
        split,
        red_map_bytes,
        multi_key,
        wants_emitted,
        fault,
    ) = task
    _beat()
    if fault is not None:
        kind, seconds = fault
        if kind == "kill":
            os._exit(1)  # simulated worker crash: no cleanup, no result
        time.sleep(seconds)  # "hang": stall well past the task deadline
    core = _core_scheduler(core_name, core_version, core_len)
    sched = copy.copy(core)  # per-task instance over the shared core
    sched.telemetry = Recorder()
    from ..scheduler import RunStats  # deferred: scheduler imports this module's package

    sched.stats = RunStats(sched.telemetry)
    global_offset, total_len, com_map_bytes, state = pickle.loads(delta_bytes)
    sched.combination_map_ = deserialize_map(com_map_bytes)
    sched.load_state(state)
    sched.global_offset_ = global_offset
    sched.total_len_ = total_len
    segment = _attach_segment(shm_name)
    data = np.ndarray(
        (n_elems,), dtype=np.dtype(dtype), buffer=segment.buf, offset=data_offset
    )
    sched.data_ = data
    red_map = deserialize_map(red_map_bytes)
    emitted = KeyedMap()
    sched._reduce_split(split, red_map, data, None, multi_key, capture=emitted)
    wire_format = sched.policy.combine.wire_format
    emitted_bytes = (
        serialize_map(emitted, wire_format) if wants_emitted and len(emitted) else b""
    )
    map_payload = serialize_map(red_map, wire_format)
    _beat()
    return (
        _export_payload(map_payload),
        emitted_bytes,
        sched.telemetry.snapshot()["counters"],
    )


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
    """Reduce splits on a persistent process pool over resident shm input."""

    name = "process"

    def __init__(self, num_workers, telemetry):
        super().__init__(num_workers, telemetry)
        self._pool: mp.pool.Pool | None = None
        self._heartbeats = None
        self._fault_plan: FaultPlan | None = None
        # Input residency (guarded by _segments_lock: a pipelined driver's
        # producer thread requests step buffers while the consumer runs).
        self._segments_lock = threading.Lock()
        self._residents: list[_ResidentSegment] = []
        self._active: _ResidentSegment | None = None
        self._active_offset = 0
        self._active_len = 0
        self._active_dtype = "<f8"
        self._use_seq = itertools.count(1)
        self._resident_enabled = True
        # Scheduler core/delta state.
        self._core_shm: shared_memory.SharedMemory | None = None
        self._core_version = 0
        self._core_len = 0
        self._core_sched_id: int | None = None
        self._delta: bytes | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        if self._pool is None:
            if self._heartbeats is None:
                self._heartbeats = mp.get_context().Array(
                    "d", self.num_workers, lock=False
                )
            self._pool = mp.get_context().Pool(
                processes=self.num_workers,
                initializer=_worker_init,
                initargs=(self._heartbeats,),
            )
            self.telemetry.inc("engine.pools_created")

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._release_all_segments()
        self._release_core()
        super().shutdown()

    def __del__(self):  # pragma: no cover - interpreter-exit safety net
        if self._pool is not None:
            self._pool.terminate()
            self._pool = None
        self._release_all_segments()
        self._release_core()

    def begin_run(self, scheduler, data, out, multi_key) -> None:
        super().begin_run(scheduler, data, out, multi_key)
        self._fault_plan = getattr(scheduler, "fault_plan", None)
        self._delta = None
        self._resident_enabled = scheduler.policy.engine.residency != "off"
        nbytes = int(data.nbytes)
        data_version = getattr(scheduler, "_data_version", 0)
        with self._segments_lock:
            seg, offset = self._bind_segment(data, nbytes, data_version)
            seg.last_used = next(self._use_seq)
            self._active = seg
            self._active_offset = offset
            self._active_len = int(data.shape[0])
            self._active_dtype = data.dtype.str
            self.telemetry.set_gauge("engine.residency.epoch", seg.epoch)

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
        if self._resident_enabled and self._residents:
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
        if self._resident_enabled:
            seg.source = data  # strong ref: identity check can never alias
            seg.source_version = data_version
            seg.source_print = _fingerprint(data) if nbytes else None
        else:
            seg.source = None
            seg.source_print = None
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
        if not self._resident_enabled:
            # residency="off": restore segment-per-run hygiene (slot
            # segments stay — the driver still holds views of them).
            with self._segments_lock:
                for seg in [s for s in self._residents if s.slot is None]:
                    self._release_segment(seg)
                self._active = None
        else:
            with self._segments_lock:
                self._active = None
        self._delta = None
        super().end_run()

    def invalidate_state(self) -> None:
        """Forget the iteration delta (the combination phase ran)."""
        self._delta = None

    # -- supervision -------------------------------------------------------
    def _pool_pids(self) -> list[int]:
        assert self._pool is not None
        return [p.pid for p in self._pool._pool]

    def _pool_damaged(self, baseline_pids: list[int]) -> bool:
        """Did any worker die since dispatch?  (mp.Pool repopulates dead
        workers, so compare pids against the dispatch-time baseline as
        well as scanning exit codes.)"""
        assert self._pool is not None
        procs = self._pool._pool
        if any(p.exitcode is not None for p in procs):
            return True
        return [p.pid for p in procs] != baseline_pids

    def _respawn_pool(self, dead_pids: list[int], keep_names: set[str]) -> None:
        """Tear down the damaged pool, reap orphans, and start a fresh one.

        The scheduler core is republished under a fresh version: the new
        workers start with empty caches anyway, but a monotone version
        guarantees no stale core can ever be aliased — the residency
        invalidation the fault layer documents.
        """
        with self.telemetry.span("faults.recovery_seconds"):
            if self._pool is not None:
                self._pool.terminate()
                self._pool.join()
                self._pool = None
            self._reap_orphan_segments(dead_pids, keep_names)
            self._release_core()
            self.telemetry.inc("engine.residency.invalidations")
            self.start()

    @staticmethod
    def _reap_orphan_segments(pids: Iterable[int], keep_names: set[str]) -> None:
        """Unlink return segments a killed worker exported but never
        handed back (their names never reached the parent), identified by
        the worker-pid component of the segment name.  Segments whose
        refs the parent *does* hold (``keep_names``) are left for the
        normal drain path."""
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux fallback
            return
        wanted = {f"{_RETURN_PREFIX}-{pid}-" for pid in pids}
        for entry in shm_dir.iterdir():
            name = entry.name
            if name in keep_names or not name.startswith(_RETURN_PREFIX):
                continue
            if any(name.startswith(prefix) for prefix in wanted):
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - raced with drain
                    pass

    def _supervised_map(
        self, tasks: list[tuple], policy: FaultPolicy
    ) -> list[tuple | None]:
        """Dispatch tasks with worker supervision; ``None`` marks a
        dropped task (degrade mode).

        Detection: pool damage (a worker's exit code is set, or the pid
        set changed — ``mp.Pool`` auto-repopulates, which would silently
        lose the dead worker's task) or a task outliving
        ``policy.task_deadline`` with a stale newest heartbeat.
        """
        assert self._pool is not None
        results: list[tuple | None] = [None] * len(tasks)
        done = [False] * len(tasks)
        baseline_pids = self._pool_pids()
        dispatched = time.monotonic()
        async_results = [
            self._pool.apply_async(_run_split_task, (task,)) for task in tasks
        ]

        def drain_ready() -> None:
            for i, ar in enumerate(async_results):
                if not done[i] and ar.ready():
                    results[i] = ar.get()  # worker exceptions re-raise here
                    done[i] = True

        def undrained_shm_names() -> set[str]:
            return {
                r[0][1]
                for r in results
                if r is not None and r[0] and r[0][0] == "shm"
            }

        while True:
            drain_ready()
            if all(done):
                return results
            failure = None
            if self._pool_damaged(baseline_pids):
                failure = "faults.detected.worker_dead"
            elif (
                policy.task_deadline is not None
                and time.monotonic() - dispatched > policy.task_deadline
            ):
                newest_beat = max(self._heartbeats) if self._heartbeats else 0.0
                stale = time.monotonic() - newest_beat > policy.task_deadline
                failure = "faults.detected.worker_hung" if stale else None
                if failure is None:
                    # Workers are alive and beating: genuinely slow, not
                    # hung.  Extend the window rather than killing work.
                    dispatched = time.monotonic()
            if failure is None:
                time.sleep(_POLL_SECONDS)
                continue
            # Grace drain: tasks in flight on *healthy* workers finish in
            # the normal course — keep collecting until completions stop
            # arriving, so only the dead worker's tasks count as lost.
            idle_since = time.monotonic()
            while not all(done) and time.monotonic() - idle_since < _GRACE_SECONDS:
                before = sum(done)
                drain_ready()
                if sum(done) > before:
                    idle_since = time.monotonic()
                time.sleep(_POLL_SECONDS)
            self.telemetry.inc(failure)
            dead_pids = baseline_pids
            self._respawn_pool(dead_pids, undrained_shm_names())
            pending = [i for i in range(len(tasks)) if not done[i]]
            if policy.mode == "degrade":
                self.telemetry.inc("faults.dropped_splits", len(pending))
                return results
            # fail_fast / retry: release everything we collected (the
            # iteration will be replayed or abandoned — never folded), so
            # no worker return segment leaks.
            for i, r in enumerate(results):
                if r is not None:
                    _discard_payload(r[0])
                    results[i] = None
            raise EngineFaultError(
                f"{len(pending)} split task(s) lost to a "
                f"{'dead' if failure.endswith('dead') else 'hung'} worker "
                f"(pool respawned)"
            )

    # -- scheduler core/delta ---------------------------------------------
    def _ensure_core(self) -> None:
        """Publish the immutable scheduler core through shared memory.

        The core is the pickled scheduler minus everything workers must
        not share (arrays, communicator, engine, telemetry, fault plan)
        *and* minus everything the per-iteration delta re-ships (the
        combination map, the layout context, ``mutable_state()``
        attributes are simply overwritten worker-side).  Published once
        per scheduler lifetime — workers cache the unpickled core by
        version — and republished only when the scheduler object changes
        or a pool respawn invalidates residency.
        """
        sched = self._sched
        assert sched is not None
        if self._core_shm is not None and self._core_sched_id == id(sched):
            return
        clone = copy.copy(sched)
        clone.data_ = None
        clone.out_ = None
        clone.comm = None
        clone._fed = None
        clone._engine = None
        clone.telemetry = None
        clone.stats = None
        clone.fault_plan = None
        clone.combination_map_ = None  # travels in the per-iteration delta
        payload = pickle.dumps(clone, protocol=pickle.HIGHEST_PROTOCOL)
        self._release_core()
        self._core_version = next(_core_seq)
        name = f"{_CORE_PREFIX}-{os.getpid()}-{self._core_version}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(len(payload), 1)
        )
        shm.buf[: len(payload)] = payload
        self._core_shm = shm
        self._core_len = len(payload)
        self._core_sched_id = id(sched)
        self.telemetry.record_op("engine.state.core", len(payload))

    def _release_core(self) -> None:
        self._core_sched_id = None
        if self._core_shm is not None:
            self._core_shm.close()
            try:
                self._core_shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                pass
            self._core_shm = None

    def _delta_payload(self) -> bytes:
        """The per-iteration mutable-state payload (cached until
        ``invalidate_state`` reports a combination phase)."""
        if self._delta is None:
            sched = self._sched
            assert sched is not None
            com_map_bytes = serialize_map(
                sched.combination_map_, sched.policy.combine.wire_format
            )
            self._delta = pickle.dumps(
                (
                    sched.global_offset_,
                    sched.total_len_,
                    com_map_bytes,
                    sched.mutable_state(),
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            self.telemetry.record_op("engine.state.delta", len(self._delta))
        return self._delta

    # -- execution ---------------------------------------------------------
    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> set[int]:
        splits = list(splits)
        if not splits:
            return set()
        assert self._pool is not None, "map_splits before start()"
        assert self._active is not None and self._data is not None
        self._ensure_core()
        assert self._core_shm is not None
        delta = self._delta_payload()
        wants_emitted = self._out is not None
        sched = self._sched
        assert sched is not None
        wire_format = sched.policy.combine.wire_format
        plan = self._fault_plan
        policy = sched.policy.fault
        tasks = []
        for split in splits:
            map_payload = serialize_map(red_maps[split.thread_id], wire_format)
            self.telemetry.record_op(
                f"engine.wire.{wire_format_of(map_payload)}", len(map_payload)
            )
            self.telemetry.record_op("engine.dispatch", len(delta) + len(map_payload))
            fault = None
            if plan is not None:
                spec = plan.engine_fault()
                if spec is not None:
                    fault = (spec.kind, spec.seconds)
                    self.telemetry.inc(f"faults.injected.engine.{spec.kind}")
            tasks.append(
                (
                    self._core_shm.name,
                    self._core_version,
                    self._core_len,
                    delta,
                    self._active.shm.name,
                    self._active_dtype,
                    self._active_len,
                    self._active_offset,
                    split,
                    map_payload,
                    self._multi_key,
                    wants_emitted,
                    fault,
                )
            )
        supervised = plan is not None or policy.mode != "fail_fast"
        with self.telemetry.span("engine.block_seconds"):
            if supervised:
                results = self._supervised_map(tasks, policy)
            else:
                # Fast path: identical to the unsupervised engine — zero
                # overhead when no plan is installed.
                results = self._pool.map(_run_split_task, tasks)
        emitted: set[int] = set()
        for split, result in zip(splits, results):
            if result is None:  # dropped under degrade
                continue
            map_ref, emitted_bytes, counters = result
            map_bytes = _import_payload(map_ref)
            self.telemetry.record_op(
                f"engine.wire.{wire_format_of(map_bytes)}", len(map_bytes)
            )
            red_maps[split.thread_id].replace_contents(deserialize_map(map_bytes))
            self.telemetry.merge_counters(counters)
            self.telemetry.inc("engine.splits")
            if emitted_bytes:
                self.telemetry.record_op(
                    f"engine.wire.{wire_format_of(emitted_bytes)}", len(emitted_bytes)
                )
                emitted.update(
                    sched._convert_entries(deserialize_map(emitted_bytes), self._out)
                )
        return emitted
