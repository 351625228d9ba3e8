"""Process engine: GIL-free reduction over resident shared-memory input.

The engine owns ``num_workers`` daemon processes for as long as its
scheduler lives (the paper's fixed thread team, PAPER.md §3.2), each on
its own duplex pipe.  Two things move between parent and workers:

* **Input** — ``begin_run`` copies the partition into the engine's one
  parent-owned ``multiprocessing.shared_memory`` segment (created on
  first use, replaced only when a larger partition arrives, released on
  ``shutdown``) and workers reduce zero-copy numpy views of it.  One
  copy per run, always: a simulation's output is a view of its own
  state (``Heat3D.interior``, ``LuleshProxy.e``) that the next step
  rewrites in place, so there is no buffer the engine could share with
  it and no cheap way to know the bytes are the ones copied last time.
  This is the engine's only shared memory.
* **State and results** — everything else travels as bytes on the
  worker's pipe, and a worker keeps what it is sent.  Worker ``i``
  serves thread ``i`` and holds a *session* of four versioned parts: the
  scheduler *core* (callbacks, policy, constants; one per engine), the
  run *header* (segment name, dtype, length, layout context,
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
import multiprocessing as mp
import os
import pickle
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
from ..blas import one_blas_thread
from ..chunk import Split
from ..maps import KeyedMap
from ..serialization import deserialize_map, serialize_map, wire_format_of
from .base import ExecutionEngine, join_keys


@contextmanager
def _untracked_shm():
    """Suppress resource-tracker registration for a SharedMemory call.

    The parent owns the segment's lifetime (it unlinks its resident
    input segment on shutdown); a worker only attaches.  On Python <
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


def _attach_segment(session: SimpleNamespace, name: str) -> shared_memory.SharedMemory:
    """Worker side: the engine's input segment, attached once and kept
    until the parent replaces it with a larger one under a new name."""
    segment = session.segment
    if segment is None or segment.name != name:
        if segment is not None:
            segment.close()
        with _untracked_shm():
            segment = session.segment = shared_memory.SharedMemory(name=name)
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
    (shm_name, dtype, n_elems, sched.global_offset_,
     sched.total_len_, session.multi_key, session.wants_emitted) = header
    segment = _attach_segment(session, shm_name)
    sched.data_ = np.ndarray((n_elems,), dtype=np.dtype(dtype), buffer=segment.buf)
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


def _worker_main(conn, parent_end) -> None:
    """Worker process: serve split tasks from ``conn`` until told to stop.

    ``session`` is what this worker has been sent and still holds, plus
    the input segment it has attached; every message but the empty one
    (stop) gets exactly one reply.
    """
    parent_end.close()  # this fork's copy: open, it would hide its owner's death
    one_blas_thread()
    session = SimpleNamespace(core=None, sched=None, red_map=None, segment=None)
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
        self.process = mp.Process(target=_worker_main, args=(child_conn, self.conn), daemon=True)
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


class ProcessEngine(ExecutionEngine):
    """Reduce splits on owned worker processes over one resident shm segment."""

    name = "process"

    def __init__(self, num_workers, telemetry):
        super().__init__(num_workers, telemetry)
        self._workers: list[_Worker] = []
        # The one resident input segment every run's partition is copied into.
        self._segment: shared_memory.SharedMemory | None = None
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
        self._release_segment()

    def __del__(self):  # pragma: no cover - interpreter-exit safety net
        self._stop_workers(kill=True)
        self._release_segment()

    def begin_run(self, scheduler, data, out, multi_key) -> None:
        if scheduler.policy.engine.num_threads > len(self._workers):  # thread i -> worker i
            raise RuntimeError(
                f"policy.engine.num_threads raised past this engine's {len(self._workers)} "
                "workers; close() the scheduler first so the team is rebuilt"
            )
        super().begin_run(scheduler, data, out, multi_key)
        segment = self._stage(data)
        self._ensure_core(scheduler)
        self.invalidate_state()
        self._publish("header", (
            segment.name, data.dtype.str, int(data.shape[0]),
            scheduler.global_offset_, scheduler.total_len_, multi_key, out is not None,
        ))

    def _stage(self, data: np.ndarray) -> shared_memory.SharedMemory:
        """Copy ``data`` into the resident input segment, replacing the
        segment first when the partition does not fit."""
        nbytes = int(data.nbytes)
        if self._segment is None or self._segment.size < nbytes:
            self._release_segment()
            self._segment = shared_memory.SharedMemory(create=True, size=max(nbytes, 1))
            self.telemetry.set_gauge("engine.residency.resident_bytes", self._segment.size)
        if nbytes:
            np.copyto(np.ndarray(data.shape, dtype=data.dtype, buffer=self._segment.buf), data)
        self.telemetry.inc("engine.residency.copied_bytes", nbytes)
        return self._segment

    def _release_segment(self) -> None:
        segment, self._segment = self._segment, None
        if segment is None:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
        self.telemetry.set_gauge("engine.residency.resident_bytes", 0)

    def end_run(self) -> None:
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

    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> np.ndarray:
        splits = list(splits)
        if not splits:
            return join_keys([])
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
        emitted: list[np.ndarray] = []
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
                emitted.append(sched._convert_entries(entries, self._out))
        return join_keys(emitted)
