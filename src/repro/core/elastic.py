"""Elastic in-transit tier: a supervised pool of staging processes.

This reproduction's in-transit placement (paper Section 6, modelled on
ElasticBroker's decoupled analytics tier).  Staging workers are forked
workers of :mod:`repro.core.worker`, so they can crash, hang, be killed,
be respawned, and be added or removed between steps without touching the
simulation.

Data path
---------
The simulation side holds an :class:`ElasticTier` and calls
:meth:`~ElasticTier.submit` once per partition.  Partitions route
round-robin over the live workers, each as one ``DATA`` message on the
worker's pipe: the array is a pickle protocol-5 out-of-band buffer,
written from the caller's memory into the socket and read out of it into
a fresh writable array in the worker, one copy each way.
**Credit-based backpressure** bounds each worker's unacknowledged
partitions (``credits``): ``submit`` blocks until the target worker
acknowledges, so a slow tier throttles the simulation instead of
buffering unboundedly.

Each worker owns a rank-local :class:`~repro.core.scheduler.Scheduler`
(global combination off) and accumulates every partition into its
combination map.  Every message gets one reply, read by one reader
thread per worker: ``LOAD`` (install a snapshot) and ``DATA`` an ack,
every ``snapshot_every``-th ``DATA`` ack also a **consistency snapshot**
(the serialized map and the frames it covers), ``DRAIN`` the final map.
Snapshots and final maps carry a CRC32; the coordinator keeps the latest
CRC-good snapshot per worker plus a replay log of every partition sent
after it (of each, what the policy can use).

Recovery state machine (DESIGN.md section 13)
---------------------------------------------
``LIVE -> SUSPECT`` when the worker dies (EOF or its sentinel), a
message fails in it, or it acknowledges nothing for ``worker_timeout``
seconds while it owes replies; then, per :class:`~repro.faults.FaultPolicy`:

* ``fail_fast`` — raise :class:`StagingWorkerError`.
* ``retry`` — respawn the process, ``LOAD`` the last snapshot, replay
  the logged partitions in their original order, and continue
  (``SUSPECT -> LIVE``).  Replay preserves the exact per-worker frame
  sequence, so results are bit-exact with the unfaulted run.
* ``degrade`` — exclude the worker (``SUSPECT -> EXCLUDED``): its last
  snapshot stands as its final contribution, the post-snapshot frames
  are dropped with exact accounting (``elastic.frames_lost`` /
  ``elastic.elements_lost``), and subsequent frames rebalance over the
  survivors.

Fault injection: each worker consults the plan per ``DATA`` message —
``comm:crash`` kills the process mid-step, ``comm:delay`` models a
hang, ``network:disconnect`` drops its pipe, ``network:slowlink``
slows processing, and ``network:truncate`` corrupts the CRC of its next
snapshot or final map (the coordinator discards it and falls back to the
older snapshot).

Workers are forked, so ``scheduler_factory`` may be any callable (it is
inherited, not pickled); the fault plan crosses the fork as its
fingerprint string and is re-parsed in the child, keeping injection
deterministic per worker id.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import zlib
from collections import deque
from multiprocessing.util import Finalize
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..faults import FaultError, FaultPlan, FaultPolicy
from ..telemetry import Recorder
from .maps import KeyedMap
from .serialization import deserialize_map, serialize_map
from .worker import Worker, halt, pack, stop_process, wait

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import Scheduler

# Message kinds.  A message is ``(kind, body)``; its reply ``(kind, frames
# processed, state)``, where ``state`` is ``None`` or ``(map bytes, CRC32)``.
_LOAD = "load"  #: body ``(frames, snapshot map or None)``: install it
_DATA = "data"  #: body: one partition to reduce; every snapshot_every-th reply has state
_DRAIN = "drain"  #: body ``None``: reply with the final map as state

#: Default bound on unacknowledged in-flight frames per worker.
DEFAULT_CREDITS = 8
#: Default frames between consistency snapshots.
DEFAULT_SNAPSHOT_EVERY = 4
#: Seconds without an acknowledgement, while one is owed, before a worker is suspect.
WORKER_TIMEOUT = 5.0
#: Poll interval while blocked on credits or a final map.
CREDIT_POLL = 0.05

_LIVE = "live"
_SUSPECT = "suspect"
_EXCLUDED = "excluded"
_RETIRED = "retired"


class StagingWorkerError(FaultError):
    """A staging worker died or hung and the policy forbids recovery."""


# -- the worker side ---------------------------------------------------------


class _Stage:
    """One staging worker's scheduler, frame count and fault plan; called
    once per message."""

    def __init__(
        self,
        worker_id: int,
        scheduler_factory: Callable[[], "Scheduler"],
        plan_fingerprint: str | None,
        snapshot_every: int,
        prior_faults: int,
    ):
        self.id, self.snapshot_every = worker_id, snapshot_every
        self.plan = FaultPlan.parse(plan_fingerprint) if plan_fingerprint else None
        if self.plan is not None and prior_faults:
            # A respawned incarnation starts with fresh plan counters;
            # charging the firings that killed its predecessors keeps the
            # fault budget global per worker, so replay converges instead of
            # re-dying at the same frame forever.
            self.plan.charge(prior_faults, target=worker_id)
        self.sched = scheduler_factory()
        self.sched.set_global_combination(False)
        self.frames = 0
        self.corrupt = False  # injected truncate: the next state's CRC mismatches

    def __call__(self, message: tuple) -> tuple:
        kind, body = message
        state = None
        if kind == _LOAD:
            self.frames, snapshot = body
            restored = deserialize_map(snapshot) if snapshot else KeyedMap()
            self.sched.combination_map_.replace_contents(restored)
        elif kind == _DATA:
            self._consult_plan()
            self.sched.run(body)
            self.frames += 1
            if self.snapshot_every and self.frames % self.snapshot_every == 0:
                state = self._state()
        else:
            state = self._state()
        return kind, self.frames, state

    def _state(self) -> tuple[bytes, int]:
        wire = serialize_map(self.sched.get_combination_map(),
                             self.sched.policy.combine.wire_format)
        crc, self.corrupt = zlib.crc32(wire) ^ self.corrupt, False
        return wire, crc

    def _consult_plan(self) -> None:
        if self.plan is None:
            return
        spec = self.plan.comm_fault(self.id, op="frame")
        if spec is not None:
            if spec.kind == "crash":
                os._exit(1)  # simulated process death, no cleanup
            if spec.kind == "delay":
                time.sleep(spec.seconds)
        spec = self.plan.network_fault(self.id, op="frame")
        if spec is None:
            return
        if spec.kind == "disconnect":
            os._exit(2)  # its pipe closes with it
        if spec.kind in ("slowlink", "partition"):
            time.sleep(spec.seconds)
        elif spec.kind == "truncate":
            self.corrupt = True


# -- coordinator -------------------------------------------------------------


class _Staging:
    """Coordinator-side state for one staging worker."""

    def __init__(self, worker_id: int):
        self.id = worker_id
        self.proc: Worker | None = None  # its current process
        self.reader: threading.Thread | None = None  # the thread reading its replies
        self.state = _LIVE
        self.sent = 0  # frames handed to this worker (its local seq)
        self.acked = 0  # frames it has acknowledged
        self.log: deque[tuple[int, tuple, int]] = deque()  # (seq, replay message, n_elems)
        self.snap_bytes: bytes | None = None  # latest CRC-good snapshot map
        self.snap_frames = 0  # frames covered by that snapshot
        self.final: bytes | None = None
        self.error: BaseException | None = None  # what the last message that failed in it raised
        self.deaths = 0  # prior incarnations lost to injected faults


class ElasticTier:
    """Coordinator for an elastic, fault-supervised staging pool.

    Parameters
    ----------
    scheduler_factory:
        Zero-argument callable building a worker's rank-local
        :class:`~repro.core.scheduler.Scheduler` (over a
        :class:`~repro.comm.local.LocalComm`).  Called once in each
        worker process and once on the coordinator (for merging).
    num_workers:
        Initial pool size (grow/shrink later with :meth:`scale_to`).
    policy:
        :class:`~repro.faults.FaultPolicy` (or mode string) governing
        worker recovery; its backoff knobs drive respawn pacing.
    fault_plan:
        Optional plan whose fingerprint is re-parsed inside each worker
        (deterministic per-worker injection) — see the module docstring
        for the kind semantics.
    telemetry:
        Optional recorder: ``elastic.*`` data-path counters and the
        ``faults.*`` recovery counters land here.
    credits:
        Max unacknowledged in-flight frames per worker (backpressure).
    snapshot_every:
        Frames between worker consistency snapshots (0 disables; then
        recovery replays from the beginning).
    worker_timeout:
        Seconds a worker that owes replies may acknowledge nothing before
        it is suspect (a hang).
    """

    def __init__(
        self,
        scheduler_factory: Callable[[], "Scheduler"],
        num_workers: int,
        *,
        policy: "FaultPolicy | str | None" = None,
        fault_plan: "FaultPlan | None" = None,
        telemetry: "Recorder | None" = None,
        credits: int = DEFAULT_CREDITS,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        worker_timeout: float = WORKER_TIMEOUT,
    ):
        if num_workers < 1:
            raise ValueError(f"need >= 1 worker, got {num_workers}")
        if credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        self.scheduler_factory = scheduler_factory
        self.policy = (
            FaultPolicy.parse(policy) if policy is not None else FaultPolicy.fail_fast()
        )
        self.fault_plan = fault_plan
        self.telemetry = telemetry if telemetry is not None else Recorder()
        self.credits = credits
        self.snapshot_every = snapshot_every
        self.worker_timeout = worker_timeout
        self._merge_sched = scheduler_factory()  # merge fn + wire format
        self._cond = threading.Condition()
        # Ids ascend in insertion order, so iterating is iterating by id.
        self._workers: dict[int, _Staging] = {}
        self._procs: dict[int, Worker] = {}  # every worker's current process
        self._halt = Finalize(self, halt, args=(self._procs.values(), [], threading.Lock()),
                              exitpriority=10)
        self._seq = 0  # global submit counter (routing)
        self._log_bytes = 0  # payload bytes the replay logs retain
        for wid in range(num_workers):
            self._workers[wid] = _Staging(wid)
            self._spawn(self._workers[wid])
        self._gauge()

    # -- pool wiring -------------------------------------------------------
    def _gauge(self) -> None:
        self.telemetry.set_gauge("elastic.workers", len(self._routable()))

    def _routable(self) -> list[_Staging]:
        return [w for w in self._workers.values() if w.state in (_LIVE, _SUSPECT)]

    def _spawn(self, worker: _Staging) -> None:
        plan_fp = self.fault_plan.fingerprint() if self.fault_plan is not None else None
        handler = functools.partial(_Stage, worker.id, self.scheduler_factory, plan_fp,
                                    self.snapshot_every, worker.deaths)
        proc = self._procs[worker.id] = Worker(handler, f"elastic-worker-{worker.id}")
        with self._cond:
            worker.proc, worker.state = proc, _LIVE
        worker.reader = threading.Thread(target=self._read, args=(worker, proc),
                                         name=f"elastic-reader-{worker.id}", daemon=True)
        worker.reader.start()
        self.telemetry.inc("elastic.spawns")

    def _read(self, worker: _Staging, proc: Worker) -> None:
        """``proc``'s replies, in order, until it dies or a message fails in it."""
        alive = True
        while alive:
            try:
                wait([proc])
                reply = proc.receive()
            except OSError:  # its pipe is closed
                reply = None
            alive = reply is not None and not isinstance(reply, BaseException)
            with self._cond:
                if alive:
                    self._take(worker, *reply)
                else:
                    worker.error = reply
                    if worker.state == _LIVE:
                        worker.state = _SUSPECT
                self._cond.notify_all()

    def _take(self, worker: _Staging, kind: str, frames: int, state) -> None:
        """Book one reply (holding ``self._cond``)."""
        worker.acked = max(worker.acked, frames)
        if state is None:
            return
        wire, crc = state
        intact = zlib.crc32(wire) == crc
        if kind == _DRAIN:
            worker.final = wire if intact else None
        elif not intact:
            self.telemetry.inc("elastic.snapshots_corrupt")
        else:
            worker.snap_bytes, worker.snap_frames = wire, frames
            while worker.log and worker.log[0][0] < frames:
                self._log_bytes -= sum(map(len, worker.log.popleft()[1]))
            self.telemetry.inc("elastic.snapshots")

    def _await(self, worker: _Staging, ready: Callable[[], bool]) -> float:
        """Wait, holding ``self._cond``, until ``ready()``; raise
        ``_WorkerDown`` once ``worker`` is not live or has acknowledged
        nothing for ``worker_timeout`` seconds.  The seconds waited."""
        waited, progress, acked = 0.0, time.monotonic(), worker.acked
        while worker.state == _LIVE and not ready():
            t0 = time.monotonic()
            self._cond.wait(CREDIT_POLL)
            waited += time.monotonic() - t0
            if worker.acked != acked:
                # Ack progress is the liveness signal that matters: a hung
                # worker is alive, but it acknowledges nothing.
                acked, progress = worker.acked, time.monotonic()
            elif time.monotonic() - progress > self.worker_timeout:
                worker.state = _SUSPECT
        if worker.state != _LIVE:
            raise _WorkerDown(worker.id)
        return waited

    def _stop(self, worker: _Staging, timeout: float = 0.0) -> None:
        """Reap ``worker``'s process (killed unless it exits within
        ``timeout`` seconds), then close its pipe once its reader is done."""
        stop_process(worker.proc.process, timeout)  # its sentinel ends the reader
        worker.reader.join()
        worker.proc.stop()

    # -- liveness and recovery ---------------------------------------------
    def _recover(self, worker: _Staging) -> None:
        """Apply the fault policy to a suspect worker."""
        started = time.perf_counter()
        self.telemetry.inc("faults.launch_failures")
        self._stop(worker)
        worker.deaths += 1
        if self.policy.mode == "degrade":
            with self._cond:
                worker.state = _EXCLUDED
                lost_frames = len(worker.log)
                lost_elems = sum(n for _seq, _kept, n in worker.log)
                worker.log.clear()
                worker.sent = worker.acked = worker.snap_frames
            self.telemetry.inc("elastic.workers_dropped")
            self.telemetry.inc("elastic.frames_lost", lost_frames)
            self.telemetry.inc("elastic.elements_lost", lost_elems)
            self._gauge()
            if not self._routable():
                raise StagingWorkerError("every staging worker has been excluded")
            return
        # The attempt budget is per worker across its whole lifetime, not
        # per recovery call: a worker that keeps dying between recoveries
        # must exhaust max_attempts, not loop forever.
        while self.policy.retry_step(worker.deaths, self.telemetry):
            if self._respawn_and_replay(worker):
                self.telemetry.add_time("faults.recovery_seconds", time.perf_counter() - started)
                return
            self._stop(worker)
            worker.deaths += 1
        raise StagingWorkerError(
            f"staging worker {worker.id} died or hung "
            f"(policy: {self.policy.mode}, attempt {worker.deaths})"
        ) from worker.error

    def _respawn_and_replay(self, worker: _Staging) -> bool:
        """Respawn ``worker``, restore its snapshot, replay its log; False
        if it died again on the way."""
        replay = list(worker.log)  # its reader prunes the log as snapshots arrive
        worker.acked = worker.snap_frames
        worker.sent = worker.snap_frames + len(replay)
        self._spawn(worker)
        sent = worker.proc.send(pack((_LOAD, (worker.snap_frames, worker.snap_bytes))))
        for _seq, kept, _n in replay:
            sent = sent and worker.proc.send(kept)
        if sent:
            self.telemetry.inc("elastic.replays")
            self.telemetry.inc("elastic.frames_replayed", len(replay))
        return sent

    # -- data path ---------------------------------------------------------
    def submit(self, partition: np.ndarray) -> None:
        """Forward one partition to the tier (blocks on credits).

        Any array but an object-dtype one (``TypeError``).  Its bytes go out from the
        caller's buffer and are in the kernel on return: the buffer is then free to reuse.
        """
        arr = np.asarray(partition)
        if arr.dtype.hasobject:
            raise TypeError(f"cannot forward dtype {arr.dtype}: partitions travel as raw bytes")
        payload = pack((_DATA, arr))
        seq = self._seq
        self._seq += 1
        while True:
            routable = self._routable()
            if not routable:
                raise StagingWorkerError("no staging workers left to route to")
            worker = routable[seq % len(routable)]
            try:
                self._send_with_credits(worker, payload, int(arr.size))
                self.telemetry.inc("elastic.frames_forwarded")
                self.telemetry.inc("elastic.bytes_forwarded", sum(map(len, payload)))
                self.telemetry.set_gauge("elastic.log_bytes", self._log_bytes)
                return
            except _WorkerDown:
                self._recover(worker)  # then re-route this partition

    def _send_with_credits(self, worker: _Staging, payload: list, n_elems: int) -> None:
        # What recovery can use: a private copy under retry (the caller's buffer is its
        # own again once submit returns), the loss account under degrade, else nothing.
        kept = tuple(map(bytes, payload)) if self.policy.mode == "retry" else ()
        with self._cond:
            waited = self._await(worker, lambda: worker.sent - worker.acked < self.credits)
            seq = worker.sent
            worker.sent += 1
            if self.policy.mode != "fail_fast":
                worker.log.append((seq, kept, n_elems))
                self._log_bytes += sum(map(len, kept))
        if waited:
            self.telemetry.add_time("elastic.credit_wait_seconds", waited)
        started = time.perf_counter()
        if not worker.proc.send(payload):
            with self._cond:
                if worker.state == _LIVE:
                    worker.state = _SUSPECT
                # submit re-routes this partition: neither replay it nor count it lost
                if worker.log and worker.log[-1][0] == seq:
                    self._log_bytes -= sum(map(len, worker.log.pop()[1]))
            raise _WorkerDown(worker.id)
        self.telemetry.add_time("elastic.send_seconds", time.perf_counter() - started)

    # -- elasticity --------------------------------------------------------
    def scale_to(self, n: int) -> None:
        """Grow or shrink the live pool to ``n`` workers (between steps).

        Growing spawns fresh (empty) workers that join the routing set;
        shrinking drains the highest-id live workers — their final maps
        are retained and merged at :meth:`drain` — and removes them from
        routing.
        """
        if n < 1:
            raise ValueError(f"need >= 1 worker, got {n}")
        self.telemetry.inc("elastic.scale_events")
        current = self._routable()
        next_id = max(self._workers) + 1
        for wid in range(next_id, next_id + n - len(current)):
            self._workers[wid] = _Staging(wid)
            self._spawn(self._workers[wid])
        for worker in current[n:]:
            self._collect(worker)
            if worker.state != _EXCLUDED:  # degrade: its snapshot stands as its contribution
                with self._cond:
                    worker.state = _RETIRED
                worker.proc.send([])
        self._gauge()

    def _collect(self, worker: _Staging) -> None:
        """Fetch ``worker``'s final map, recovering it per the policy on
        the way (under ``degrade`` it may end excluded instead)."""
        while True:
            worker.final = None
            try:
                if not worker.proc.send(pack((_DRAIN, None))):
                    raise _WorkerDown(worker.id)
                with self._cond:
                    self._await(worker, lambda: worker.final is not None)
                return
            except _WorkerDown:
                self._recover(worker)
                if worker.state == _EXCLUDED:
                    return

    # -- results -----------------------------------------------------------
    def drain(self) -> KeyedMap:
        """Collect every contribution and merge deterministically.

        Live workers are drained (with supervision: a death mid-drain is
        recovered per the policy); excluded workers contribute their
        last snapshot; retired workers their stored final.  Merging runs
        in worker-id order, so the result is independent of completion
        timing.
        """
        for worker in self._routable():
            self._collect(worker)
        result = KeyedMap()
        merge = self._merge_sched.merge
        for worker in self._workers.values():
            contribution = worker.snap_bytes if worker.state == _EXCLUDED else worker.final
            if contribution:
                result.merge_map(deserialize_map(contribution), merge)
        self._merge_sched.post_combine(result)
        return result

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        for worker in self._workers.values():
            worker.proc.send([])
        for worker in self._workers.values():
            self._stop(worker, timeout=2.0)
        self._halt()
        self._merge_sched.close()

    def __enter__(self) -> "ElasticTier":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class _WorkerDown(Exception):
    """Internal: the targeted worker is not live (triggers recovery)."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        super().__init__(f"worker {worker_id} down")
