"""Elastic in-transit tier: a supervised staging *process* pool.

`core.in_transit` maps the paper's Section 6 staging placement onto
ranks of one SPMD communicator — staging dies with the job.  This
module is the elastic upgrade (ROADMAP item 2, modelled on
ElasticBroker's decoupled analytics tier): staging workers are separate
OS processes connected to the simulation side over the framed TCP
protocol of :mod:`repro.comm.tcp`, so they can crash, hang, be killed,
be respawned, and be added or removed between steps without touching
the simulation.

Data path
---------
The simulation side holds an :class:`ElasticTier` and calls
:meth:`~ElasticTier.submit` once per partition, which travels as a
one-line array descriptor plus its raw bytes, sent from the caller's
buffer and viewed in place by the worker (no pickle).  Frames route
round-robin over the live workers; **credit-based backpressure** bounds
the per-worker in-flight window (``credits`` unacknowledged frames):
``submit`` blocks until the target worker acknowledges, so a slow tier
throttles the simulation instead of buffering unboundedly.

Each worker owns a rank-local :class:`~repro.core.scheduler.Scheduler`
(global combination off) and accumulates every received partition into
its combination map.  Every ``snapshot_every`` processed frames it ships
a **consistency snapshot** (serialized map + frame count) back; the
coordinator keeps the latest CRC-good snapshot per worker plus a replay
log of every frame sent after it (of each, what the policy can use).

Recovery state machine (DESIGN.md section 13)
---------------------------------------------
``LIVE -> SUSPECT`` on a closed connection (a worker that receives a
frame failing its CRC exits), a stale heartbeat, or an acknowledgement
stall; then, per :class:`~repro.faults.FaultPolicy`:

* ``fail_fast`` — raise :class:`StagingWorkerError`.
* ``retry`` — respawn the process, ``LOAD`` the last snapshot, replay
  the logged frames in their original order, and continue
  (``SUSPECT -> RECOVERING -> LIVE``).  Replay preserves the exact
  per-worker frame sequence, so results are bit-exact with the
  unfaulted run.
* ``degrade`` — exclude the worker (``SUSPECT -> EXCLUDED``): its last
  snapshot stands as its final contribution, the post-snapshot frames
  are dropped with exact accounting (``elastic.frames_lost`` /
  ``elastic.elements_lost``), and subsequent frames rebalance over the
  survivors.

Fault injection: each worker consults the plan per received data frame
— ``comm:crash`` kills the process mid-step, ``comm:delay`` models a
hang, ``network:disconnect`` drops its connection, ``network:slowlink``
slows processing, and ``network:truncate`` corrupts its next snapshot
frame (the coordinator discards it on CRC and falls back to the older
one).

Workers are forked, so ``scheduler_factory`` may be any callable (it is
inherited, not pickled); the fault plan crosses the fork as its
fingerprint string and is re-parsed in the child, keeping injection
deterministic per worker id.
"""

from __future__ import annotations

import ast
import os
import pickle
import socket
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from ..comm.tcp import frame_header, recv_frame, write_frame
from ..faults import FaultError, FaultPolicy
from .maps import KeyedMap
from .serialization import deserialize_map, serialize_map
from .worker import start_process, stop_process

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan
    from ..telemetry import Recorder
    from .scheduler import Scheduler

# Frame kinds >= 16: the elastic tier's protocol over the tcp header.
K_W_HELLO = 16  #: worker -> coordinator: registration (source = worker id)
K_W_LOAD = 17  #: coordinator -> worker: install a snapshot (or empty state)
K_W_DATA = 18  #: coordinator -> worker: one partition, see _encode_array (tag = frame seq)
K_W_ACK = 19  #: worker -> coordinator: frame processed (tag = frame seq)
K_W_SNAPSHOT = 20  #: worker -> coordinator: consistency snapshot (tag = frames)
K_W_DRAIN = 21  #: coordinator -> worker: request the final map
K_W_FINAL = 22  #: worker -> coordinator: final map payload
K_W_HEARTBEAT = 23  #: worker -> coordinator: liveness probe
K_W_BYE = 24  #: coordinator -> worker: shut down cleanly

#: Default bound on unacknowledged in-flight frames per worker.
DEFAULT_CREDITS = 8
#: Default frames between consistency snapshots.
DEFAULT_SNAPSHOT_EVERY = 4
#: Seconds between worker heartbeat probes.
WORKER_HEARTBEAT_INTERVAL = 0.25
#: Seconds without heartbeat/ack before a worker is declared suspect.
WORKER_TIMEOUT = 5.0
#: Seconds to wait for a (re)spawned worker to register.
SPAWN_TIMEOUT = 15.0
#: Poll interval while blocked on credits or worker registration.
CREDIT_POLL = 0.05

_LIVE = "live"
_STARTING = "starting"
_SUSPECT = "suspect"
_EXCLUDED = "excluded"
_RETIRED = "retired"


class StagingWorkerError(FaultError):
    """A staging worker died or hung and the policy forbids recovery."""


def _encode_array(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A ``K_W_DATA`` payload: one text line describing ``arr`` (dtype descr and shape,
    space-padded so the data starts 16-byte aligned), then its C-contiguous bytes — a
    view of ``arr``, which is copied only when it is not contiguous."""
    if arr.dtype.hasobject:
        raise TypeError(f"cannot forward dtype {arr.dtype}: partitions travel as raw bytes")
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    text = repr((np.lib.format.dtype_to_descr(arr.dtype), arr.shape)).encode()
    return text + b" " * (-(len(text) + 1) % 16) + b"\n", arr.reshape(-1).view(np.uint8)


def _decode_array(payload: bytearray) -> np.ndarray:
    """The array :func:`_encode_array` described, over ``payload``'s own bytes."""
    start = payload.index(b"\n") + 1
    descr, shape = ast.literal_eval(payload[:start].decode())
    dtype = np.lib.format.descr_to_dtype(descr)
    return np.frombuffer(payload, dtype, offset=start).reshape(shape)


# -- worker process body -----------------------------------------------------


def _worker_main(
    worker_id: int,
    port: int,
    scheduler_factory: Callable[[], "Scheduler"],
    plan_fingerprint: str | None,
    snapshot_every: int,
    heartbeat_interval: float,
    prior_faults: int = 0,
) -> None:
    """Entry point of one staging worker process."""
    from ..faults import FaultPlan, InjectedRankCrash

    plan = FaultPlan.parse(plan_fingerprint) if plan_fingerprint else None
    if plan is not None and prior_faults:
        # A respawned incarnation starts with fresh plan counters;
        # charging the firings that killed its predecessors keeps the
        # fault budget global per worker, so replay converges instead of
        # re-dying at the same frame forever.
        plan.charge(prior_faults, target=worker_id)
    sched = scheduler_factory()
    sched.set_global_combination(False)
    sock = socket.create_connection(("127.0.0.1", port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    wlock = threading.Lock()
    closing = threading.Event()
    corrupt_next = [False]

    def send(kind: int, tag: int = 0, payload: bytes = b"") -> None:
        # Injected truncate: the next frame with a payload carries a mismatching CRC.
        corrupt = bool(payload) and corrupt_next[0]
        if corrupt:
            corrupt_next[0] = False
        header = frame_header(kind, worker_id, -1, tag, payload, corrupt=corrupt)
        with wlock:
            write_frame(sock, header, payload)

    def send_state(kind: int) -> None:
        """Ship the map and the count of frames it covers (a snapshot, or the final)."""
        wire = serialize_map(sched.get_combination_map(), sched.policy.combine.wire_format)
        state = {"frames": frames_done, "map": wire}
        send(kind, frames_done, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))

    def beat() -> None:
        while not closing.wait(heartbeat_interval):
            try:
                send(K_W_HEARTBEAT)
            except OSError:
                return

    def consult_plan() -> None:
        if plan is None:
            return
        spec = plan.comm_fault(worker_id, op="frame")
        if spec is not None:
            if spec.kind == "crash":
                os._exit(1)  # simulated process death, no cleanup
            if spec.kind == "delay":
                time.sleep(spec.seconds)
        spec = plan.network_fault(worker_id, op="frame")
        if spec is None:
            return
        if spec.kind == "disconnect":
            sock.close()
            os._exit(2)
        if spec.kind in ("slowlink", "partition"):
            time.sleep(spec.seconds)
        elif spec.kind == "truncate":
            corrupt_next[0] = True

    send(K_W_HELLO)
    threading.Thread(target=beat, name=f"elastic-hb-{worker_id}", daemon=True).start()
    frames_done = 0
    try:
        while True:
            kind, _source, _dest, tag, payload, crc_ok = recv_frame(sock)
            if not crc_ok:
                # Skipped, a data frame's gap would hide under the next
                # frame's cumulative ack.  Ended here, the worker is
                # supervised like a dead one: retry replays the frame.
                return
            if kind == K_W_LOAD:
                state = pickle.loads(payload)
                frames_done = state["frames"]
                restored = (
                    deserialize_map(state["map"]) if state["map"] else KeyedMap()
                )
                sched.combination_map_.replace_contents(restored)
            elif kind == K_W_DATA:
                try:
                    consult_plan()
                except InjectedRankCrash:  # pragma: no cover - defensive
                    os._exit(1)
                sched.run(_decode_array(payload))
                frames_done += 1
                send(K_W_ACK, tag=tag)
                if snapshot_every and frames_done % snapshot_every == 0:
                    send_state(K_W_SNAPSHOT)
            elif kind == K_W_DRAIN:
                send_state(K_W_FINAL)
            elif kind == K_W_BYE:
                return
    except (ConnectionError, OSError):
        return  # coordinator gone
    finally:
        closing.set()
        try:
            sock.close()
        except OSError:
            pass


# -- coordinator -------------------------------------------------------------


class _Worker:
    """Coordinator-side state for one staging worker."""

    def __init__(self, worker_id: int):
        self.id = worker_id
        self.proc = None  # its process, once spawned
        self.conn: socket.socket | None = None
        self.wlock = threading.Lock()
        self.state = _STARTING
        self.sent = 0  # frames handed to this worker (its local seq)
        self.acked = 0  # frames it has acknowledged
        self.log: deque[tuple[int, tuple, int]] = deque()  # (seq, replay buffers, n_elems)
        self.snap_bytes: bytes | None = None  # latest CRC-good snapshot map
        self.snap_frames = 0  # frames covered by that snapshot
        self.final: bytes | None = None
        self.last_beat = time.monotonic()
        self.deaths = 0  # prior incarnations lost to injected faults


def _close(worker: _Worker, conn: socket.socket) -> None:
    """Close one of ``worker``'s sockets once no frame is being written to it."""
    with worker.wlock:
        conn.close()


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
        heartbeat_interval: float = WORKER_HEARTBEAT_INTERVAL,
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
        self.telemetry = telemetry
        self.credits = credits
        self.snapshot_every = snapshot_every
        self.worker_timeout = worker_timeout
        self.heartbeat_interval = heartbeat_interval
        self._merge_sched = scheduler_factory()  # merge fn + wire format
        self._server = socket.create_server(("127.0.0.1", 0))
        self._port = self._server.getsockname()[1]
        self._cond = threading.Condition()
        self._workers: dict[int, _Worker] = {}
        self._seq = 0  # global submit counter (routing)
        self._log_bytes = 0  # payload bytes the replay logs retain
        self._closing = False
        threading.Thread(
            target=self._accept_loop, name="elastic-accept", daemon=True
        ).start()
        for wid in range(num_workers):
            self._workers[wid] = _Worker(wid)
            self._spawn(self._workers[wid])
        self._await_registration(list(self._workers.values()))
        self._gauge()

    # -- pool wiring -------------------------------------------------------
    def _gauge(self) -> None:
        if self.telemetry is not None:
            self.telemetry.set_gauge("elastic.workers", len(self._routable()))

    def _spawn(self, worker: _Worker) -> None:
        plan_fp = self.fault_plan.fingerprint() if self.fault_plan is not None else None
        # STARTING goes in before the fork: a child that wins the race to
        # HELLO is marked LIVE by the attach thread, and setting the state
        # afterwards would overwrite that and strand the registration.
        with self._cond:
            worker.state = _STARTING
        args = (worker.id, self._port, self.scheduler_factory, plan_fp,
                self.snapshot_every, self.heartbeat_interval, worker.deaths)
        proc = start_process(_worker_main, args, name=f"elastic-worker-{worker.id}", daemon=True)
        with self._cond:
            worker.proc = proc
            if self.telemetry is not None:
                self.telemetry.inc("elastic.spawns")

    def _await_registration(self, workers: list[_Worker]) -> None:
        limit = time.monotonic() + SPAWN_TIMEOUT
        with self._cond:
            while any(w.state == _STARTING for w in workers):
                if time.monotonic() > limit:
                    stuck = [w.id for w in workers if w.state == _STARTING]
                    raise StagingWorkerError(
                        f"staging worker(s) {stuck} never registered within "
                        f"{SPAWN_TIMEOUT}s"
                    )
                self._cond.wait(CREDIT_POLL)

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._attach, args=(conn,), name="elastic-attach", daemon=True
            ).start()

    def _attach(self, conn: socket.socket) -> None:
        try:
            kind, source, _dest, _tag, _payload, _crc = recv_frame(conn)
        except (ConnectionError, OSError):
            conn.close()
            return
        if kind != K_W_HELLO:
            conn.close()
            return
        with self._cond:
            worker = self._workers.get(source)
            if worker is None:
                conn.close()
                return
            replaced, worker.conn = worker.conn, conn
            worker.state = _LIVE
            worker.last_beat = time.monotonic()
            self._cond.notify_all()
        if replaced is not None:  # a respawned worker: its predecessor's socket
            _close(worker, replaced)
        self._reader_loop(worker, conn)

    def _reader_loop(self, worker: _Worker, conn: socket.socket) -> None:
        try:
            while True:
                kind, _source, _dest, tag, payload, crc_ok = recv_frame(conn)
                with self._cond:
                    if kind == K_W_ACK:
                        worker.acked = max(worker.acked, tag + 1)
                        worker.last_beat = time.monotonic()
                    elif kind == K_W_SNAPSHOT:
                        if crc_ok:
                            state = pickle.loads(payload)
                            worker.snap_bytes = state["map"]
                            worker.snap_frames = state["frames"]
                            while worker.log and worker.log[0][0] < worker.snap_frames:
                                self._log_bytes -= sum(map(len, worker.log.popleft()[1]))
                            if self.telemetry is not None:
                                self.telemetry.inc("elastic.snapshots")
                        elif self.telemetry is not None:
                            self.telemetry.inc("elastic.snapshots_corrupt")
                    elif kind == K_W_FINAL and crc_ok:
                        worker.final = payload
                    elif kind == K_W_HEARTBEAT:
                        worker.last_beat = time.monotonic()
                    self._cond.notify_all()
        except (ConnectionError, OSError):
            pass
        finally:
            with self._cond:
                if worker.conn is conn and worker.state == _LIVE:
                    worker.state = _SUSPECT
                self._cond.notify_all()
            _close(worker, conn)

    # -- liveness and recovery ---------------------------------------------
    def _stale(self, worker: _Worker) -> bool:
        if worker.proc is not None and not worker.proc.is_alive():
            return True
        return (time.monotonic() - worker.last_beat) > self.worker_timeout

    def _routable(self) -> list[_Worker]:
        return [
            w
            for w in sorted(self._workers.values(), key=lambda w: w.id)
            if w.state in (_LIVE, _STARTING, _SUSPECT)
        ]

    def _recover(self, worker: _Worker) -> None:
        """Apply the fault policy to a suspect worker."""
        started = time.perf_counter()
        if self.telemetry is not None:
            self.telemetry.inc("faults.launch_failures")
        if worker.proc is not None:
            stop_process(worker.proc)  # reaped; killed first if hung
        worker.deaths += 1
        if self.policy.mode == "retry":
            # The attempt budget is per worker across its whole lifetime,
            # not per recovery call: a worker that keeps dying between
            # recoveries must exhaust max_attempts, not loop forever.
            while True:
                if worker.deaths >= self.policy.max_attempts:
                    raise StagingWorkerError(
                        f"staging worker {worker.id} failed and "
                        f"{self.policy.max_attempts} attempts are exhausted"
                    )
                if self.telemetry is not None:
                    self.telemetry.inc("faults.retries")
                delay = self.policy.backoff_for(worker.deaths)
                if self.telemetry is not None:
                    self.telemetry.add_time("faults.backoff_seconds", delay)
                time.sleep(delay)
                try:
                    self._respawn_and_replay(worker)
                    break
                except StagingWorkerError:
                    worker.deaths += 1
            if self.telemetry is not None:
                self.telemetry.add_time(
                    "faults.recovery_seconds", time.perf_counter() - started
                )
            return
        if self.policy.mode == "degrade":
            with self._cond:
                worker.state = _EXCLUDED
                lost_frames = len(worker.log)
                lost_elems = sum(n for _seq, _kept, n in worker.log)
                worker.log.clear()
                worker.sent = worker.acked = worker.snap_frames
            if self.telemetry is not None:
                self.telemetry.inc("elastic.workers_dropped")
                self.telemetry.inc("elastic.frames_lost", lost_frames)
                self.telemetry.inc("elastic.elements_lost", lost_elems)
            self._gauge()
            if not self._routable():
                raise StagingWorkerError("every staging worker has been excluded")
            return
        raise StagingWorkerError(
            f"staging worker {worker.id} died or hung (policy: fail_fast)"
        )

    def _respawn_and_replay(self, worker: _Worker) -> None:
        """Respawn ``worker``, restore its snapshot, replay its log."""
        self._spawn(worker)
        self._await_registration([worker])
        with self._cond:
            load = pickle.dumps(
                {"frames": worker.snap_frames, "map": worker.snap_bytes},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            worker.acked = worker.snap_frames
            worker.sent = worker.snap_frames + len(worker.log)
            replay = list(worker.log)
        try:
            self._send_raw(worker, K_W_LOAD, 0, load)
            for seq, kept, _n in replay:
                self._send_raw(worker, K_W_DATA, seq, *kept)
        except OSError as exc:
            raise StagingWorkerError(
                f"staging worker {worker.id} died again during replay"
            ) from exc
        if self.telemetry is not None:
            self.telemetry.inc("elastic.replays")
            self.telemetry.inc("elastic.frames_replayed", len(replay))

    def _send_raw(self, worker: _Worker, kind: int, tag: int, *payload: Any) -> None:
        with self._cond:
            conn = worker.conn
        if conn is None:
            raise OSError("worker has no connection")
        with worker.wlock:
            write_frame(conn, frame_header(kind, -1, worker.id, tag, *payload), *payload)

    # -- data path ---------------------------------------------------------
    def submit(self, partition: np.ndarray) -> None:
        """Forward one partition to the tier (blocks on credits).

        Any array but an object-dtype one (``TypeError``).  Its bytes go out from the
        caller's buffer and are in the kernel on return: the buffer is then free to reuse.
        """
        arr = np.asarray(partition)
        payload = _encode_array(arr)
        seq = self._seq
        self._seq += 1
        while True:
            routable = self._routable()
            if not routable:
                raise StagingWorkerError("no staging workers left to route to")
            worker = routable[seq % len(routable)]
            try:
                self._send_with_credits(worker, payload, int(arr.size))
                if self.telemetry is not None:
                    self.telemetry.inc("elastic.frames_forwarded")
                    self.telemetry.inc("elastic.bytes_forwarded", sum(map(len, payload)))
                    self.telemetry.set_gauge("elastic.log_bytes", self._log_bytes)
                return
            except _WorkerDown:
                self._recover(worker)  # then re-route this partition

    def _send_with_credits(self, worker: _Worker, payload: tuple, n_elems: int) -> None:
        # What recovery can use: a private copy under retry (the caller's buffer is its
        # own again once submit returns), the loss account under degrade, else nothing.
        kept = (payload[0], bytes(payload[1])) if self.policy.mode == "retry" else ()
        waited = 0.0
        last_progress = time.monotonic()
        seen_acked = -1
        with self._cond:
            while (
                worker.state == _LIVE
                and worker.sent - worker.acked >= self.credits
            ):
                t0 = time.monotonic()
                self._cond.wait(CREDIT_POLL)
                waited += time.monotonic() - t0
                if worker.acked != seen_acked:
                    # Ack progress is the liveness signal that matters: a
                    # hung worker's heartbeat thread keeps beating, but
                    # its frame loop stops acknowledging.
                    seen_acked = worker.acked
                    last_progress = time.monotonic()
                elif time.monotonic() - last_progress > self.worker_timeout:
                    worker.state = _SUSPECT
                if self._stale(worker):
                    worker.state = _SUSPECT
            if worker.state != _LIVE:
                raise _WorkerDown(worker.id)
            seq = worker.sent
            worker.sent += 1
            if self.policy.mode != "fail_fast":
                worker.log.append((seq, kept, n_elems))
                self._log_bytes += sum(map(len, kept))
        if waited and self.telemetry is not None:
            self.telemetry.add_time("elastic.credit_wait_seconds", waited)
        started = time.perf_counter()
        try:
            self._send_raw(worker, K_W_DATA, seq, *payload)
        except OSError:
            with self._cond:
                if worker.state == _LIVE:
                    worker.state = _SUSPECT
                # submit re-routes this partition: neither replay it nor count it lost
                if worker.log and worker.log[-1][0] == seq:
                    self._log_bytes -= sum(map(len, worker.log.pop()[1]))
            raise _WorkerDown(worker.id) from None
        if self.telemetry is not None:
            self.telemetry.add_time("elastic.send_seconds", time.perf_counter() - started)

    def _await_quiescent(self, worker: _Worker) -> None:
        """Block until ``worker`` has acknowledged everything sent."""
        limit = time.monotonic() + self.worker_timeout
        with self._cond:
            while worker.state == _LIVE and worker.acked < worker.sent:
                self._cond.wait(CREDIT_POLL)
                if self._stale(worker):
                    worker.state = _SUSPECT
                if time.monotonic() > limit and worker.acked < worker.sent:
                    worker.state = _SUSPECT
            if worker.state != _LIVE:
                raise _WorkerDown(worker.id)

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
        if self.telemetry is not None:
            self.telemetry.inc("elastic.scale_events")
        current = [w for w in self._routable()]
        if n > len(current):
            fresh = []
            next_id = max(self._workers) + 1
            for wid in range(next_id, next_id + (n - len(current))):
                worker = _Worker(wid)
                self._workers[wid] = worker
                self._spawn(worker)
                fresh.append(worker)
            self._await_registration(fresh)
        elif n < len(current):
            for worker in sorted(current, key=lambda w: w.id)[n:]:
                self._retire(worker)
        self._gauge()

    def _retire(self, worker: _Worker) -> None:
        while True:
            try:
                self._await_quiescent(worker)
                worker.final = None
                self._send_raw(worker, K_W_DRAIN, 0)
                self._await_final(worker)
            except (_WorkerDown, OSError):
                self._recover(worker)
                if worker.state == _EXCLUDED:
                    return  # degrade: snapshot stands as its contribution
                continue
            break
        with self._cond:
            worker.state = _RETIRED
        try:
            self._send_raw(worker, K_W_BYE, 0)
        except OSError:
            pass

    def _await_final(self, worker: _Worker) -> None:
        limit = time.monotonic() + self.worker_timeout
        with self._cond:
            while worker.state == _LIVE and worker.final is None:
                self._cond.wait(CREDIT_POLL)
                if self._stale(worker) or time.monotonic() > limit:
                    if worker.final is None:
                        worker.state = _SUSPECT
            if worker.final is None:
                raise _WorkerDown(worker.id)

    # -- results -----------------------------------------------------------
    def drain(self) -> KeyedMap:
        """Collect every contribution and merge deterministically.

        Live workers are drained (with supervision: a death mid-drain is
        recovered per the policy); excluded workers contribute their
        last snapshot; retired workers their stored final.  Merging runs
        in worker-id order, so the result is independent of completion
        timing.
        """
        for worker in sorted(self._workers.values(), key=lambda w: w.id):
            if worker.state not in (_LIVE, _SUSPECT, _STARTING):
                continue
            while True:
                try:
                    self._await_quiescent(worker)
                    worker.final = None
                    self._send_raw(worker, K_W_DRAIN, 0)
                    self._await_final(worker)
                except (_WorkerDown, OSError):
                    self._recover(worker)
                    if worker.state == _EXCLUDED:
                        break
                    continue
                break
        result = KeyedMap()
        merge = self._merge_sched.merge
        for worker in sorted(self._workers.values(), key=lambda w: w.id):
            contribution: bytes | None
            if worker.state == _EXCLUDED:
                contribution = worker.snap_bytes
            else:
                state = pickle.loads(worker.final) if worker.final else None
                contribution = state["map"] if state else None
            if contribution:
                result.merge_map(deserialize_map(contribution), merge)
        self._merge_sched.post_combine(result)
        return result

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        self._closing = True
        for worker in self._workers.values():
            try:
                self._send_raw(worker, K_W_BYE, 0)
            except OSError:
                pass
        try:
            self._server.close()
        except OSError:
            pass
        for worker in self._workers.values():
            if worker.proc is not None:
                stop_process(worker.proc, timeout=2.0)
            if worker.conn is not None:
                try:
                    worker.conn.close()
                except OSError:
                    pass
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
