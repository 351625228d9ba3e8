"""Socket-backed SPMD communicator: real frames over localhost TCP.

This backend replaces the in-process mailboxes of
:class:`~repro.comm.sim.SimCluster` with a genuine wire path: every
point-to-point message is pickled, wrapped in a length-prefixed
CRC-checked frame, and routed through a hub (:class:`TcpRouter`) over a
real TCP connection.  Collectives are built from rooted fan-in/fan-out
over that point-to-point layer (the :class:`~repro.comm.subgroup.GroupComm`
construction), so one transport carries everything.

The design goals are robustness properties of a real wire (DESIGN.md
section 13):

* **Framing** — ``magic | version | kind | source | dest | tag | length
  | crc32`` header (:data:`HEADER`); payload corruption is detected by
  CRC before deserialization and surfaces as
  :class:`~repro.comm.errors.FrameCorruptionError` on the receiving
  call, never as a pickle explosion.  Frames are written from where
  their bytes lie (:func:`write_frame`: header and payload buffers,
  scatter-gather) and read into one exact-size buffer.
* **Deadlines** — a ``recv`` or collective blocked past the cluster's
  per-call ``deadline`` raises
  :class:`~repro.comm.errors.CommTimeoutError` with structured
  ``source``/``tag``/``deadline_seconds`` attributes.
* **Retry** — connects and sends retry with capped exponential backoff
  and deterministic seeded jitter (:func:`~repro.faults.seeded_backoff`);
  a dropped connection (including an injected ``network:disconnect``)
  heals transparently: the router buffers frames for an absent rank and
  flushes them on re-HELLO.
* **Heartbeats** — each endpoint probes the router on a fixed interval;
  the router tracks per-rank liveness (:meth:`TcpRouter.last_seen`).
* **Fault injection** — the router consults the cluster's
  :class:`~repro.faults.FaultPlan` per forwarded data frame
  (``network_fault(rank, op="forward")``): ``disconnect`` closes the
  sender's connection after the frame, ``slowlink`` sleeps before
  forwarding, ``truncate`` corrupts the payload so the receiver's CRC
  trips, ``partition`` stalls all forwarding for a duration.  The
  ``comm`` layer's delay/drop/crash kinds also apply, mirroring the sim
  backend, so existing chaos plans run unchanged over the wire.

Ranks remain threads of one process (the router binds loopback); what
changes is that every byte crosses a socket, so framing, partial reads,
reconnects, and corruption are exercised for real.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
import zlib
from collections import defaultdict, deque
from typing import TYPE_CHECKING, Any, Sequence

from .errors import (
    CommAborted,
    CommError,
    CommTimeoutError,
    FrameCorruptionError,
)
from .interface import Communicator
from .profiler import TrafficProfiler
from .sim import DEFAULT_TIMEOUT

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan

# -- framing -----------------------------------------------------------------

#: Wire header: magic, version, kind, source, dest, tag, payload length,
#: payload crc32.  Network byte order, 24 bytes.
HEADER = struct.Struct("!2sBBiiiII")
MAGIC = b"SF"
VERSION = 1

# Frame kinds.
K_HELLO = 1  #: rank registration (source = rank)
K_DATA = 2  #: routed point-to-point payload
K_HEARTBEAT = 3  #: liveness probe, client -> router
K_HEARTBEAT_ACK = 4  #: liveness reply, router -> client
K_BYE = 5  #: clean disconnect

#: Attempts for connect / send before giving up on the wire.
CONNECT_ATTEMPTS = 6
#: Base seconds for the seeded reconnect backoff schedule.
CONNECT_BACKOFF_BASE = 0.02
#: Cap on a single reconnect backoff sleep.
CONNECT_BACKOFF_CAP = 0.5
#: Jitter fraction for the reconnect backoff schedule.
CONNECT_BACKOFF_JITTER = 0.25
#: Seconds between heartbeat probes from each endpoint.
HEARTBEAT_INTERVAL = 0.5

_CTX_SHIFT = 1 << 23  # wire tag = tag + ctx * _CTX_SHIFT
_COLL_TAG = (1 << 22) + 3  # collective fan-in/fan-out tag space
_DUP_TAG = (1 << 22) + 31


def frame_header(
    kind: int, source: int, dest: int, tag: int, *payload: Any, corrupt: bool = False
) -> bytes:
    """The header of a frame whose payload is ``payload`` (byte buffers, in
    order), the CRC chained over them.  ``corrupt`` makes the CRC mismatch on
    purpose: how an injected or upstream corruption stays visible downstream."""
    length = crc = 0
    for buf in payload:
        length += len(buf)
        crc = zlib.crc32(buf, crc)
    if corrupt:
        crc ^= 1
    return HEADER.pack(MAGIC, VERSION, kind, source, dest, tag, length, crc)


def write_frame(sock: socket.socket, header: bytes, *payload: Any) -> None:
    """Write one frame from where its bytes lie: header and payload
    buffers go out scatter-gather, and partial sends are finished."""
    views = [memoryview(buf) for buf in (header, *payload) if len(buf)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


def pack_frame(kind: int, source: int, dest: int, tag: int, payload: bytes) -> bytes:
    """One wire frame as :func:`write_frame` sends it, in one retained
    ``bytes``: header (with payload CRC) followed by the payload."""
    return frame_header(kind, source, dest, tag, payload) + payload


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` (peer gone)."""
    buf = bytearray(n)
    got = 0
    while got < n:
        count = sock.recv_into(memoryview(buf)[got:])
        if not count:
            raise ConnectionError("peer closed the connection")
        got += count
    return buf


def recv_frame(sock: socket.socket) -> tuple[int, int, int, int, bytearray, bool]:
    """Read one frame: ``(kind, source, dest, tag, payload, crc_ok)``.

    Structural problems (bad magic/version) raise
    :class:`~repro.comm.errors.FrameCorruptionError` immediately — the
    stream is unrecoverable.  A payload CRC mismatch is survivable (the
    stream stays framed), so it is reported via ``crc_ok=False`` for the
    caller to attribute to the right receive.
    """
    header = recv_exact(sock, HEADER.size)
    magic, version, kind, source, dest, tag, length, crc = HEADER.unpack(header)
    if magic != MAGIC or version != VERSION:
        raise FrameCorruptionError(
            f"bad frame header (magic={magic!r}, version={version})"
        )
    payload = recv_exact(sock, length)
    return kind, source, dest, tag, payload, zlib.crc32(payload) == crc


class _Corrupt:
    """Mailbox marker: the frame for this receive failed its CRC."""

    __slots__ = ("source", "tag")

    def __init__(self, source: int, tag: int):
        self.source = source
        self.tag = tag


# -- router ------------------------------------------------------------------


class TcpRouter:
    """Hub that accepts one connection per rank and routes data frames.

    A hub (rather than a full mesh) keeps connection count linear and
    gives the fault plan a single choke point: every routed frame passes
    one ``network_fault(source, op="forward")`` consultation.  Frames
    addressed to a rank that is not currently connected (mid-reconnect)
    are buffered and flushed on its next HELLO, so an injected
    ``disconnect`` loses no data.
    """

    def __init__(self, size: int, fault_plan: "FaultPlan | None" = None):
        self.size = size
        self.fault_plan = fault_plan
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address: tuple[str, int] = self._server.getsockname()
        self._conns: dict[int, socket.socket] = {}
        self._wlocks: dict[int, threading.Lock] = defaultdict(threading.Lock)
        self._pending: dict[int, list[bytes]] = defaultdict(list)
        self._last_seen: dict[int, float] = {}
        self._lock = threading.Lock()
        self._closing = False
        self._partition_until = 0.0
        self._threads: list[threading.Thread] = []
        accept = threading.Thread(
            target=self._accept_loop, name="tcp-router-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)

    # -- liveness ----------------------------------------------------------
    def last_seen(self, rank: int) -> float | None:
        """Monotonic time of ``rank``'s last heartbeat (None: never)."""
        with self._lock:
            return self._last_seen.get(rank)

    def alive(self, rank: int, within: float = 3 * HEARTBEAT_INTERVAL) -> bool:
        """Has ``rank`` heartbeated within the last ``within`` seconds?"""
        seen = self.last_seen(rank)
        return seen is not None and (time.monotonic() - seen) <= within

    # -- wiring ------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # server socket closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=self._serve, args=(conn,), name="tcp-router-serve", daemon=True
            )
            reader.start()
            self._threads.append(reader)

    def _register(self, rank: int, conn: socket.socket) -> None:
        with self._lock:
            old = self._conns.get(rank)
            self._conns[rank] = conn
            backlog = self._pending.pop(rank, [])
        if old is not None and old is not conn:
            try:
                old.close()
            except OSError:
                pass
        for frame in backlog:
            self._deliver(rank, frame)

    def _deliver(self, dest: int, *frame: Any) -> None:
        """Send ``frame`` (header and payload, or one retained whole)."""
        with self._lock:
            conn = self._conns.get(dest)
            if conn is None:
                self._pending[dest].append(b"".join(frame))
                return
        try:
            with self._wlocks[dest]:
                write_frame(conn, *frame)
        except OSError:
            # Receiver mid-reconnect: keep the frame for its next HELLO.
            with self._lock:
                self._pending[dest].append(b"".join(frame))

    def _inject(self, source: int, payload: bytearray) -> tuple[bool, bool]:
        """Consult the fault plan for one forwarded frame.

        Returns ``(corrupted, drop_conn)``: whether ``payload`` was
        corrupted in place (so the outbound frame must carry a
        mismatching CRC), and whether to close the source's connection
        after forwarding.
        """
        stall = self._partition_until - time.monotonic()
        if stall > 0:
            time.sleep(stall)
        plan = self.fault_plan
        spec = plan.network_fault(source, op="forward") if plan is not None else None
        if spec is None:
            return False, False
        if spec.kind == "slowlink":
            time.sleep(spec.seconds)
            return False, False
        if spec.kind == "partition":
            self._partition_until = time.monotonic() + spec.seconds
            time.sleep(spec.seconds)
            return False, False
        if spec.kind == "truncate":
            # Corrupt the tail while keeping the declared length, so the
            # receiver's CRC check trips (detectable, not a stall).
            if payload:
                payload[-1] ^= 0xFF
            return True, False
        return False, True  # disconnect

    def _serve(self, conn: socket.socket) -> None:
        rank: int | None = None
        try:
            while not self._closing:
                kind, source, dest, tag, payload, crc_ok = recv_frame(conn)
                if kind == K_HELLO:
                    rank = source
                    self._register(source, conn)
                elif kind == K_HEARTBEAT:
                    with self._lock:
                        self._last_seen[source] = time.monotonic()
                    try:
                        with self._wlocks[source]:
                            write_frame(conn, frame_header(K_HEARTBEAT_ACK, -1, source, 0))
                    except OSError:
                        pass
                elif kind == K_DATA:
                    corrupted, drop_conn = self._inject(source, payload)
                    # Corrupted here or on the inbound hop: it goes on with a mismatching
                    # CRC, as if the corruption happened on the receiver's own segment.
                    header = frame_header(
                        K_DATA, source, dest, tag, payload,
                        corrupt=corrupted or not crc_ok,
                    )
                    self._deliver(dest, header, payload)
                    if drop_conn:
                        conn.close()
                        return
                elif kind == K_BYE:
                    conn.close()
                    return
        except (ConnectionError, OSError, FrameCorruptionError):
            pass  # client gone (or injected disconnect); it will re-HELLO
        finally:
            if rank is not None:
                with self._lock:
                    if self._conns.get(rank) is conn:
                        del self._conns[rank]

    def close(self) -> None:
        self._closing = True
        try:
            self._server.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass


# -- endpoint (one per rank) -------------------------------------------------


class _TcpEndpoint:
    """One rank's socket, reader thread, mailboxes, and heartbeat."""

    def __init__(self, cluster: "TcpCluster", rank: int):
        self.cluster = cluster
        self.rank = rank
        self.mail: dict[tuple[int, int], deque[Any]] = defaultdict(deque)
        self.mail_cond = threading.Condition()
        self.last_ack: float | None = None
        self._sock: socket.socket | None = None
        self._io_lock = threading.Lock()
        self._closing = threading.Event()
        self._connect_locked()
        if cluster.heartbeat_interval is not None:
            beat = threading.Thread(
                target=self._heartbeat_loop, name=f"tcp-hb-{rank}", daemon=True
            )
            beat.start()

    # -- connection management --------------------------------------------
    def _connect_locked(self) -> None:
        """(Re)connect under ``_io_lock`` callers, with seeded backoff."""
        from ..faults import seeded_backoff  # deferred: avoid import cycle

        last: Exception | None = None
        for attempt in range(1, CONNECT_ATTEMPTS + 1):
            try:
                sock = socket.create_connection(self.cluster.router.address, timeout=5.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                write_frame(sock, frame_header(K_HELLO, self.rank, -1, 0))
                self._sock = sock
                reader = threading.Thread(
                    target=self._reader_loop,
                    args=(sock,),
                    name=f"tcp-reader-{self.rank}",
                    daemon=True,
                )
                reader.start()
                return
            except OSError as exc:
                last = exc
                if attempt < CONNECT_ATTEMPTS:
                    time.sleep(
                        seeded_backoff(
                            attempt,
                            base=CONNECT_BACKOFF_BASE,
                            cap=CONNECT_BACKOFF_CAP,
                            jitter=CONNECT_BACKOFF_JITTER,
                            seed=self.cluster.backoff_seed + self.rank,
                        )
                    )
        raise CommError(
            f"rank {self.rank} could not connect to router "
            f"{self.cluster.router.address} after {CONNECT_ATTEMPTS} attempts"
        ) from last

    def _ensure_connected(self) -> socket.socket:
        with self._io_lock:
            if self._sock is None:
                self._connect_locked()
            assert self._sock is not None
            return self._sock

    def _drop_socket(self, sock: socket.socket) -> None:
        with self._io_lock:
            if self._sock is sock:
                self._sock = None
        try:
            sock.close()
        except OSError:
            pass

    # -- wire I/O ----------------------------------------------------------
    def send_frame(self, kind: int, dest: int, tag: int, payload: bytes) -> None:
        """Send one frame, retrying across reconnects with seeded backoff."""
        from ..faults import seeded_backoff  # deferred: avoid import cycle

        header = frame_header(kind, self.rank, dest, tag, payload)
        last: Exception | None = None
        for attempt in range(1, CONNECT_ATTEMPTS + 1):
            try:
                with self._io_lock:
                    if self._sock is None:
                        self._connect_locked()
                    assert self._sock is not None
                    write_frame(self._sock, header, payload)
                return
            except OSError as exc:
                last = exc
                with self._io_lock:
                    if self._sock is not None:
                        try:
                            self._sock.close()
                        except OSError:
                            pass
                        self._sock = None
                if self._closing.is_set():
                    break
                time.sleep(
                    seeded_backoff(
                        attempt,
                        base=CONNECT_BACKOFF_BASE,
                        cap=CONNECT_BACKOFF_CAP,
                        jitter=CONNECT_BACKOFF_JITTER,
                        seed=self.cluster.backoff_seed + self.rank,
                    )
                )
        raise CommError(
            f"rank {self.rank} could not send after {CONNECT_ATTEMPTS} attempts"
        ) from last

    def _reader_loop(self, sock: socket.socket) -> None:
        try:
            while not self._closing.is_set():
                kind, source, _dest, tag, payload, crc_ok = recv_frame(sock)
                if kind == K_HEARTBEAT_ACK:
                    self.last_ack = time.monotonic()
                    continue
                if kind != K_DATA:
                    continue
                if crc_ok:
                    item: Any = pickle.loads(payload)
                else:
                    item = _Corrupt(source, tag)
                with self.mail_cond:
                    self.mail[(source, tag)].append(item)
                    self.mail_cond.notify_all()
        except (ConnectionError, OSError, FrameCorruptionError):
            self._drop_socket(sock)
            if not self._closing.is_set() and not self.cluster.aborted:
                # Injected disconnect (or router hiccup): heal the wire.
                # Buffered frames for this rank flush on re-HELLO.
                try:
                    with self._io_lock:
                        if self._sock is None:
                            self._connect_locked()
                except CommError:
                    pass  # sends/receives surface the failure with context

    def _heartbeat_loop(self) -> None:
        interval = self.cluster.heartbeat_interval
        while not self._closing.wait(interval):
            try:
                self.send_frame(K_HEARTBEAT, -1, 0, b"")
            except CommError:
                return

    # -- mailbox -----------------------------------------------------------
    def wait_mail(self, source: int, tag: int, *, user_tag: int) -> Any:
        """Block for the next message at ``(source, tag)``; honour
        deadline/timeout/abort exactly like the sim backend."""
        cluster = self.cluster
        key = (source, tag)
        deadline = cluster.deadline
        start = time.monotonic()
        with self.mail_cond:
            while not self.mail.get(key):
                cluster.check_abort()
                elapsed = time.monotonic() - start
                remaining = cluster.timeout - elapsed
                if deadline is not None:
                    remaining = min(remaining, deadline - elapsed)
                if not self.mail_cond.wait(timeout=max(remaining, 0.001)):
                    elapsed = time.monotonic() - start
                    if deadline is not None and elapsed >= deadline:
                        reason = (
                            f"recv(source={source}, tag={user_tag}) exceeded the "
                            f"{deadline}s call deadline on rank {self.rank}"
                        )
                        cluster.abort(reason)
                        raise CommTimeoutError(
                            reason,
                            source=source,
                            tag=user_tag,
                            deadline_seconds=deadline,
                        )
                    if elapsed >= cluster.timeout:
                        cluster.abort(
                            f"recv(source={source}, tag={user_tag}) timed out "
                            f"on rank {self.rank}"
                        )
                        cluster.check_abort()
            item = self.mail[key].popleft()
        if isinstance(item, _Corrupt):
            raise FrameCorruptionError(
                f"frame from rank {source} (tag={user_tag}) failed its CRC "
                f"on rank {self.rank}"
            )
        return item

    def close(self) -> None:
        self._closing.set()
        with self._io_lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                write_frame(sock, frame_header(K_BYE, self.rank, -1, 0))
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        with self.mail_cond:
            self.mail_cond.notify_all()


# -- cluster and communicator ------------------------------------------------


class TcpCluster:
    """Factory for :class:`TcpComm` rank handles over one :class:`TcpRouter`.

    Mirrors :class:`~repro.comm.sim.SimCluster`'s constructor contract
    (``size``, ``profiler``, ``timeout``, ``deadline``, ``fault_plan``)
    so :func:`~repro.comm.launcher.spmd_launch` can swap backends; adds
    ``heartbeat_interval`` (``None`` disables probes) and
    ``backoff_seed`` (drives every endpoint's reconnect jitter).
    """

    def __init__(
        self,
        size: int,
        profiler: TrafficProfiler | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        deadline: float | None = None,
        fault_plan: "FaultPlan | None" = None,
        heartbeat_interval: float | None = HEARTBEAT_INTERVAL,
        backoff_seed: int = 0,
    ):
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.size = size
        self.profiler = profiler
        self.timeout = timeout
        self.deadline = deadline
        self.fault_plan = fault_plan
        self.heartbeat_interval = heartbeat_interval
        self.backoff_seed = backoff_seed
        self.router = TcpRouter(size, fault_plan=fault_plan)
        self.aborted = False
        self.abort_reason: str | None = None
        self.abort_origin_rank: int | None = None
        self.abort_origin_exc_type: str | None = None
        self._endpoints: dict[int, _TcpEndpoint] = {}
        self._lock = threading.Lock()
        self._next_ctx = 1

    def comm(self, rank: int) -> "TcpComm":
        """The world-communicator handle for ``rank`` (connects lazily)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        with self._lock:
            endpoint = self._endpoints.get(rank)
            if endpoint is None:
                endpoint = _TcpEndpoint(self, rank)
                self._endpoints[rank] = endpoint
        return TcpComm(self, endpoint, ctx=0)

    def comms(self) -> list["TcpComm"]:
        """World-communicator handles for every rank, rank order."""
        return [self.comm(r) for r in range(self.size)]

    def new_context_id(self) -> int:
        with self._lock:
            ctx = self._next_ctx
            self._next_ctx += 1
        if ctx * _CTX_SHIFT >= 2**31:  # pragma: no cover - 255 dups deep
            raise CommError("communicator context space exhausted")
        return ctx

    def check_abort(self) -> None:
        if self.aborted:
            raise CommAborted(
                self.abort_reason or "SPMD job aborted",
                origin_rank=self.abort_origin_rank,
                origin_exc_type=self.abort_origin_exc_type,
            )

    def abort(
        self,
        reason: str = "aborted",
        *,
        origin_rank: int | None = None,
        origin_exc_type: str | None = None,
    ) -> None:
        """Abort the job: every blocked rank raises :class:`CommAborted`
        carrying the originating rank and exception type."""
        with self._lock:
            if not self.aborted:
                self.aborted = True
                self.abort_reason = reason
                self.abort_origin_rank = origin_rank
                self.abort_origin_exc_type = origin_exc_type
            endpoints = list(self._endpoints.values())
        for endpoint in endpoints:
            with endpoint.mail_cond:
                endpoint.mail_cond.notify_all()

    def close(self) -> None:
        """Tear down every endpoint and the router (idempotent)."""
        with self._lock:
            endpoints = list(self._endpoints.values())
            self._endpoints.clear()
        for endpoint in endpoints:
            endpoint.close()
        self.router.close()

    def __enter__(self) -> "TcpCluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class TcpComm(Communicator):
    """One rank's handle onto a :class:`TcpCluster` context.

    Collectives are rooted fan-in/fan-out over the framed point-to-point
    layer; :meth:`dup` allocates a fresh context id (rank 0 picks it and
    broadcasts), shifting the wire-tag space so the duplicate's traffic
    never collides with the parent's.
    """

    def __init__(self, cluster: TcpCluster, endpoint: _TcpEndpoint, ctx: int = 0):
        self._cluster = cluster
        self._endpoint = endpoint
        self._ctx = ctx
        self.profiler = cluster.profiler

    @property
    def rank(self) -> int:
        return self._endpoint.rank

    @property
    def size(self) -> int:
        return self._cluster.size

    def _wire_tag(self, tag: int) -> int:
        return tag + self._ctx * _CTX_SHIFT

    def _fault(self, op: str) -> str | None:
        """Comm-layer fault hook, mirroring the sim backend's semantics."""
        plan = self._cluster.fault_plan
        if plan is None:
            return None
        spec = plan.comm_fault(self.rank, op)
        if spec is None:
            return None
        if spec.kind == "delay":
            time.sleep(spec.seconds)
            return None
        if spec.kind == "drop":
            return "drop"
        from ..faults import InjectedRankCrash  # deferred: avoid import cycle

        raise InjectedRankCrash(self.rank, plan.call_count("comm", self.rank) - 1, op)

    # -- point to point ---------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "dest")
        if self._fault("send") == "drop":
            return  # the message vanishes in transit
        self._record("send", obj)
        self._cluster.check_abort()
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._endpoint.send_frame(K_DATA, dest, self._wire_tag(tag), payload)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        self._fault("recv")
        return self._endpoint.wait_mail(source, self._wire_tag(tag), user_tag=tag)

    # -- collectives over pt2pt -------------------------------------------
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        self._fault("gather")
        self._record("gather", obj)
        if self.rank == root:
            values: list[Any] = [None] * self.size
            values[root] = obj
            for r in range(self.size):
                if r != root:
                    values[r] = self._endpoint.wait_mail(
                        r, self._wire_tag(_COLL_TAG), user_tag=_COLL_TAG
                    )
            return values
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._endpoint.send_frame(K_DATA, root, self._wire_tag(_COLL_TAG), payload)
        return None

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        self._fault("bcast")
        if self.rank == root:
            self._record("bcast", obj)
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            for r in range(self.size):
                if r != root:
                    self._endpoint.send_frame(
                        K_DATA, r, self._wire_tag(_COLL_TAG + 1), payload
                    )
            return obj
        return self._endpoint.wait_mail(
            root, self._wire_tag(_COLL_TAG + 1), user_tag=_COLL_TAG + 1
        )

    def allgather(self, obj: Any) -> list[Any]:
        self._record("allgather", obj)
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        self._fault("scatter")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                got = "None" if objs is None else str(len(objs))
                raise ValueError(f"scatter needs exactly {self.size} values, got {got}")
            self._record("scatter", objs)
            for r in range(self.size):
                if r != root:
                    payload = pickle.dumps(objs[r], protocol=pickle.HIGHEST_PROTOCOL)
                    self._endpoint.send_frame(
                        K_DATA, r, self._wire_tag(_COLL_TAG + 2), payload
                    )
            return objs[root]
        return self._endpoint.wait_mail(
            root, self._wire_tag(_COLL_TAG + 2), user_tag=_COLL_TAG + 2
        )

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise ValueError(
                f"alltoall on rank {self.rank} needs {self.size} values, got {len(objs)}"
            )
        self._fault("alltoall")
        self._record("alltoall", list(objs))
        for r in range(self.size):
            if r != self.rank:
                payload = pickle.dumps(objs[r], protocol=pickle.HIGHEST_PROTOCOL)
                self._endpoint.send_frame(
                    K_DATA, r, self._wire_tag(_COLL_TAG + 3), payload
                )
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for r in range(self.size):
            if r != self.rank:
                out[r] = self._endpoint.wait_mail(
                    r, self._wire_tag(_COLL_TAG + 3), user_tag=_COLL_TAG + 3
                )
        return out

    def barrier(self) -> None:
        self._fault("barrier")
        self._record("barrier", nbytes=0)
        # Rooted fan-in + fan-out: everyone has arrived once the root's
        # release reaches them (the GroupComm construction).
        self.gather(None, root=0)
        self.bcast(None, root=0)

    # -- structure --------------------------------------------------------
    def dup(self) -> "TcpComm":
        """Collectively duplicate into an independent wire-tag context."""
        if self.rank == 0:
            new_ctx = self._cluster.new_context_id()
            payload = pickle.dumps(new_ctx, protocol=pickle.HIGHEST_PROTOCOL)
            for r in range(1, self.size):
                self._endpoint.send_frame(
                    K_DATA, r, self._wire_tag(_DUP_TAG), payload
                )
        else:
            new_ctx = self._endpoint.wait_mail(
                0, self._wire_tag(_DUP_TAG), user_tag=_DUP_TAG
            )
        return TcpComm(self._cluster, self._endpoint, ctx=new_ctx)
