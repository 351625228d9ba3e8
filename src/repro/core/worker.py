"""Owned worker processes: how one starts, serves, dies and stops.

The paper runs Smart's fixed thread team inside the simulation's process
(PAPER.md §3.2); this reproduction runs it as owned processes, off the
parent's GIL.  Everything about such a process but its work lives here;
the process engine's workers, the service's seat processes and the
elastic tier's staging workers are the clients.

* **Start** — :func:`start_process` forks.  The child closes its copy of
  the parent's pipe end, so the parent's death reads as EOF, pins BLAS
  to one thread (it shares the host's cores with its siblings) and fixes
  malloc's limits, so a task's temporaries are not faulted back in on
  every task.  A worker imports no ``repro`` module after the fork: it
  runs what its parent loaded (the spine with :mod:`repro.core`; the
  rest before the pool starts), since a child that imports compiles the
  module again, and a fork mid-import can leave its import lock held.
* **One message, one reply** — a worker calls its client's *handler* (a
  callable building the per-process state, called in the child) on each
  message and replies with the result or the exception.  A message
  (:func:`pack`; process ranks' too) is a protocol-5 pickle and, out of
  band, each C-contiguous array's bytes, written from where they lie and
  read, all before unpickling, straight into fresh writable memory: one
  socket copy each way, no pickle copy.  An empty message or EOF ends it.
* **Death and hang** — :func:`wait` on pipes and sentinels, with an
  optional deadline: a readable pipe is a reply, a ready sentinel with
  nothing to read a death, nothing by the deadline a hang.  What a loss
  costs is the client's policy; :meth:`Pool.worker` replaces a worker
  found dead before it is sent anything, which has lost no work.
* **Replace and exit halt** — :meth:`Pool.replace` kills, reaps and
  re-forks (never once the pool is closed).  Workers are not daemonic (a
  seat starts engine workers of its own), so :func:`halt`, run by one
  ``Finalize`` per pool, stops them when the pool is closed, collected,
  or still open at interpreter exit, before ``multiprocessing`` joins its
  children.
* **Segments** — :func:`create_segment` names a segment
  ``smart_<pid>_<token>``; reaping a process unlinks what it left.  A
  worker maps another process's segment with :func:`view`.
"""

from __future__ import annotations

import copyreg
import ctypes
import math
import io
import multiprocessing as mp
import os
import pickle
import secrets
import select
import socket
import struct
import threading
import traceback
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import Connection
from multiprocessing.util import Finalize
from pathlib import Path

import numpy as np

from .blas import one_blas_thread

__all__ = ["Pool", "Worker", "create_segment", "detach", "halt", "pack", "recv_frames",
           "send_frames", "start_process", "stop_process", "unlink_segment", "unpack", "view",
           "wait"]

_FORK = mp.get_context("fork")
#: How long a halt waits for a worker asked to stop before killing it.
_STOP_SECONDS = 30.0
_SHM = Path("/dev/shm")
#: Socket buffer size of both ends of every pipe.  At the default (~208 KiB)
#: a 2 MiB buffer crosses in many small writes, each waking the reader; at
#: 4 MiB it takes one ``writev``, and ``intransit_histogram`` moved 1.4x the
#: elements per second at a quarter of the median latency (2-core x86-64
#: host).  The kernel caps the request at ``net.core.[rw]mem_max``.
_PIPE_BYTES = 4 << 20
#: glibc's ``(M_MMAP_THRESHOLD, value), (M_TRIM_THRESHOLD, value)``.  The
#: default limits move with what the process has freed, so whether a task's
#: freed temporaries were faulted back in by the next task hung on the heap's
#: layout (a ``moving_average`` job in a seat: 64-112 page faults, or none).
#: Workers start at the limits glibc's own raising stops at (64-bit).
_MALLOC_LIMITS = ((-3, 32 << 20), (-1, 64 << 20))


# -- one process ----------------------------------------------------------------


def _main(target, args: tuple, inherited: tuple) -> None:
    for conn in inherited:
        conn.close()  # this fork's copy of the parent's end: open, it would hide the parent's death
    one_blas_thread()
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc; elsewhere nothing
    for param, value in _MALLOC_LIMITS if mallopt else ():
        mallopt(param, value)
    target(*args)


def start_process(target, args: tuple, *, name: str, inherited: tuple = ()):
    """Fork a process running ``target(*args)``; ``inherited`` are parent
    connections the child closes first."""
    process = _FORK.Process(target=_main, args=(target, args, inherited), name=name)
    process.start()
    return process


def stop_process(process, timeout: float | None = 0.0) -> int | None:
    """Give ``process`` ``timeout`` seconds to exit, kill it if it has not,
    reap it and unlink the segments it created and left; its exit code."""
    process.join(timeout)
    if process.is_alive():
        process.kill()
        process.join()
    for path in _SHM.glob(f"smart_{process.pid}_*"):
        unlink_segment(shared_memory.SharedMemory(name=path.name))
    return process.exitcode


# -- the serve loop and its messages ----------------------------------------------


def _portable(exc: Exception) -> Exception:
    """``exc`` with its worker traceback noted, if it survives a pickle
    round trip; otherwise a ``RuntimeError`` naming it (an exception
    whose constructor takes other arguments than its ``args`` would fail
    to rebuild in the parent)."""
    exc.add_note("worker traceback:\n" + traceback.format_exc())
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        portable = RuntimeError(f"{type(exc).__name__}: {exc}")
        portable.__notes__ = exc.__notes__
        return portable
    return exc


def _serve(conn, handler) -> None:
    handle = handler()
    while True:
        try:
            frames = recv_frames(conn)
        except (EOFError, OSError):  # the parent is gone
            return
        if not frames:
            return
        try:
            reply = handle(unpack(frames))
        except Exception as exc:
            reply = _portable(exc)
        send_frames(conn, pack(reply))


def _array(buffer, dtype, shape) -> np.ndarray:
    return np.frombuffer(buffer, dtype).reshape(shape)


def _reduce_array(a: np.ndarray):
    """A C-contiguous array as dtype, shape and bytes: numpy's reduce costs ≈10 µs."""
    if not a.flags.c_contiguous or a.dtype.hasobject:
        return a.__reduce_ex__(5)
    raw = pickle.PickleBuffer(a.reshape(-1).view(np.uint8))
    return _array, (raw, a.dtype if a.dtype.fields else a.dtype.str, a.shape)


def pack(obj) -> list:
    """``obj`` as a message's frames: its protocol-5 pickle, then its arrays' own memory."""
    buffers, head = [], io.BytesIO()
    pickler = pickle.Pickler(head, protocol=5, buffer_callback=buffers.append)
    pickler.dispatch_table = {**copyreg.dispatch_table, np.ndarray: _reduce_array}
    pickler.dump(obj)
    return [head.getvalue(), *(buffer.raw() for buffer in buffers)]


def unpack(frames):
    """The object a message's frames carry."""
    return pickle.loads(frames[0], buffers=frames[1:])


def send_frames(conn, frames) -> None:
    """Write one message (``[]``: a goodbye): its buffer count and frame
    lengths, then each frame from where it lies.  OSError: the peer is gone."""
    frames = frames or [b""]  # an empty pickle: no object is one
    sizes = struct.pack(f"!{len(frames) + 1}Q", len(frames) - 1, *map(len, frames))
    _transfer(os.writev, conn.fileno(), [sizes, *frames])


def recv_frames(conn) -> list:
    """Read all of one message (``[]``: a goodbye), each out-of-band buffer into
    fresh writable ``np.empty`` memory.  EOFError: the peer is gone, maybe mid-message."""
    fd = conn.fileno()
    count, head = struct.unpack("!QQ", _read(fd, 16))
    sizes = _read(fd, 8 * count + head)
    buffers = [np.empty(n, np.uint8) for n in struct.unpack_from(f"!{count}Q", sizes)]
    return [memoryview(sizes)[8 * count:], *_transfer(os.readv, fd, buffers)] if head else []


def _read(fd: int, nbytes: int) -> bytes:
    """``nbytes`` off ``fd``, in one ``read`` when they are all there."""
    data = os.read(fd, nbytes)
    if len(data) < nbytes:
        data += _transfer(os.readv, fd, [np.empty(nbytes - len(data), np.uint8)])[0].tobytes()
    return data


def _transfer(io, fd: int, buffers: list) -> list:
    """``buffers``, once ``io`` (``os.readv`` / ``os.writev``) has moved all of them."""
    views = [memoryview(buffer) for buffer in buffers if len(buffer)]
    while views:
        moved = io(fd, views[:1024])  # IOV_MAX
        if not moved:
            raise EOFError
        while views and moved >= len(views[0]):
            moved -= len(views.pop(0))
        if moved:
            views[0] = views[0][moved:]
    return buffers


# -- the parent side ----------------------------------------------------------------


class Worker:
    """One owned worker process, the parent's end of its pipe, what it still ``holds``
    of what it was sent (a fresh one: nothing), and if :func:`wait` found it ``readable``."""

    __slots__ = ("process", "conn", "holds", "readable")

    def __init__(self, handler, name: str):
        self.conn, child_conn = _pipe()
        self.process = start_process(_serve, (child_conn, handler), name=name,
                                     inherited=(self.conn,))
        child_conn.close()  # the worker's end lives in the worker only
        self.holds: dict = {}
        self.readable = False

    def send(self, frames) -> bool:
        """Send one message's frames (:func:`pack`; ``[]``: stop); False if
        the worker is already dead (its sentinel reports the loss)."""
        try:
            send_frames(self.conn, frames)
        except OSError:
            return False
        return True

    def receive(self):
        """The reply :func:`wait` found, or ``None`` (died without or while sending one)."""
        readable, self.readable = self.readable, False
        try:
            return unpack(recv_frames(self.conn)) if readable else None
        except (EOFError, OSError):
            return None

    def call(self, message):
        """Send one message and wait for its reply (``None``: the worker died)."""
        self.send(pack(message))
        wait([self])
        return self.receive()

    def stop(self, timeout: float | None = 0.0) -> int | None:
        code = stop_process(self.process, timeout)
        self.conn.close()  # after: a worker finishing its task can still reply
        return code


def _wait(objects, timeout: float | None = None) -> list:
    """The pipes and sentinels among ``objects`` that are ready, by one ``poll``."""
    fds, poller = {o if isinstance(o, int) else o.fileno(): o for o in objects}, select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    ms = None if timeout is None else math.ceil(timeout * 1e3)
    return [fds[fd] for fd, _ in poller.poll(ms)]


def wait(workers, timeout: float | None = None) -> list[Worker]:
    """The workers with a reply to read or a death to report, each ``readable`` if its pipe
    is (a reply's one readiness check); empty when ``timeout`` seconds pass first."""
    owner = {w.conn: w for w in workers} | {w.process.sentinel: w for w in workers}
    ready = _wait(list(owner), timeout)
    for worker in workers:
        worker.readable = worker.conn in ready
    return list(dict.fromkeys(owner[r] for r in ready))


def _pipe() -> tuple[Connection, Connection]:
    """Both ends of a duplex pipe: a socketpair, as ``multiprocessing.Pipe``
    makes one, with ``_PIPE_BYTES`` buffers."""
    ends = socket.socketpair()
    for end in ends:
        end.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _PIPE_BYTES)
        end.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _PIPE_BYTES)
    return Connection(ends[0].detach()), Connection(ends[1].detach())


def halt(workers, segments: list, lock: threading.Lock) -> None:
    """A pool's exit halt: ask every worker to stop, stop each (killed
    after ``_STOP_SECONDS``), unlink ``segments``."""
    with lock:
        for worker in workers:
            worker.send([])
        for worker in workers:
            worker.stop(_STOP_SECONDS)
        while segments:
            unlink_segment(segments.pop())


class Pool:
    """``size`` owned workers, worker ``i`` named ``<name>-<i>``, each
    serving a fresh ``handler()`` on its own pipe.  Every replacement
    counts one ``replaced`` in ``telemetry``."""

    def __init__(self, handler, size: int, *, name: str, telemetry, replaced: str):
        resource_tracker.ensure_running()  # one tracker for the segments workers create
        self._handler, self._name = handler, name
        self._telemetry, self._replaced = telemetry, replaced
        self._lock = threading.Lock()
        self.workers = [Worker(handler, f"{name}-{i}") for i in range(size)]
        self._segments: list[shared_memory.SharedMemory] = []  # at most one
        self._halt = Finalize(self, halt, args=(self.workers, self._segments, self._lock),
                              exitpriority=10)

    @property
    def closed(self) -> bool:
        return not self._halt.still_active()

    def worker(self, index: int) -> Worker:
        """Worker ``index``, replaced first if it died since its last reply."""
        if self.closed:
            raise RuntimeError(f"{self._name} pool is closed")
        if not self.workers[index].process.is_alive():
            self.replace(index)
        return self.workers[index]

    def replace(self, index: int) -> int | None:
        """Kill and reap worker ``index``, fork a fresh one in its place
        unless the pool is closed, and return the old one's exit code."""
        with self._lock:
            code = self.workers[index].stop()
            self._telemetry.inc(self._replaced)
            if not self.closed:
                self.workers[index] = Worker(self._handler, f"{self._name}-{index}")
        return code

    def segment(self, nbytes: int) -> shared_memory.SharedMemory:
        """The pool's one input segment, at least ``nbytes`` long: kept
        while it fits, otherwise replaced (the old one unlinked at once);
        unlinked when the pool closes."""
        held = self._segments
        if not held or held[0].size < nbytes:
            while held:
                unlink_segment(held.pop())
            held.append(create_segment(nbytes))
        return held[0]

    def close(self) -> None:
        """Stop every worker (asked, then killed after ``_STOP_SECONDS``)."""
        self._halt()


# -- segments ---------------------------------------------------------------------


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A new segment of at least ``nbytes``, named for the process that
    creates it."""
    return shared_memory.SharedMemory(
        name=f"smart_{os.getpid()}_{secrets.token_hex(4)}", create=True, size=max(nbytes, 1))


def unlink_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a view still maps it
        pass  # unmapped when that view goes
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already reclaimed
        pass


def view(held: dict, name: str, shape, dtype) -> np.ndarray:
    """Worker side: a read-only array over segment ``name``, which another
    process created and unlinks.  The segment is mapped on first use and
    kept in ``held`` until :func:`detach`."""
    segment = held.get(name)
    if segment is None:
        # Untracked: on Python < 3.13 attaching registers the segment, and
        # this process's tracker would warn about it and unlink it at exit.
        register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = held[name] = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    array.flags.writeable = False
    return array


def detach(held: dict, names) -> None:
    """Unmap the segments ``names`` from ``held`` (views of them must be gone)."""
    for name in names:
        segment = held.pop(name, None)
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a result still views it
                pass  # unmapped when that view goes
