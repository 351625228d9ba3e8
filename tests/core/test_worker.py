"""The owned-worker runtime: messages, one reply each, replacement, exit halt.

The process engine's workers, the service's seat processes and the
elastic tier's staging workers are clients of :mod:`repro.core.worker`;
these tests drive the runtime directly, and the interpreter-exit halt
through all three clients at once.  The process-rank mesh's use of the
same message helper is tested in ``tests/comm/test_contract.py``.
"""

import multiprocessing
import os
import platform
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.worker import (RING_SLACK, RING_WINDOW, Pool, Ring, create_segment, detach,
                               pack, unpack, view, wait, write_segment)
from repro.telemetry import Recorder
from tests.shm import own_segments


class NeedsTwoArguments(Exception):
    def __init__(self, code, reason):
        super().__init__(f"{code}: {reason}")


def explode():
    raise ValueError("cannot unpickle this")


class Unpicklable:
    """Pickles fine; unpickling it raises."""

    def __reduce__(self):
        return explode, ()


def die_mid_write():
    """From now on, this process writes half of its next write and dies."""
    real = os.writev

    def half(fd, buffers):
        stream = b"".join(buffers)
        real(fd, [stream[: len(stream) // 2]])
        os._exit(1)

    os.writev = half


class Echo:
    """Handler: replies with its message, raises on request, and keeps a
    segment it creates (the one named in the reply) until its process dies."""

    def __init__(self):
        self.segments = []

    def __call__(self, message):
        if isinstance(message, np.ndarray):  # as received: writable, aligned?
            return message, message.flags.writeable, message.flags.aligned
        if message == "die mid-reply":
            die_mid_write()
            return np.arange(1 << 18, dtype=np.float64)
        if message == "plain":
            raise ValueError("plain")
        if message == "needy":
            raise NeedsTwoArguments(7, "no")
        if message == "segment":
            self.segments.append(create_segment(64))
            return self.segments[-1].name
        if message == "hold my pipe":  # a child that keeps this worker's pipe open
            child = os.fork()
            if not child:
                for fd in map(int, os.listdir("/proc/self/fd")):
                    try:  # every inherited fd but the sockets: its sentinel's too
                        if not stat.S_ISSOCK(os.fstat(fd).st_mode) and fd > 2:
                            os.close(fd)
                    except OSError:
                        pass
                signal.pause()  # until killed
                os._exit(0)
            return child
        if message == "die":
            os._exit(1)
        return message


def call(pool, index, message):
    return pool.worker(index).call(message)


@pytest.fixture
def pool():
    pool = Pool(Echo, 2, name="test-echo", telemetry=Recorder(), replaced="replaced")
    yield pool
    pool.close()


def test_one_reply_per_message(pool):
    assert [call(pool, i, f"hello {i}") for i in (0, 1, 0)] == ["hello 0", "hello 1", "hello 0"]
    assert sorted(p.name for p in multiprocessing.active_children()) == ["test-echo-0",
                                                                         "test-echo-1"]


def spy_on_writes(monkeypatch) -> list:
    """Record what each ``os.writev`` in this process is given and moves."""
    writes = []
    real = os.writev

    def writev(fd, buffers):
        moved = real(fd, buffers)
        writes.append((list(buffers), moved))
        return moved

    monkeypatch.setattr(os, "writev", writev)
    return writes


def test_out_of_band_buffers_are_sent_from_where_they_lie(pool, monkeypatch):
    """A contiguous array crosses as an out-of-band buffer written from
    the sender's own memory, after a header frame of under 1 KiB; a
    non-contiguous one travels inside the pickle.  Both arrive equal."""
    big = np.arange(1 << 18, dtype=np.float64)  # 2 MiB
    strided = np.arange(40.0)[3::4]
    frames = pack((big, strided))
    assert len(frames) == 2 and len(frames[0]) < 1024  # the 2 MiB are not in the pickle
    worker = pool.worker(0)
    writes = spy_on_writes(monkeypatch)
    assert worker.send(frames)
    monkeypatch.undo()
    assert sum(moved for _, moved in writes) - big.nbytes < 1024
    assert any(np.shares_memory(np.frombuffer(buf, np.uint8), big)  # not copied to be sent
               for buffers, _ in writes for buf in buffers)
    assert wait([worker]) == [worker]
    got_big, got_strided = worker.receive()
    assert np.array_equal(got_big, big) and np.array_equal(got_strided, strided)


def test_arrays_arrive_in_fresh_writable_memory(pool):
    """Both ways, a received array is equal to the one sent, writable,
    aligned and the receiver's own."""
    big = np.arange(1 << 18, dtype=np.float64)
    echoed, writable, aligned = call(pool, 0, big)
    assert writable and aligned  # in the worker
    assert np.array_equal(echoed, big) and echoed.flags.writeable and echoed.flags.aligned
    assert not np.shares_memory(echoed, big)
    echoed[0] = -1.0
    assert big[0] == 0.0


def test_a_message_that_fails_to_unpickle_leaves_the_next_one_intact(pool):
    """Every frame of a message is read before it is unpickled, so one
    that raises part-way (its array buffer not yet asked for) does not
    leave that buffer to be read as the next message."""
    big = np.arange(1 << 18, dtype=np.float64)
    worker = pool.worker(0)
    assert worker.send(pack((Unpicklable(), big)))
    assert worker.send(pack(("after", big[:4])))
    wait([worker])
    failed = worker.receive()
    assert type(failed) is ValueError and str(failed) == "cannot unpickle this"
    wait([worker])
    after, head = worker.receive()
    assert after == "after" and np.array_equal(head, big[:4])
    assert call(pool, 0, "still serving") == "still serving"


def test_a_worker_killed_mid_reply_is_a_death_not_a_hang(pool):
    """A worker that dies half-way through writing a 2 MiB reply reads as
    dead (no reply), and is replaced before its next message."""
    dead = pool.workers[0].process
    assert call(pool, 0, "die mid-reply") is None
    dead.join(timeout=30)
    assert dead.exitcode == 1
    assert call(pool, 0, "after") == "after"
    assert pool._telemetry.counter("replaced") == 1


CHURN = """
import resource
import numpy as np
from repro.core.worker import Pool
from repro.telemetry import Recorder


def churn(message):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(1 << 17) for _ in range(6)]  # 6 x 1 MiB, freed
    del blocks
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


pool = Pool(lambda: churn, 1, name="test-churn", telemetry=Recorder(), replaced="replaced")
print(*(pool.worker(0).call(None) for _ in range(4)))
pool.close()
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc limits")
def test_a_workers_task_temporaries_stay_on_its_heap():
    """A worker keeps the memory its tasks free: 6 MiB of 1 MiB blocks,
    allocated again, are not faulted back in.  At glibc's defaults the
    first task's frees raise the limits only to 1 MiB blocks and 2 MiB
    of free heap, so each later task faulted ~1 500 pages back in.  A
    fresh interpreter, so no earlier test has raised the limits."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run([sys.executable, "-c", CHURN], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, *later = map(int, proc.stdout.split())
    assert first > 1000 and max(later) < 20, (first, later)


def test_a_death_found_by_the_sentinel_alone_is_not_read(pool):
    """A worker that dies without replying while a child of its own still
    holds its pipe open is found by its sentinel alone: the pipe is not
    readable, so ``receive()`` returns None at once instead of reading a
    pipe that would block until that child exits."""
    worker = pool.worker(0)
    holder = worker.call("hold my pipe")
    try:
        assert worker.send(pack("die"))
        worker.process.join(timeout=30)
        assert wait([worker], timeout=30) == [worker]
        assert not worker.readable
        assert worker.receive() is None
    finally:
        os.kill(holder, signal.SIGKILL)
    assert call(pool, 0, "after") == "after"  # replaced before its next message


def test_exceptions_come_back_with_their_type_or_as_runtime_error(pool):
    plain = call(pool, 0, "plain")
    assert type(plain) is ValueError and str(plain) == "plain"
    assert any(note.startswith("worker traceback:") for note in plain.__notes__)
    # Its constructor takes other arguments than its args: it cannot be
    # rebuilt in the parent, so it comes back named in a RuntimeError.
    needy = call(pool, 0, "needy")
    assert type(needy) is RuntimeError and str(needy) == "NeedsTwoArguments: 7: no"
    assert any("NeedsTwoArguments" in note for note in needy.__notes__)
    assert call(pool, 0, "still serving") == "still serving"


def test_a_worker_found_dead_before_a_message_is_replaced_first(pool):
    dead = pool.workers[0].process
    os.kill(dead.pid, signal.SIGKILL)
    dead.join(timeout=30)
    assert not dead.is_alive()
    assert call(pool, 0, "after") == "after"
    assert pool.workers[0].process.pid != dead.pid
    assert pool._telemetry.counter("replaced") == 1


@pytest.mark.skipif(not Path("/dev/shm").is_dir(), reason="needs /dev/shm")
def test_replace_unlinks_the_segments_a_dead_worker_left(pool):
    name = call(pool, 1, "segment")
    assert name.startswith(f"smart_{pool.workers[1].process.pid}_")
    assert (Path("/dev/shm") / name).exists()
    os.kill(pool.workers[1].process.pid, signal.SIGKILL)
    assert pool.replace(1) == -signal.SIGKILL
    assert not (Path("/dev/shm") / name).exists()


def test_replace_after_close_forks_nothing(pool):
    pids = [worker.process.pid for worker in pool.workers]
    pool.close()
    assert pool.closed and multiprocessing.active_children() == []
    assert pool.replace(0) == 0  # it stopped when asked
    assert multiprocessing.active_children() == []
    assert [worker.process.pid for worker in pool.workers] == pids
    with pytest.raises(RuntimeError, match="closed"):
        pool.worker(1)


@pytest.fixture
def ring():
    before = own_segments()
    ring = Ring(3)
    yield ring
    ring.close()
    assert own_segments() == before


class TestRing:
    """The one ring: slot placement, remaking to fit, shrinking back, closing."""

    def test_frames_land_at_64_byte_aligned_slot_offsets(self, ring):
        assert ring.bound(100) == 1  # no segment yet: the first frame makes it
        assert [ring.place(seq, 100) for seq in range(5)] == [0, 128, 256, 0, 128]
        assert ring.slot == 128 and ring.segment.size == 3 * 128
        assert ring.bound(100) == ring.bound(128) == 3 and ring.bound(129) == 1
        frame = np.arange(12, dtype=np.float64)[::-1]  # strided: written as a C-order copy
        write_segment(ring.segment, ring.place(5, frame.nbytes), frame)
        held = {}
        assert np.array_equal(view(held, ring.segment.name, (12,), np.float64, 256), frame)
        detach(held, list(held))

    def test_a_frame_that_does_not_fit_remakes_the_segment(self, ring):
        ring.place(0, 64)
        old = ring.segment.name
        assert ring.place(1, 65) == 128
        assert ring.segment.name != old and ring.slot == 128
        assert old not in own_segments() and ring.segment.name in own_segments()

    def test_alternating_sizes_remake_once_then_never(self, ring):
        """1x, 3x, 1x, ...: made for the first, remade for the second, then
        kept (a 3x slot is within ``RING_SLACK`` of the 3x frames)."""
        names = []
        for seq in range(4 * RING_WINDOW):
            ring.place(seq, 3072 if seq % 2 else 1024)
            names.append(ring.segment.name)
        assert names[0] != names[1] and set(names[1:]) == {names[1]} and ring.slot == 3072

    def test_a_run_of_small_frames_shrinks_the_slot(self, ring):
        large, small = 64 * 1024, 1000
        assert large > RING_SLACK * 1024
        ring.place(0, large)
        for seq in range(1, RING_WINDOW):  # the large frame is still among the last 8
            ring.place(seq, small)
            assert ring.slot == large
        assert ring.bound(small) == 1  # the 8th small frame remakes the segment
        ring.place(RING_WINDOW, small)
        assert ring.slot == 1024 and ring.segment.size == 3 * 1024

    def test_close_is_idempotent_and_unlinks(self, ring):
        before = own_segments()
        assert ring.place(0, 0) == 0 and ring.slot == 64  # an empty frame has a slot too
        name = ring.segment.name
        assert own_segments() == before | {name}
        ring.close()
        ring.close()
        assert own_segments() == before and ring.segment is None and ring.slot == 0


EXIT_WITH_EVERYTHING_OPEN = """
import multiprocessing
import os
import numpy as np
from repro.analytics import Histogram
from repro.core import ElasticTier, EnginePolicy, ExecutionPolicy
from repro.service import AnalyticsService, JobSpec

app = Histogram(ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=3)),
                lo=-4.0, hi=4.0, num_buckets=8)
app.run(np.linspace(-3.0, 3.0, 1000))
tier = ElasticTier(lambda: Histogram(ExecutionPolicy(), lo=-4.0, hi=4.0, num_buckets=8), 1)
tier.submit(np.linspace(-3.0, 3.0, 1000))
svc = AnalyticsService(workers=2)
svc.register_step("s", np.linspace(-3.0, 3.0, 100_000))
for job in range(48):
    svc.submit(JobSpec(tenant=f"t{job % 4}", workload="histogram", step="s"))
svc.start()
print(os.getpid(), *(child.pid for child in multiprocessing.active_children()))
"""


def gone(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return True
    return state == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_exit_halts_an_open_engine_and_an_open_service():
    """Neither the scheduler, the staging tier nor the service (with a
    registered step) is closed: the interpreter still exits, and takes
    every worker it started and every segment it made with it."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_WITH_EVERYTHING_OPEN], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "leaked shared_memory" not in proc.stderr
    parent, *children = (int(pid) for pid in proc.stdout.split())
    assert len(children) == 5  # two engine workers, a staging worker, two seats
    assert all(gone(pid) for pid in children)
    shm = Path("/dev/shm")
    assert [p.name for pid in (parent, *children) for p in shm.glob(f"smart_{pid}_*")] == []


@pytest.mark.parametrize("array", [
    np.arange(12.0), np.arange(12, dtype=">i4").reshape(3, 4), np.array(3.5),
    np.zeros((0, 4)), np.asfortranarray(np.arange(6.0).reshape(2, 3)), np.arange(20)[::3],
    np.array([True, False]), np.array([0, 1, 2], dtype="datetime64[ns]"), np.array([1 + 2j]),
    np.zeros(3, dtype=[("total", "f8"), ("sums", "f8", (2,)), ("count", "i8")]),
    np.array([None, "x"], dtype=object), np.array(["ab", "c"]),
], ids=lambda a: f"{a.dtype}{a.shape}")
def test_every_array_crosses_a_message_whole(array):
    """Dtype, shape, order-independent contents and a writable copy arrive,
    whatever the layout (a C-contiguous one out of band, as bytes)."""
    frames = pack({"a": array})
    got = unpack([frames[0], *(np.frombuffer(bytes(f), np.uint8).copy() for f in frames[1:])])["a"]
    assert type(got) is np.ndarray and got.dtype == array.dtype and got.shape == array.shape
    assert np.array_equal(got, array) and got.flags.writeable
    if array.flags.c_contiguous and not array.dtype.hasobject:
        assert len(frames) == 2
