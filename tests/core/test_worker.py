"""The owned-worker runtime: one reply per message, replacement, exit halt.

The process engine's workers, the service's seat processes and the
elastic tier's staging workers are clients of :mod:`repro.core.worker`;
these tests drive the runtime directly, and the interpreter-exit halt
through all three clients at once.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from repro.core.worker import Pool, create_segment, wait
from repro.telemetry import Recorder


class NeedsTwoArguments(Exception):
    def __init__(self, code, reason):
        super().__init__(f"{code}: {reason}")


class Echo:
    """Handler: replies with its message, raises on request, and keeps a
    segment it creates (the one named in the reply) until its process dies."""

    def __init__(self):
        self.segments = []

    def __call__(self, message):
        if message == "plain":
            raise ValueError("plain")
        if message == "needy":
            raise NeedsTwoArguments(7, "no")
        if message == "segment":
            self.segments.append(create_segment(64))
            return self.segments[-1].name
        return message


def call(pool, index, message):
    return pool.worker(index).call(pickle.dumps(message))


@pytest.fixture
def pool():
    pool = Pool(Echo, 2, name="test-echo", telemetry=Recorder(), replaced="replaced")
    yield pool
    pool.close()


def test_one_reply_per_message(pool):
    assert [call(pool, i, f"hello {i}") for i in (0, 1, 0)] == ["hello 0", "hello 1", "hello 0"]
    assert sorted(p.name for p in multiprocessing.active_children()) == ["test-echo-0",
                                                                         "test-echo-1"]


def test_out_of_band_buffers_are_sent_from_where_they_lie(pool, monkeypatch):
    """A contiguous array pickled with protocol 5 crosses as an
    out-of-band buffer written from the sender's own memory; a
    non-contiguous one travels inside the pickle.  Both arrive equal."""
    written = []
    real = Connection.send_bytes

    def send_bytes(conn, buf, *args):
        written.append(buf)
        return real(conn, buf, *args)

    big = np.arange(1 << 18, dtype=np.float64)  # 2 MiB
    strided = np.arange(40.0)[3::4]
    buffers = []
    message = pickle.dumps((big, strided), protocol=5, buffer_callback=buffers.append)
    worker = pool.worker(0)
    monkeypatch.setattr(Connection, "send_bytes", send_bytes)
    assert worker.send(message, [buffer.raw() for buffer in buffers])
    monkeypatch.undo()
    assert wait([worker]) == [worker]
    got_big, got_strided = worker.receive()
    assert np.array_equal(got_big, big) and np.array_equal(got_strided, strided)
    assert [len(buf) for buf in written] == [len(message), big.nbytes]
    assert len(message) < 1024  # the 2 MiB are not in the pickle
    assert np.shares_memory(np.frombuffer(written[1], np.uint8), big)  # nor copied to be sent


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
