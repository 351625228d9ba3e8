"""Process-engine supervision: worker kill/hang, recovery, shm hygiene."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analytics.histogram import Histogram
from repro.analytics.kmeans import KMeans
from repro.core import EnginePolicy, ExecutionPolicy
from repro.faults import EngineFaultError, FaultPlan, FaultPolicy, FaultSpec
from tests.shm import own_segments

DIMS = 3
#: The test process: a self-destructing callback that finds itself
#: running here (thread 0 is the driver) must not kill the test run.
TEST_PID = os.getpid()


@pytest.fixture
def kmeans_inputs(rng):
    points = rng.normal(size=(3000, DIMS)).ravel()
    centroids = rng.normal(size=(4, DIMS))
    return points, centroids


def kmeans_policy(centroids, fault="fail_fast"):
    """Thread 0 is the driver, so a 2-thread team has one worker and one
    worker task per iteration: ``at_call=1`` is thread 1's split in
    iteration 2 of 3."""
    return ExecutionPolicy(
        engine=EnginePolicy(backend="process", num_threads=2),
        chunk_size=DIMS,
        extra_data=centroids,
        num_iters=3,
        fault=fault,
    )


def centroids_of(result):
    return np.stack([result[k].centroid for k in sorted(result.keys())])


def run_kmeans(points, centroids, plan=None, policy="fail_fast"):
    sched = KMeans(kmeans_policy(centroids, policy), dims=DIMS)
    sched.fault_plan = plan
    with sched:
        result = sched.run(points)
    snap = sched.telemetry_snapshot()
    return centroids_of(result), snap["counters"], snap["timers"]


class TestWorkerKill:
    def test_retry_is_bit_exact(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        clean, _, _ = run_kmeans(points, centroids)
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)])
        cents, counters, timers = run_kmeans(
            points, centroids, plan, FaultPolicy.retry(backoff=0.01)
        )
        assert np.array_equal(clean, cents)
        assert counters["faults.injected.engine.kill"] == 1
        assert counters["faults.detected.worker_dead"] == 1
        assert counters["faults.retries"] == 1
        assert timers["faults.recovery_seconds"]["calls"] >= 1

    def test_degrade_drops_and_completes(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)])
        _, counters, _ = run_kmeans(points, centroids, plan, "degrade")
        assert counters["faults.dropped_splits"] >= 1
        assert counters["faults.detected.worker_dead"] == 1

    def test_fail_fast_raises_engine_fault(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)])
        with pytest.raises(EngineFaultError):
            run_kmeans(points, centroids, plan)

    def test_retry_exhaustion_reraises(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        # the fault strikes every dispatch, out-living two attempts
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=0, times=10)])
        with pytest.raises(EngineFaultError):
            run_kmeans(
                points,
                centroids,
                plan,
                FaultPolicy.retry(max_attempts=2, backoff=0.01),
            )


class TestWorkerHang:
    def test_hang_detected_and_replayed(self, kmeans_inputs):
        points, centroids = kmeans_inputs
        clean, _, _ = run_kmeans(points, centroids)
        plan = FaultPlan([FaultSpec("engine", "hang", at_call=1, seconds=30.0)])
        cents, counters, _ = run_kmeans(
            points,
            centroids,
            plan,
            FaultPolicy.retry(backoff=0.01, task_deadline=0.5),
        )
        assert np.array_equal(clean, cents)
        assert counters["faults.detected.worker_hung"] == 1


def assert_leaves_nothing_behind(points, centroids, plan, policy, raises=None):
    """One faulty run on a scheduler that is then run again: no shm
    entry appears, no child process outlives ``close()``, and the second
    (fault-free) run is bit-exact with a scheduler that never failed."""
    clean, _, _ = run_kmeans(points, centroids)
    before = own_segments()
    sched = KMeans(kmeans_policy(centroids, policy), dims=DIMS)
    sched.fault_plan = plan
    with sched:
        if raises is not None:
            with pytest.raises(raises):
                sched.run(points)
        else:
            sched.run(points)
        sched.reset()
        again = sched.run(points)
    assert own_segments() == before
    assert multiprocessing.active_children() == []
    assert np.array_equal(clean, centroids_of(again))


class TestShmHygiene:
    """The engine's only shared memory is its input segments and its only
    children are its workers; every way a block can end releases both."""

    def kill(self):
        return FaultPlan([FaultSpec("engine", "kill", at_call=1)])

    def test_worker_crash_leaks_no_segments(self, kmeans_inputs):
        assert_leaves_nothing_behind(
            *kmeans_inputs, self.kill(), FaultPolicy.retry(backoff=0.01))

    def test_degraded_crash_leaks_no_segments(self, kmeans_inputs):
        assert_leaves_nothing_behind(*kmeans_inputs, self.kill(), "degrade")

    def test_fail_fast_crash_leaks_no_segments(self, kmeans_inputs):
        assert_leaves_nothing_behind(
            *kmeans_inputs, self.kill(), "fail_fast", raises=EngineFaultError)

    def test_hang_leaks_no_segments(self, kmeans_inputs):
        plan = FaultPlan([FaultSpec("engine", "hang", at_call=1, seconds=30.0)])
        assert_leaves_nothing_behind(
            *kmeans_inputs, plan,
            FaultPolicy.retry(backoff=0.01, task_deadline=0.5))

    def test_healthy_run_leaks_no_segments(self, kmeans_inputs):
        assert_leaves_nothing_behind(*kmeans_inputs, None, "fail_fast")


class TestHealthyFastPath:
    def test_policy_alone_routes_through_supervisor(self, kmeans_inputs):
        """``retry`` with no fault equals ``fail_fast``: there is one
        dispatch loop, and a policy that never fires changes nothing."""
        points, centroids = kmeans_inputs
        clean, clean_counters, _ = run_kmeans(points, centroids)
        cents, counters, _ = run_kmeans(
            points, centroids, None, FaultPolicy.retry(backoff=0.01)
        )
        assert np.array_equal(clean, cents)
        assert not any(k.startswith("faults.") for k in clean_counters | counters)


class SelfDestructHistogram(Histogram):
    """SIGKILLs its own worker — what the OOM killer does — on the split
    that does not start the partition, while the flag file exists."""

    flag = None

    def batch_reduce(self, data, start, stop, acc):
        if start > 0 and self.flag.exists() and os.getpid() != TEST_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        super().batch_reduce(data, start, stop, acc)


class TestRealWorkerDeath:
    def test_default_policy_raises_and_the_scheduler_stays_usable(
        self, rng, tmp_path
    ):
        """No plan, default ``fail_fast``: a worker killed from outside
        the framework surfaces as EngineFaultError, not a hang, and the
        same scheduler's next run is bit-exact with a serial one."""
        data = rng.uniform(0, 1, 8000)
        flag = tmp_path / "armed"
        flag.touch()
        outcome = {}

        def body():
            sched = SelfDestructHistogram(
                ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2)),
                lo=0.0, hi=1.0, num_buckets=8,
            )
            sched.flag = flag
            out = np.zeros(8)
            with sched:
                try:
                    sched.run(data, out)
                except EngineFaultError as exc:
                    outcome["error"] = exc
                outcome["counters"] = sched.telemetry_snapshot()["counters"]
                flag.unlink()
                sched.reset()
                sched.run(data, out)
            outcome["out"] = out

        # On a helper thread, so a regression fails here instead of
        # wedging the whole suite.
        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), "run() hung on a dead worker"
        assert isinstance(outcome.get("error"), EngineFaultError)
        assert outcome["counters"]["faults.detected.worker_dead"] == 1
        serial = Histogram(ExecutionPolicy(), lo=0.0, hi=1.0, num_buckets=8)
        expected = np.zeros(8)
        serial.run(data, expected)
        assert np.array_equal(outcome["out"], expected)


class TestIdleWorkerDeath:
    @pytest.mark.parametrize("fault", ["fail_fast", "degrade", "retry"])
    def test_a_worker_killed_between_runs_costs_nothing(self, rng, fault):
        """A worker SIGKILLed while idle is replaced before it is sent
        work, so the next run loses nothing under any policy."""
        data = rng.uniform(0, 1, 8000)
        expected = np.zeros(8)
        Histogram(ExecutionPolicy(), lo=0.0, hi=1.0, num_buckets=8).run(data, expected)
        policy = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2),
                                 fault=fault)
        out = np.zeros(8)
        with Histogram(policy, lo=0.0, hi=1.0, num_buckets=8) as app:
            app.run(data, out)
            victim = app.engine._pool.workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert not victim.is_alive()
            app.reset()
            out[:] = 0
            app.run(data, out)  # raised EngineFaultError before idle deaths were replaced
            counters = app.telemetry_snapshot()["counters"]
        assert np.array_equal(out, expected)
        assert not {"faults.dropped_splits", "faults.retries"} & counters.keys()
        assert counters["engine.residency.invalidations"] == 1


class SelfDestructKMeans(KMeans):
    """SIGKILLs its own worker the second time this run reduces the split
    starting at ``doomed_start`` (its block of iteration 2), once, while
    the flag file exists.  With ``skip=True`` it instead leaves that one
    split out: the serial oracle of a degraded run."""

    flag = None
    doomed_start = -1
    skip = False
    hits = 0

    def batch_reduce(self, data, start, stop, acc):
        if start == self.doomed_start:
            self.hits += 1
            if self.hits == 2 and self.skip:
                return
            if self.hits == 2 and self.flag.exists() and os.getpid() != TEST_PID:
                self.flag.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
        super().batch_reduce(data, start, stop, acc)


class TestReplacementSession:
    """A worker SIGKILLed in block 2 of 3 of iteration 2 of 3: its
    replacement holds nothing, so its first task carries everything.
    Three threads: the driver and two workers, so one survives."""

    BLOCK = 3000  # elements: 1000 points, 334 + 333 + 333 per thread
    DOOMED = 3000 + 1002  # thread 1's split of block 2

    def make(self, centroids, backend, fault, tmp_path, skip=False, doomed=DOOMED):
        policy = ExecutionPolicy(
            engine=EnginePolicy(backend=backend, num_threads=3),
            chunk_size=DIMS, extra_data=centroids, num_iters=3,
            block_size=self.BLOCK, fault=fault,
        )
        sched = SelfDestructKMeans(policy, dims=DIMS)
        sched.flag = tmp_path / "armed"
        sched.doomed_start, sched.skip = doomed, skip
        return sched

    def run_with_kill(self, points, centroids, fault, tmp_path, sent, doomed=DOOMED):
        sched = self.make(centroids, "process", fault, tmp_path, doomed=doomed)
        sched.flag.touch()
        with sched:
            original = list(sched.engine._pool.workers)
            first = centroids_of(sched.run(points))
            counters = sched.telemetry_snapshot()["counters"]
            assert not sched.flag.exists(), "the kill never fired"
            assert counters["faults.detected.worker_dead"] == 1
            # The replacement's first task carries all four parts: under
            # degrade its thread's map so far, under retry (a replayed
            # iteration starts over) the order to derive the seed.
            fresh = sched.engine._pool.workers[0]  # thread 1's, the doomed split's
            survivor = original[1]  # thread 2's
            assert fresh not in original and sched.engine._pool.workers[1] is survivor
            parts = next(parts for worker, _, parts in sent if worker is fresh)
            assert sorted(parts) == ["core", "delta", "header", "map"]
            assert isinstance(parts["map"], bytes if fault == "degrade" else type(None))
            # The survivor was never sent the core or the header again.
            again = [p for w, _, p in sent if w is survivor][1:]
            assert not any("core" in p or "header" in p for p in again)
            sched.reset()
            second = centroids_of(sched.run(points))
        assert multiprocessing.active_children() == []
        return first, second, counters

    def oracle(self, points, centroids, tmp_path, skip=False):
        with self.make(centroids, "serial", "fail_fast", tmp_path, skip) as sched:
            return centroids_of(sched.run(points))

    def test_retry_replays_bit_exact(self, kmeans_inputs, tmp_path, sent):
        points, centroids = kmeans_inputs
        clean = self.oracle(points, centroids, tmp_path)
        first, second, counters = self.run_with_kill(
            points, centroids, FaultPolicy.retry(backoff=0.01), tmp_path, sent)
        assert counters["faults.retries"] == 1
        assert np.array_equal(first, clean) and np.array_equal(second, clean)

    def test_retry_replay_restarts_a_worker_that_sat_the_lost_block_out(
        self, kmeans_inputs, tmp_path, sent
    ):
        """The last block holds two chunks, so thread 2 has no split in
        it; thread 1's worker dies there.  Thread 2's worker still holds
        its map of blocks 1-2 and must not go on from it in the replay
        (it would count those blocks twice)."""
        points, centroids = kmeans_inputs
        points = points[: 2 * self.BLOCK + 2 * DIMS]
        clean = self.oracle(points, centroids, tmp_path)
        first, second, counters = self.run_with_kill(
            points, centroids, FaultPolicy.retry(backoff=0.01), tmp_path, sent,
            doomed=2 * self.BLOCK + DIMS)
        assert counters["faults.retries"] == 1
        assert np.array_equal(first, clean) and np.array_equal(second, clean)
        # The replay's first block: both workers are told to derive the seed.
        at = max(i for i, (_, _, parts) in enumerate(sent) if "core" in parts)
        assert [parts["map"] for _, _, parts in sent[at:at + 2]] == [None, None]

    def test_degrade_drops_exactly_the_lost_split(self, kmeans_inputs, tmp_path, sent):
        points, centroids = kmeans_inputs
        first, second, counters = self.run_with_kill(
            points, centroids, "degrade", tmp_path, sent)
        assert counters["faults.dropped_splits"] == 1
        # Thread 1 went on from the map the parent held after block 1.
        assert np.array_equal(first, self.oracle(points, centroids, tmp_path, skip=True))
        assert np.array_equal(second, self.oracle(points, centroids, tmp_path))


class ForgetfulHistogram(Histogram):
    """A scalar-path application whose ``accumulate`` returns nothing."""

    def accumulate(self, chunk, data, red_obj, key):
        return None


class TestWorkerException:
    def test_type_and_message_survive_the_pipe(self, rng):
        sched = ForgetfulHistogram(
            ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2)),
            lo=0.0, hi=1.0, num_buckets=8,
        )
        with sched:
            with pytest.raises(TypeError, match=r"accumulate\(\) returned None"):
                sched.run(rng.uniform(0, 1, 64))
            # Thread 0 raised here and the worker replied (one reply
            # per message): the engine is still usable, and fails the
            # same way again.
            with pytest.raises(TypeError, match=r"accumulate\(\) returned None"):
                sched.run(rng.uniform(0, 1, 64))


class ThreadZeroRaises(Histogram):
    """Raises on the split that starts the partition, thread 0's, which
    the driving process reduces itself, while ``armed``."""

    armed = True

    def batch_reduce(self, data, start, stop, acc):
        if start == 0 and self.armed:
            raise ValueError("thread 0's callback failed")
        super().batch_reduce(data, start, stop, acc)


class TestThreadZero:
    def test_its_exception_waits_for_the_worker_reply(self, rng, monkeypatch):
        """Thread 0's ``ValueError`` comes out with its type once the
        in-flight worker reply has been read: the worker is neither
        replaced nor left with an unread reply, and the next run is
        bit-exact with the serial engine."""
        from repro.core import worker as runtime

        received, real_receive = [], runtime.Worker.receive

        def receive(worker):
            received.append(real_receive(worker))
            return received[-1]

        monkeypatch.setattr(runtime.Worker, "receive", receive)
        data = rng.uniform(0, 1, 8000)
        policy = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2))
        out = np.zeros(8)
        with ThreadZeroRaises(policy, lo=0.0, hi=1.0, num_buckets=8) as sched:
            with pytest.raises(ValueError, match="thread 0's callback failed"):
                sched.run(data, out)
            worker = sched.engine._pool.workers[0]
            assert len(received) == 1 and isinstance(received[0], tuple)
            assert not worker.conn.poll()
            sched.armed = False
            sched.reset()
            out[:] = 0
            sched.run(data, out)
            assert sched.engine._pool.workers[0] is worker
            counters = sched.telemetry_snapshot()["counters"]
        assert counters.get("engine.residency.invalidations", 0) == 0
        expected = np.zeros(8)
        serial = ExecutionPolicy(engine=EnginePolicy(num_threads=2))
        Histogram(serial, lo=0.0, hi=1.0, num_buckets=8).run(data, expected)
        assert np.array_equal(out, expected)

    def test_only_worker_tasks_draw_faults(self, kmeans_inputs, sent):
        """Three threads, three blocks, three iterations: every worker
        task draws one (harmless) fault and thread 0's splits none."""
        points, centroids = kmeans_inputs
        plan = FaultPlan([FaultSpec("engine", "hang", at_call=0, times=1000, seconds=0.0)])
        policy = kmeans_policy(centroids).evolve(
            engine=EnginePolicy(backend="process", num_threads=3), block_size=3000)
        sched = KMeans(policy, dims=DIMS)
        sched.fault_plan = plan
        with sched:
            sched.run(points)
            counters = sched.telemetry_snapshot()["counters"]
        worker_tasks = 2 * 3 * 3
        assert len(sent) == worker_tasks
        assert all(pickle.loads(message)[2] is not None for _, message, _ in sent)
        assert counters["faults.injected.engine.hang"] == plan.injected() == worker_tasks
        assert counters["engine.splits"] == 3 * 3 * 3


class TestQuietStderr:
    def test_large_returns_print_nothing(self):
        """Per-split maps over 64 KiB: the run exits 0 and stderr is
        empty (no resource-tracker traceback for a return segment)."""
        script = (
            "import numpy as np\n"
            "from repro.analytics import GridAggregation\n"
            "from repro.core import EnginePolicy, ExecutionPolicy\n"
            "policy = ExecutionPolicy(engine=EnginePolicy("
            "backend='process', num_threads=2))\n"
            "with GridAggregation(policy, grid_size=4) as app:\n"
            "    app.run(np.arange(400_000, dtype=np.float64))\n"
            "    assert len(app.get_combination_map()) == 100_000\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestHistogramDegrade:
    def test_degrade_mass_is_bounded(self, rng):
        """Dropping split contributions can only lose mass, never invent it."""
        data = rng.uniform(0, 1, 8000)
        args = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=2),
            chunk_size=1,
            fault="degrade",
        )
        sched = Histogram(args, lo=0.0, hi=1.0, num_buckets=8)
        # The block's one worker task: thread 1's split.
        sched.fault_plan = FaultPlan([FaultSpec("engine", "kill", at_call=0)])
        out = np.zeros(8)
        with sched:
            sched.run(data, out)
        counters = sched.telemetry_snapshot()["counters"]
        assert counters["faults.dropped_splits"] >= 1
        assert 0 < out.sum() < len(data)


class TestInterruptedBlock:
    def test_late_reply_never_answers_the_next_block(self, rng, monkeypatch):
        """Ctrl-C while the parent waits: the busy workers are replaced,
        so the next run cannot read the interrupted block's replies."""
        from repro.core import worker as runtime

        real_wait, calls = runtime._wait, []

        def interrupted_once(objects, timeout=None):
            calls.append(objects)
            if len(calls) == 1:
                pipes = [o for o in objects if not isinstance(o, int)]
                while len(real_wait(pipes)) < len(pipes):
                    pass  # both replies are in their pipes, unread
                raise KeyboardInterrupt
            return real_wait(objects, timeout)

        monkeypatch.setattr(runtime, "_wait", interrupted_once)
        first, second = rng.uniform(0, 1, 4000), rng.uniform(0, 1, 4000)
        sched = Histogram(
            ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2)),
            lo=0.0, hi=1.0, num_buckets=8,
        )
        out, expected = np.zeros(8), np.zeros(8)
        with sched:
            with pytest.raises(KeyboardInterrupt):
                sched.run(first, out)
            sched.reset()
            sched.run(second, out)
        Histogram(ExecutionPolicy(), lo=0.0, hi=1.0, num_buckets=8).run(second, expected)
        assert np.array_equal(out, expected)
        assert multiprocessing.active_children() == []
