"""Elastic in-transit tier: supervised staging workers on the worker runtime.

Covers the recovery state machine end to end with real forked worker
processes: retry recovers bit-exactly from kills, hangs, and
disconnects; degrade conserves mass with exact loss accounting;
``scale_to`` grows and shrinks the pool without changing the result; a
corrupted snapshot falls back to the previous CRC-good one.
"""

import functools
import os
import socket
import time

import numpy as np
import pytest

from repro.analytics.histogram import Histogram
from repro.core import ElasticTier, EnginePolicy, ExecutionPolicy, StagingWorkerError
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.telemetry import Recorder

SEED = 2015
BUCKETS = 16
N_POINTS = 6_000
N_PARTS = 12

# Window without ack progress before a worker is declared suspect; kept
# tight so hang-recovery tests finish quickly, but an order of magnitude
# above a healthy frame's processing time.
SUSPECT_TIMEOUT = 1.0

# A hang injection longer than any test's total runtime: recovery must
# come from supervision, never from the sleep expiring.
HANG_SECONDS = 60.0


def factory():
    return Histogram(ExecutionPolicy(engine=EnginePolicy(num_threads=1)), None,
                     lo=-4.0, hi=4.0, num_buckets=BUCKETS)


def counts(result) -> np.ndarray:
    return np.array([obj.count for _, obj in result.sorted_items()],
                    dtype=np.int64)


@pytest.fixture(scope="module")
def partitions():
    rng = np.random.default_rng(SEED)
    points = rng.normal(size=N_POINTS)
    return [np.ascontiguousarray(p) for p in np.array_split(points, N_PARTS)]


@pytest.fixture(scope="module")
def baseline(partitions):
    sched = factory()
    sched.set_global_combination(False)
    with sched:
        for part in partitions:
            sched.run(part)
        return counts(sched.get_combination_map())


def run_tier(partitions, workers=3, **kw):
    kw.setdefault("worker_timeout", SUSPECT_TIMEOUT)
    with ElasticTier(factory, workers, **kw) as tier:
        for part in partitions:
            tier.submit(part)
        return counts(tier.drain())


class TestHealthy:
    def test_matches_local_run_bit_exact(self, partitions, baseline):
        telemetry = Recorder()
        result = run_tier(partitions, telemetry=telemetry)
        assert np.array_equal(result, baseline)
        snap = telemetry.snapshot()["counters"]
        assert snap["elastic.frames_forwarded"] == N_PARTS
        assert "faults.retries" not in snap

    def test_single_worker(self, partitions, baseline):
        assert np.array_equal(run_tier(partitions, workers=1), baseline)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ElasticTier(factory, 0)


class _Recording(Histogram):
    """Staging scheduler that saves each received partition, as received,
    to ``<folder>/<arrival index>.npy`` instead of reducing it."""

    folder = None  # set per test; inherited by the forked workers

    def run(self, data, out=None):
        np.save(self.folder / f"{len(list(self.folder.iterdir()))}.npy", data)


def _recording_factory():
    return _Recording(
        ExecutionPolicy(engine=EnginePolicy(num_threads=1)),
        None, lo=0.0, hi=1.0, num_buckets=2,
    )


class _Aligned(_Recording):
    def run(self, data, out=None):
        if not data.flags.aligned:
            raise ValueError("misaligned partition")
        super().run(data, out)


def _aligned_factory():
    return _Aligned(
        ExecutionPolicy(engine=EnginePolicy(num_threads=1)),
        None, lo=0.0, hi=1.0, num_buckets=2,
    )


_RECORD = np.dtype([("id", "<i4"), ("value", "<f8"), ("tag", "S3")])

ARRAYS = {
    "float64": np.linspace(-1.0, 1.0, 37),
    "strided-view": np.arange(40.0)[3::4],
    "reversed-view": np.arange(9, dtype=np.int32)[::-1],
    "fortran-2d": np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    "transposed-3d": np.arange(24, dtype=np.int16).reshape(2, 3, 4).transpose(2, 0, 1),
    "zero-d": np.array(3.5),
    "empty-1d": np.empty(0),
    "empty-2d": np.empty((0, 3), dtype=np.int32),
    "big-endian": np.arange(6, dtype=">f4"),
    "bool": np.array([[True, False], [False, True]]),
    "complex": np.array([1 + 2j, 3 - 4j]),
    "uint8": np.arange(5, dtype=np.uint8),
    "bytes": np.array([b"ab", b"cde"]),
    "unicode": np.array(["x", "yz"]),
    "datetime": np.array(["2015-11-15", "2026-10-02"], dtype="M8[D]"),
    "record": np.array([(1, 0.5, b"abc"), (2, -1.5, b"de")], dtype=_RECORD),
    "list": [[1, 2, 3], [4, 5, 6]],
}


class TestPartitionPayload:
    """``submit`` ships an array as descriptor + raw bytes: the worker
    must see the dtype, shape and values the caller had."""

    def test_roundtrip_matrix(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_Recording, "folder", tmp_path)
        telemetry = Recorder()
        with ElasticTier(_recording_factory, 1, telemetry=telemetry) as tier:
            for arr in ARRAYS.values():
                tier.submit(arr)
            tier.drain()  # quiescent: every frame processed
        for index, (name, arr) in enumerate(ARRAYS.items()):
            want = np.asarray(arr)
            got = np.load(tmp_path / f"{index}.npy")
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name  # C-order values
        # payload bytes = the data plus each message's pickle
        data = sum(np.asarray(a).nbytes for a in ARRAYS.values())
        moved = telemetry.snapshot()["counters"]["elastic.bytes_forwarded"]
        assert data < moved <= data + 256 * len(ARRAYS)

    def test_worker_array_is_aligned(self, tmp_path, monkeypatch):
        """The worker reduces an aligned array: a misaligned one would
        fail the message, and fail_fast would raise at the drain."""
        monkeypatch.setattr(_Recording, "folder", tmp_path)
        with ElasticTier(_aligned_factory, 1) as tier:
            for arr in (np.arange(7.0), np.ones((3, 5), dtype=np.complex128)):
                tier.submit(arr)
            tier.drain()
        assert len(list(tmp_path.iterdir())) == 2

    @pytest.mark.parametrize(
        "arr",
        [np.array([1, "a", None], dtype=object),
         np.zeros(2, dtype=[("n", "<i4"), ("ref", "O")])],
        ids=["object", "record-with-object"],
    )
    def test_object_dtype_is_refused(self, partitions, baseline, arr):
        with ElasticTier(factory, 1) as tier:
            with pytest.raises(TypeError, match="object|'O'"):
                tier.submit(arr)
            for part in partitions:  # and the tier is none the worse
                tier.submit(part)
            assert np.array_equal(counts(tier.drain()), baseline)


def _retained(tier):
    """Every payload buffer the coordinator's replay logs hold."""
    return [buf for w in tier._workers.values() for _seq, kept, _n in w.log
            for buf in kept]


class TestReplayLog:
    """What the coordinator keeps of a submitted partition is what its
    fault policy can use — and under ``retry`` that is a private copy."""

    def test_caller_may_overwrite_its_buffer_under_retry(self, partitions, baseline):
        telemetry = Recorder()
        buffer = np.empty(max(len(p) for p in partitions))
        with ElasticTier(
            factory, 3,
            policy=FaultPolicy.retry(backoff=0.01, max_attempts=5),
            fault_plan=FaultPlan(
                [FaultSpec("comm", "crash", at_call=3, target=1)], seed=SEED),
            telemetry=telemetry,
            worker_timeout=SUSPECT_TIMEOUT,
        ) as tier:
            for part in partitions:
                step = buffer[: len(part)]
                step[:] = part
                tier.submit(step)
                step[:] = 99.0  # the next step's output lands here
            assert telemetry.gauge("elastic.log_bytes") > 0
            result = counts(tier.drain())
        assert np.array_equal(result, baseline)
        snap = telemetry.snapshot()["counters"]
        assert snap.get("elastic.frames_replayed", 0) >= 1

    def test_log_bytes_gauge_follows_snapshots(self, partitions):
        telemetry = Recorder()
        with ElasticTier(factory, 1, policy="retry", telemetry=telemetry,
                         snapshot_every=0) as tier:
            for sent, part in enumerate(partitions, start=1):
                tier.submit(part)
                held = _retained(tier)
                assert len(held) == 2 * sent  # message + data per frame
                assert not any(np.shares_memory(np.frombuffer(b, np.uint8), part)
                               for b in held if len(b))
                assert telemetry.gauge("elastic.log_bytes") == sum(map(len, held))
        telemetry = Recorder()
        with ElasticTier(factory, 1, policy="retry", telemetry=telemetry,
                         snapshot_every=1) as tier:
            for part in partitions:
                tier.submit(part)
            tier.drain()  # quiescent: every snapshot has arrived
            assert _retained(tier) == []
            tier.submit(partitions[0])
            assert telemetry.gauge("elastic.log_bytes") == sum(map(len, _retained(tier)))

    @pytest.mark.parametrize("mode", ["fail_fast", "degrade"])
    def test_no_partition_bytes_kept_unless_retry(self, partitions, mode):
        telemetry = Recorder()
        with ElasticTier(factory, 2, policy=mode, telemetry=telemetry,
                         snapshot_every=0) as tier:
            for part in partitions:
                tier.submit(part)
            assert _retained(tier) == []
            logged = [entry for w in tier._workers.values() for entry in w.log]
            if mode == "fail_fast":
                assert logged == []
            else:  # the loss account: which frames, how many elements each
                assert sorted(n for _seq, _kept, n in logged) == sorted(
                    len(p) for p in partitions)
        assert telemetry.gauge("elastic.log_bytes", default=-1) == 0
        assert telemetry.timer("elastic.send_seconds").calls == N_PARTS

    def test_failed_send_is_rerouted_not_also_counted_lost(self, partitions, baseline):
        """A frame whose send fails is re-routed by ``submit``; it must
        not stay in the dead worker's log too (double-counted as lost
        under ``degrade``, replayed twice under ``retry``)."""
        telemetry = Recorder()
        with ElasticTier(factory, 2, policy=FaultPolicy.degrade(),
                         telemetry=telemetry, snapshot_every=0,
                         worker_timeout=SUSPECT_TIMEOUT) as tier:
            for part in partitions[:4]:
                tier.submit(part)
            pipe = tier._workers[1].proc.conn.fileno()
            with socket.fromfd(pipe, socket.AF_UNIX, socket.SOCK_STREAM) as end:
                end.shutdown(socket.SHUT_WR)  # next send: EPIPE
            for part in partitions[4:]:
                tier.submit(part)
            result = counts(tier.drain())
        lost = telemetry.snapshot()["counters"]["elastic.elements_lost"]
        assert lost == sum(len(p) for p in partitions[1:4:2])
        assert int(result.sum()) + lost == int(baseline.sum())


class TestRetry:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("comm", "crash", at_call=3, target=1),
            FaultSpec("comm", "delay", at_call=3, target=1,
                      seconds=HANG_SECONDS),
            FaultSpec("network", "disconnect", at_call=3, target=1),
        ],
        ids=["kill", "hang", "disconnect"],
    )
    def test_recovers_bit_exact(self, partitions, baseline, spec):
        """Respawn + snapshot restore + ordered replay reproduces the
        unfaulted result bit-for-bit, whatever killed the worker."""
        telemetry = Recorder()
        result = run_tier(
            partitions,
            policy=FaultPolicy.retry(backoff=0.01, max_attempts=5),
            fault_plan=FaultPlan([spec], seed=SEED),
            telemetry=telemetry,
        )
        assert np.array_equal(result, baseline)
        snap = telemetry.snapshot()["counters"]
        assert snap.get("faults.retries", 0) >= 1
        assert snap.get("elastic.replays", 0) >= 1

    def test_hang_detected_by_ack_stall_not_sleep(self, partitions, baseline):
        """A hung worker is alive; detection must come from acknowledgement
        stall, well before the injected sleep would ever expire."""
        import time

        telemetry = Recorder()
        t0 = time.perf_counter()
        result = run_tier(
            partitions,
            policy=FaultPolicy.retry(backoff=0.01, max_attempts=5),
            fault_plan=FaultPlan(
                [FaultSpec("comm", "delay", at_call=3, target=1,
                           seconds=HANG_SECONDS)],
                seed=SEED,
            ),
            telemetry=telemetry,
        )
        elapsed = time.perf_counter() - t0
        assert np.array_equal(result, baseline)
        assert elapsed < HANG_SECONDS / 2, (
            "recovery must be driven by supervision, not the sleep ending")

    def test_exhausted_attempts_raise(self, partitions):
        """A worker that dies on every incarnation (times > attempts)
        eventually exhausts the retry budget."""
        plan = FaultPlan(
            [FaultSpec("comm", "crash", at_call=0, target=0, times=50)],
            seed=SEED,
        )
        with pytest.raises(StagingWorkerError):
            run_tier(
                partitions,
                workers=1,
                policy=FaultPolicy.retry(backoff=0.01, max_attempts=3),
                fault_plan=plan,
            )

    def test_fail_fast_raises(self, partitions):
        with pytest.raises(StagingWorkerError):
            run_tier(
                partitions,
                policy="fail_fast",
                fault_plan=FaultPlan(
                    [FaultSpec("comm", "crash", at_call=3, target=1)],
                    seed=SEED,
                ),
            )


def _dies_mid_partition(parent_pid):
    """``factory()``; in a staging worker, also make its process die
    half-way through reading the first large message it is sent."""
    if os.getpid() != parent_pid:
        real = os.readv

        def readv(fd, buffers):
            if sum(map(len, buffers)) >= 1 << 20:
                real(fd, [*buffers[:-1], buffers[-1][: len(buffers[-1]) // 2]])
                os._exit(1)
            return real(fd, buffers)

        os.readv = readv
    return factory()


def test_a_worker_dying_mid_partition_is_a_death_not_a_hang():
    """A staging worker killed while a 2 MiB partition is half read is
    found dead at once (no ack stall: the hang timeout is a minute)."""
    started = time.monotonic()
    with ElasticTier(functools.partial(_dies_mid_partition, os.getpid()), 1,
                     policy="fail_fast", worker_timeout=HANG_SECONDS) as tier:
        tier.submit(np.random.default_rng(SEED).normal(size=1 << 18))
        with pytest.raises(StagingWorkerError):
            tier.drain()
        assert tier._workers[0].proc.process.exitcode == 1
    assert time.monotonic() - started < HANG_SECONDS / 2


class TestDegrade:
    def test_mass_conserved_exactly(self, partitions, baseline):
        """The dead worker's last snapshot stands; every dropped element
        is accounted for in elastic.elements_lost."""
        telemetry = Recorder()
        result = run_tier(
            partitions,
            policy=FaultPolicy.degrade(),
            fault_plan=FaultPlan(
                [FaultSpec("comm", "crash", at_call=3, target=1)], seed=SEED
            ),
            telemetry=telemetry,
        )
        snap = telemetry.snapshot()["counters"]
        lost = snap.get("elastic.elements_lost", 0)
        assert lost > 0
        assert int(result.sum()) + lost == int(baseline.sum())
        assert snap.get("elastic.workers_dropped") == 1
        # worker 1 dies on its 4th frame with no snapshot yet: exactly its
        # four frames (every third partition from the second) are lost
        assert snap.get("elastic.frames_lost") == 4
        assert lost == sum(len(p) for p in partitions[1::3])

    def test_all_workers_lost_raises(self, partitions):
        plan = FaultPlan(
            [FaultSpec("comm", "crash", at_call=0, target=0)], seed=SEED
        )
        with pytest.raises(StagingWorkerError):
            run_tier(partitions, workers=1, policy=FaultPolicy.degrade(),
                     fault_plan=plan)


class TestElasticity:
    def test_scale_up_and_down_bit_exact(self, partitions, baseline):
        telemetry = Recorder()
        with ElasticTier(factory, 2, telemetry=telemetry,
                         worker_timeout=SUSPECT_TIMEOUT) as tier:
            third = N_PARTS // 3
            for part in partitions[:third]:
                tier.submit(part)
            tier.scale_to(4)
            for part in partitions[third: 2 * third]:
                tier.submit(part)
            tier.scale_to(2)  # retired workers drain their maps first
            for part in partitions[2 * third:]:
                tier.submit(part)
            result = counts(tier.drain())
        assert np.array_equal(result, baseline)
        snap = telemetry.snapshot()["counters"]
        assert snap.get("elastic.spawns") == 4

    def test_scale_to_rejects_zero(self, partitions):
        with ElasticTier(factory, 1) as tier:
            with pytest.raises(ValueError):
                tier.scale_to(0)


class TestSnapshots:
    def test_corrupt_snapshot_falls_back(self, partitions, baseline):
        """network:truncate garbles one snapshot frame; the coordinator
        discards it on CRC and recovery replays from the older one —
        still bit-exact."""
        telemetry = Recorder()
        result = run_tier(
            partitions,
            workers=2,  # 6 frames each: the 4th triggers a snapshot
            policy=FaultPolicy.retry(backoff=0.01, max_attempts=5),
            fault_plan=FaultPlan(
                [
                    FaultSpec("comm", "crash", at_call=4, target=1),
                    FaultSpec("network", "truncate", at_call=3, target=1,
                              op="frame"),
                ],
                seed=SEED,
            ),
            telemetry=telemetry,
        )
        assert np.array_equal(result, baseline)
        snap = telemetry.snapshot()["counters"]
        assert snap.get("elastic.snapshots_corrupt", 0) >= 1

    def test_snapshots_disabled_replays_from_start(self, partitions, baseline):
        result = run_tier(
            partitions,
            policy=FaultPolicy.retry(backoff=0.01, max_attempts=5),
            fault_plan=FaultPlan(
                [FaultSpec("comm", "crash", at_call=3, target=1)], seed=SEED
            ),
            snapshot_every=0,
        )
        assert np.array_equal(result, baseline)


class TestBackpressure:
    def test_credit_window_bounds_inflight(self, partitions, baseline):
        """credits=1 serializes every frame: slowest possible, still
        exact, and the credit wait shows up in telemetry."""
        telemetry = Recorder()
        result = run_tier(partitions, workers=1, credits=1,
                          telemetry=telemetry)
        assert np.array_equal(result, baseline)
        timers = telemetry.snapshot()["timers"]
        assert "elastic.credit_wait_seconds" in timers

    def test_rejects_nonpositive_credits(self):
        with pytest.raises(ValueError):
            ElasticTier(factory, 1, credits=0)
