"""Process-engine residency: what the workers read through shared
memory, and the run-resident worker sessions.

Covers the input rule — each worker split is copied into the engine's
segment before the run first sends it (thread 0's never, retries reuse
it, every run copies again, so a buffer rewritten in place is never
read stale) — what a task message carries (only the session parts its
worker lacks), and shared-memory hygiene.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, make_blobs
from repro.core import EnginePolicy, ExecutionPolicy, RedObj, Scheduler, TimeSharingDriver
from repro.faults import FaultPlan, FaultPolicy, FaultSpec
from repro.sim import Simulation
from tests.shm import own_segments


def make_hist(cls=Histogram):
    args = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2))
    return cls(args, lo=-4, hi=4, num_buckets=16)


def counts_of(app):
    return {k: v.count for k, v in app.get_combination_map().sorted_items()}


@pytest.fixture
def data(rng):
    return rng.normal(size=2048)


class OneBufferSim(Simulation):
    """Rewrites and returns one buffer; from step to step only element
    ``index`` of 4 096 changes — same array object, same length, and a
    rewrite no sampled content check short of a full compare would see.
    On two threads, element 1 lies in thread 0's split and element 4 094
    in the worker's."""

    def __init__(self, elements=4096, index=1):
        self._buf = np.full(elements, 0.5)
        self._index = index
        self._step = 0

    def advance(self):
        self._buf[self._index] = -3.5 + self._step  # a different bucket every step
        self._step += 1
        return self._buf

    step = property(lambda self: self._step)
    partition_elements = property(lambda self: self._buf.size)
    memory_nbytes = property(lambda self: self._buf.nbytes)


def driver_steps_agree(index):
    """Three driver steps of :class:`OneBufferSim` rewriting ``index``:
    the process engine's counts equal the serial engine's at every step."""
    seen = {"serial": [], "process": []}
    for backend, steps in seen.items():
        policy = ExecutionPolicy(engine=EnginePolicy(backend=backend, num_threads=2))
        with Histogram(policy, lo=-4, hi=4, num_buckets=16) as app:
            TimeSharingDriver(
                OneBufferSim(index=index), app,
                per_step=lambda step, sched, out, steps=steps: steps.append(counts_of(sched)),
            ).run(3)
    assert seen["process"] == seen["serial"] and len(seen["serial"]) == 3


def bare_runs_agree(index):
    """Three bare runs on the rewritten buffer: each equals the serial
    engine's, and each copies the worker's half of the partition in."""
    ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
    ref_sim, sim = OneBufferSim(index=index), OneBufferSim(index=index)
    with make_hist() as app:
        for _ in range(3):
            ref.run(ref_sim.advance())
            app.run(sim.advance())
            assert counts_of(app) == counts_of(ref)
        counters = app.telemetry_snapshot()["counters"]
    # Thread 1's split is elements 2 048-4 095: half of every run.
    assert counters["engine.residency.copied_bytes"] == 3 * sim.partition_nbytes // 2


class TestEveryRunCopies:
    def test_inplace_rewrite_is_never_read_stale_through_the_driver(self):
        driver_steps_agree(index=1)

    def test_inplace_rewrite_is_never_read_stale_through_bare_run(self):
        bare_runs_agree(index=1)

    def test_a_worker_split_rewritten_in_place_is_never_read_stale_through_the_driver(self):
        driver_steps_agree(index=4094)

    def test_a_worker_split_rewritten_in_place_is_never_read_stale_through_bare_run(self):
        bare_runs_agree(index=4094)

    def test_each_run_copies_the_worker_splits_of_every_block_once(self):
        """3 threads, blocks of 420 elements over 1 800 (140 k-means
        points of 3 per block), 2 Lloyd iterations, 2 runs: 4 blocks split
        141 / 141 / 138 and a last one 42 / 39 / 39, so a run copies the
        workers' 4 x (141 + 138) + 39 + 39 = 1 194 elements, once however
        many iterations read them, and equals the serial engine bit for bit."""
        flat, _ = make_blobs(600, 3, 4, seed=11)
        with kmeans_app("serial", flat, threads=3, num_iters=2, block_size=420) as ref, \
                kmeans_app("process", flat, threads=3, num_iters=2, block_size=420) as app:
            for run in (1, 2):
                ref.run(flat)
                app.run(flat)
                assert np.array_equal(app.centroids(), ref.centroids())
                copied = app.telemetry.counter("engine.residency.copied_bytes")
                assert copied == run * 1194 * flat.itemsize

    def test_a_worker_killed_in_the_first_iteration_is_replayed_on_the_copy(self):
        """Worker 1 dies on its first task of a 3-iteration retry run: the
        iteration replays on a fresh worker, which reads the split already
        copied in — bit-exact, and the copy is counted once."""
        flat, _ = make_blobs(600, 3, 4, seed=11)
        fault = FaultPolicy.retry(backoff=0.01)
        with kmeans_app("serial", flat, num_iters=3) as ref, \
                kmeans_app("process", flat, num_iters=3, fault=fault) as app:
            app.fault_plan = FaultPlan([FaultSpec("engine", "kill", at_call=0)])
            ref.run(flat)
            app.run(flat)
            assert np.array_equal(app.centroids(), ref.centroids())
            counters = app.telemetry_snapshot()["counters"]
        assert counters["faults.detected.worker_dead"] == counters["faults.retries"] == 1
        assert counters["engine.residency.copied_bytes"] == flat.nbytes // 2


class TestStateDeltas:
    def test_core_published_once_across_runs(self, data):
        with make_hist() as app:
            app.run(data)
            app.run(data)
            snap = app.telemetry_snapshot()
        # Once per worker (thread 0 is the driver) for the scheduler's
        # lifetime, not once per run.
        assert snap["ops"]["engine.state.core"]["calls"] == 1
        # Every dispatched task shipped a delta, not the core.
        assert snap["ops"]["engine.dispatch"]["calls"] == 2
        assert snap["ops"]["engine.state.delta"]["calls"] == 2

    def test_delta_rebuilt_per_iteration(self):
        flat, _ = make_blobs(600, 3, 4, seed=11)
        init = flat.reshape(-1, 3)[:4].copy()
        app = KMeans(
            ExecutionPolicy(
                engine=EnginePolicy(backend="process", num_threads=2),
                chunk_size=3,
                num_iters=4,
                extra_data=init,
            ),
            dims=3,
        )
        with app:
            app.run(flat)
            snap = app.telemetry_snapshot()
        assert snap["ops"]["engine.state.core"]["calls"] == 1  # one per worker
        assert snap["ops"]["engine.state.delta"]["calls"] == 4
        # The per-iteration payload is far smaller than the one-time core.
        core = snap["ops"]["engine.state.core"]
        delta = snap["ops"]["engine.state.delta"]
        assert delta["bytes"] / delta["calls"] < core["bytes"] / core["calls"]

    def test_iterative_kmeans_resident_is_bit_exact(self):
        flat, _ = make_blobs(600, 3, 4, seed=11)
        init = flat.reshape(-1, 3)[:4].copy()

        def run(name):
            app = KMeans(
                ExecutionPolicy(
                    engine=EnginePolicy(backend=name, num_threads=2),
                    chunk_size=3,
                    num_iters=4,
                    extra_data=init,
                ),
                dims=3,
            )
            with app:
                app.run(flat)
                return app.centroids()

        assert np.array_equal(run("process"), run("serial"))


def kmeans_app(backend, flat, dims=3, k=4, threads=2, **policy):
    init = flat.reshape(-1, dims)[:k].copy()
    return KMeans(
        ExecutionPolicy(
            engine=EnginePolicy(backend=backend, num_threads=threads),
            chunk_size=dims, extra_data=init, **policy,
        ),
        dims=dims,
    )


def run_counters(app):
    counters = app.telemetry_snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("run.")}


class TestSessionAccounting:
    def test_a_task_carries_only_what_its_worker_lacks(self, sent):
        """4 Lloyd iterations, one block each, 3 threads (the driver and
        2 workers): the core and the header cross once per worker, the
        delta once per iteration per worker, no reduction map ever
        leaves the parent, and the byte counters add up to what was
        written to the pipes."""
        flat, _ = make_blobs(600, 3, 4, seed=11)
        with kmeans_app("process", flat, threads=3, num_iters=4) as app:
            app.run(flat)
            ops = app.telemetry_snapshot()["ops"]
        assert len(sent) == 8 and len({worker for worker, _, _ in sent}) == 2
        carried = [sorted(parts) for _, _, parts in sent]
        assert carried[:2] == [["core", "delta", "header", "map"]] * 2
        assert carried[2:] == [["delta", "map"]] * 6
        # Every map part is "derive your seed": zero map bytes go out.
        assert all(parts["map"] is None for _, _, parts in sent)
        assert not any(name.startswith("engine.wire.pickle") for name in ops)
        assert ops["engine.wire.columnar"]["calls"] == 8  # the replies
        core_bytes = sum(len(parts.get("core", b"")) for _, _, parts in sent)
        assert ops["engine.state.core"] == {"calls": 2, "bytes": core_bytes}
        assert ops["engine.dispatch"] == {
            "calls": 8,
            "bytes": sum(len(message) for _, message, _ in sent) - core_bytes,
        }
        # One delta is built per iteration and sent to each worker.
        deltas = [parts["delta"] for _, _, parts in sent]
        assert len(set(deltas)) == 4
        assert ops["engine.state.delta"] == {
            "calls": 4, "bytes": sum(len(d) for d in deltas) // 2,
        }

    @pytest.mark.parametrize("seeded", [True, False])
    def test_later_blocks_go_on_from_the_map_the_worker_kept(self, sent, seeded, rng):
        """``block_size < n``, 3 threads (2 workers): only a worker's
        first task of an iteration names a map at all; results,
        ``peak_red_objects`` and the ``run.*`` counters equal the serial
        engine's bit for bit."""
        if seeded:
            data, _ = make_blobs(600, 3, 4, seed=3)
            iterations, block = 3, 420

            def make(backend):
                return kmeans_app(backend, data, threads=3, num_iters=iterations,
                                  block_size=block)
        else:
            data = rng.normal(size=2000)
            iterations, block = 1, 300

            def make(backend):
                policy = ExecutionPolicy(
                    engine=EnginePolicy(backend=backend, num_threads=3), block_size=block)
                return Histogram(policy, lo=-4, hi=4, num_buckets=16)

        with make("serial") as ref, make("process") as app:
            ref.run(data)
            app.run(data)
            if seeded:
                assert np.array_equal(app.centroids(), ref.centroids())
            else:
                assert counts_of(app) == counts_of(ref)
            assert run_counters(app) == run_counters(ref)
            assert app.stats.peak_red_objects == ref.stats.peak_red_objects
        blocks = -(-len(data) // block)
        assert len(sent) == 2 * blocks * iterations
        map_parts = [parts.get("map", "kept") for _, _, parts in sent]
        per_iteration = [None, None] + ["kept"] * (2 * blocks - 2)
        assert map_parts == per_iteration * iterations


class Tally(RedObj):
    """A schemaless reduction object (no ``fields()``)."""

    def __init__(self):
        self.total = 0.0
        self.seen = []


class ScaledTally(Scheduler):
    """A user application with no state hooks: ``scale`` changes in
    ``post_combine`` and reaches the workers through the default
    ``mutable_state()``."""

    def __init__(self, args):
        super().__init__(args)
        self.scale = 1.0

    def gen_key(self, chunk, data, combination_map):
        return chunk.start % 5

    def accumulate(self, chunk, data, red_obj, key):
        red_obj = red_obj or Tally()
        red_obj.total += self.scale * float(data[chunk.start])
        red_obj.seen.append(chunk.start)
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.total += red_obj.total
        com_obj.seen += red_obj.seen
        return com_obj

    def post_combine(self, combination_map):
        self.scale *= 0.5


class SessionWatch(Histogram):
    """A histogram whose ``converged`` hook, which the scheduler calls
    right after ``invalidate_state``, records the engine's session."""

    seen: list

    def converged(self, combination_map, iteration):
        engine = self.engine
        self.seen.append((sorted(engine._parts), engine._red_maps))
        return False


class TestSessionIsolation:
    def test_schemaless_user_scheduler_with_default_state_conforms(self, rng):
        data = rng.normal(size=400)

        def run(backend):
            app = ScaledTally(ExecutionPolicy(
                engine=EnginePolicy(backend=backend, num_threads=2),
                num_iters=3, block_size=150))
            with app:
                app.run(data)
                items = app.get_combination_map().sorted_items()
                return ([(k, o.total, o.seen) for k, o in items],
                        app.telemetry_snapshot()["ops"])

        (expected, _), (got, ops) = run("serial"), run("process")
        assert got == expected
        # No schema: its maps cross the engine pipes pickled.
        assert ops["engine.wire.pickle"]["calls"] > 0
        assert "engine.wire.columnar" not in ops

    def test_runs_never_see_the_previous_runs_view_or_delta(self, rng):
        """Two arrays of different length, ``reset()`` in between and
        not: each run equals a serial scheduler fed the same sequence."""
        first, _ = make_blobs(600, 3, 4, seed=5)
        second, _ = make_blobs(450, 3, 4, seed=6)
        with kmeans_app("serial", first, num_iters=2) as ref, \
                kmeans_app("process", first, num_iters=2) as app:
            for data, reset in ((first, False), (second, True), (first, True), (second, False)):
                ref.run(data)
                app.run(data)
                assert np.array_equal(app.centroids(), ref.centroids())
                if reset:
                    ref.reset()
                    app.reset()

    def test_bookkeeping_is_cleared_where_the_session_ends(self, data):
        with make_hist(SessionWatch) as app:
            app.seen = []
            app.run(data)
            engine = app.engine
            # invalidate_state: the delta and the maps kept under it are gone.
            assert app.seen == [(["core", "header"], None)]
            # end_run: only the core outlives the run ...
            assert sorted(engine._parts) == ["core"] and engine._red_maps is None
            # ... so whatever versions the workers hold, none is current.
            current = {version for version, _ in engine._parts.values()}
            for worker in engine._pool.workers:
                assert worker.holds.keys() >= {"core", "header", "delta", "map"}
                assert {v for k, v in worker.holds.items() if k != "core"}.isdisjoint(current)
            # replace: a fresh worker 0 (thread 1) holds nothing, so it is
            # sent everything.
            engine._pool.replace(0)
            assert engine._pool.workers[0].holds == {}
            ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
            ref.run(data)
            ref.run(data)
            app.run(data)
            assert counts_of(app) == counts_of(ref)

    def test_a_begin_run_that_raises_leaves_no_run_context(self, data):
        """The core cannot be pickled while the scheduler holds a lambda:
        ``run`` raises, the engine keeps no reference to the scheduler,
        and the same scheduler runs once the lambda is gone."""
        before = own_segments()
        app = make_hist()
        app.fn = lambda x: x
        with app:
            with pytest.raises((pickle.PicklingError, AttributeError), match="lambda"):
                app.run(data)
            engine = app.engine
            assert engine._sched is None and engine._data is None and engine._out is None
            del app.fn
            app.run(data)
            ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
            ref.run(data)
            assert counts_of(app) == counts_of(ref)
        assert own_segments() == before
        assert multiprocessing.active_children() == []

    def test_more_threads_than_workers_is_refused_by_name(self, data):
        """Thread ``i``'s splits go to worker ``i - 1``: a policy swapped
        in between runs cannot ask for threads the team does not have."""
        with make_hist() as app:
            app.run(data)
            app.policy = app.policy.evolve(engine=EnginePolicy(backend="process", num_threads=3))
            with pytest.raises(RuntimeError, match=r"num_threads.*close\(\)"):
                app.run(data)
            app.close()
            app.run(data)
            assert len(app.engine._pool.workers) == 2  # and the driver


class TestTeamSize:
    def test_two_threads_start_one_worker(self, data):
        """The driver is thread 0: a 2-thread team is one child process."""
        with make_hist() as app:
            app.run(data)
            names = [child.name for child in multiprocessing.active_children()]
            assert names == ["smart-engine-0"]
        assert multiprocessing.active_children() == []

    def test_one_thread_starts_no_process_and_copies_nothing(self):
        """``num_threads=1``: the caller is the whole team, so there is
        no pool, no segment and no copy, and the result is the serial
        engine's bit for bit."""
        flat, _ = make_blobs(600, 3, 4, seed=11)
        before = own_segments()
        with kmeans_app("serial", flat, threads=1, num_iters=3) as ref, \
                kmeans_app("process", flat, threads=1, num_iters=3) as app:
            ref.run(flat)
            app.run(flat)
            assert multiprocessing.active_children() == []
            assert own_segments() == before
            assert np.array_equal(app.centroids(), ref.centroids())
            counters = app.telemetry_snapshot()["counters"]
        assert counters.get("engine.pools_created", 0) == 0
        assert counters.get("engine.residency.copied_bytes", 0) == 0


class TestHygiene:
    def test_resident_segments_released_on_close(self, data):
        before = own_segments()
        with make_hist() as app:
            app.run(data)
            app.run(data)
        leaked = own_segments() - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_gauge_reports_resident_footprint(self, data):
        with make_hist() as app:
            app.run(data)
            assert app.telemetry.gauge("engine.residency.resident_bytes") >= data.nbytes
        assert app.telemetry.gauge("engine.residency.resident_bytes") == 0

    def test_one_segment_whatever_the_partition_sizes(self, rng):
        """Small, large, small: one ``psm_*`` segment at every point,
        grown once, and nothing left after ``close()``."""
        before = own_segments()
        ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
        parts = [rng.normal(size=n) for n in (512, 4096, 256)]
        with make_hist() as app:
            for part in parts:
                ref.run(part)
                app.run(part)
                assert len(own_segments() - before) == 1
                assert counts_of(app) == counts_of(ref)
            assert app.telemetry.gauge("engine.residency.resident_bytes") == parts[1].nbytes
            counters = app.telemetry_snapshot()["counters"]
            # Each run copies thread 1's half: the worker reads nothing else.
            assert counters["engine.residency.copied_bytes"] == sum(p.nbytes for p in parts) // 2
        assert own_segments() == before
        assert multiprocessing.active_children() == []
