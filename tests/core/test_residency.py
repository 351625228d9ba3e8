"""Process-engine input residency: the steady-state data plane.

Covers the three hit paths (steady-state same-array, direct
``step_buffer`` view, recopy-after-notify), the in-place tripwire,
core/delta dispatch, and shared-memory hygiene across all of them.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, make_blobs
from repro.core import EnginePolicy, ExecutionPolicy, TimeSharingDriver
from repro.sim import GaussianEmulator


def shm_segments() -> set[str]:
    shm_dir = Path("/dev/shm")
    return {p.name for p in shm_dir.iterdir()} if shm_dir.is_dir() else set()


def make_hist():
    args = ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2))
    return Histogram(args, lo=-4, hi=4, num_buckets=16)


def counts_of(app):
    return {k: v.count for k, v in app.get_combination_map().sorted_items()}


@pytest.fixture
def data(rng):
    return rng.normal(size=2048)


class TestSteadyStateHits:
    def test_second_run_of_same_array_skips_the_copy(self, data):
        with make_hist() as app:
            app.run(data)
            app.run(data)
            counters = app.telemetry_snapshot()["counters"]
        assert counters["engine.residency.misses"] == 1
        assert counters["engine.residency.hits"] == 1
        assert counters["engine.residency.bytes_saved"] == data.nbytes
        assert counters["engine.residency.copied_bytes"] == data.nbytes

    def test_hit_run_is_correct(self, data):
        ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
        ref.run(data)
        ref.run(data)
        with make_hist() as app:
            app.run(data)
            app.run(data)
            assert counts_of(app) == counts_of(ref)

    def test_different_array_misses(self, data, rng):
        other = rng.normal(size=2048)
        with make_hist() as app:
            app.run(data)
            app.run(other)
            counters = app.telemetry_snapshot()["counters"]
        assert counters["engine.residency.misses"] == 2
        assert counters.get("engine.residency.hits", 0) == 0

    def test_notify_data_changed_forces_recopy(self, data, rng):
        ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=16)
        with make_hist() as app:
            app.run(data)
            ref.run(data)
            data[:] = rng.normal(size=data.shape)
            app.notify_data_changed()
            app.run(data)
            ref.run(data)
            counters = app.telemetry_snapshot()["counters"]
            assert counters["engine.residency.misses"] == 2
            assert counters.get("engine.residency.hits", 0) == 0
            # The second run saw the rewritten bytes, not the stale copy.
            assert counts_of(app) == counts_of(ref)

    def test_unannounced_inplace_rewrite_trips_the_guard(self, data, rng):
        with make_hist() as app:
            app.run(data)
            data[:] = rng.normal(size=data.shape)  # no notify_data_changed()
            app.run(data)
            counters = app.telemetry_snapshot()["counters"]
        assert counters["engine.residency.guard_trips"] == 1
        assert counters["engine.residency.misses"] == 2
        assert counters.get("engine.residency.hits", 0) == 0


class TestDirectHits:
    def test_step_buffer_partition_is_zero_copy(self, rng):
        with make_hist() as app:
            buf = app.engine.step_buffer(0, (1024,), np.float64)
            buf[:] = rng.normal(size=1024)
            app.run(buf)
            counters = app.telemetry_snapshot()["counters"]
            assert counters["engine.residency.direct_hits"] == 1
            assert counters.get("engine.residency.copied_bytes", 0) == 0
            assert sum(counts_of(app).values()) == 1024

    def test_refilled_slot_advances_the_epoch(self, rng):
        with make_hist() as app:
            epochs = []
            for _ in range(3):
                buf = app.engine.step_buffer(0, (512,), np.float64)
                buf[:] = rng.normal(size=512)
                app.run(buf)
                epochs.append(app.telemetry.gauge("engine.residency.epoch"))
            counters = app.telemetry_snapshot()["counters"]
        assert epochs == sorted(epochs) and len(set(epochs)) == 3
        assert counters["engine.residency.direct_hits"] == 3

    def test_double_buffer_driver_matches_serial(self):
        def run(args, double_buffer):
            sim = GaussianEmulator(step_elements=800, seed=7)
            app = Histogram(args, lo=-4, hi=4, num_buckets=16)
            with app:
                TimeSharingDriver(sim, app, double_buffer=double_buffer).run(4)
                return counts_of(app), app.telemetry_snapshot()["counters"]

        ref_counts, _ = run(ExecutionPolicy(), double_buffer=False)
        counts, counters = run(
            ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2)),
            double_buffer=True,
        )
        assert counts == ref_counts
        assert counters["engine.residency.direct_hits"] == 4
        assert counters.get("engine.residency.copied_bytes", 0) == 0


class TestStateDeltas:
    def test_core_published_once_across_runs(self, data):
        with make_hist() as app:
            app.run(data)
            app.run(data)
            snap = app.telemetry_snapshot()
        # Once per worker for the scheduler's lifetime, not once per run.
        assert snap["ops"]["engine.state.core"]["calls"] == 2
        # Every dispatched task shipped a delta, not the core.
        assert snap["ops"]["engine.dispatch"]["calls"] == 4
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
        assert snap["ops"]["engine.state.core"]["calls"] == 2  # one per worker
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


class TestHygiene:
    def test_resident_segments_released_on_close(self, data, rng):
        before = shm_segments()
        with make_hist() as app:
            app.run(data)
            app.run(data)
            buf = app.engine.step_buffer(0, (256,), np.float64)
            buf[:] = rng.normal(size=256)
            app.run(buf)
            del buf
        leaked = shm_segments() - before
        assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"

    def test_gauge_reports_resident_footprint(self, data):
        with make_hist() as app:
            app.run(data)
            assert app.telemetry.gauge("engine.residency.resident_bytes") >= data.nbytes
        assert app.telemetry.gauge("engine.residency.resident_bytes") == 0
