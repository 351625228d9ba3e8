"""Execution-engine equivalence matrix and lifecycle guarantees.

Every backend (serial / thread / process) must produce bit-identical
combination maps, outputs, and consistent run statistics for every
bundled analytics — including the early-emission (``run2`` window) and
``seed_reduction_maps`` (iterative) paths, scalar loop and batch kernel alike.

The equivalence matrix is a thin wrapper over the ``repro.verify``
conformance kit (shared via ``tests/workloads.py``): each test names a
canonical workload and the transparent axes under test; the kit runs
candidate and oracle and produces structured mismatch reports.
"""

import numpy as np
import pytest

from repro.analytics import CountObj, Histogram
from repro.core import (
    EnginePolicy,
    ExecutionPolicy,
    Scheduler,
    SerialEngine,
    create_engine,
)
from tests.workloads import (
    ENGINES,
    assert_conforms,
    assert_kernel_transparent,
)


@pytest.fixture(scope="module")
def scalars():
    return np.random.default_rng(42).normal(size=4096)


class TestEquivalenceMatrix:
    """Serial is ground truth; thread and process must match it exactly."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("map_path", ["scalar", "auto"], ids=["scalar", "vector"])
    def test_histogram(self, engine, map_path):
        assert_conforms("histogram", engine=engine, map_path=map_path,
                        num_threads=3)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("map_path", ["scalar", "auto"], ids=["scalar", "vector"])
    def test_kmeans_seeded_iterative(self, engine, map_path):
        assert_conforms("kmeans", engine=engine, map_path=map_path,
                        num_threads=2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_logistic_regression_iterative(self, engine):
        assert_conforms("logreg", engine=engine,
                        num_threads=2)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload", ["kmeans", "logreg"])
    def test_float_kernel_bit_exact_across_engines(self, engine, workload):
        """The scalar-loop diff above tolerates the kernels' declared
        ulp drift; kernel vs kernel there is none to tolerate."""
        assert_kernel_transparent(workload, engine=engine, num_threads=2)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload", ["moving_average", "moving_median"])
    def test_window_run2_early_emission(self, engine, workload):
        assert_conforms(workload, engine=engine, num_threads=3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_blocked_streaming(self, engine):
        """block_size interacts with per-block dispatch in every engine."""
        assert_conforms("histogram", engine=engine, num_threads=2,
                        block_size=500)


class TestEngineLifecycle:
    def test_thread_engine_single_pool_per_scheduler_lifetime(self, scalars):
        """The pool is created exactly once across runs, blocks, and resets."""
        app = Histogram(
            ExecutionPolicy(
                engine=EnginePolicy(backend="thread", num_threads=4), block_size=256
            ),
            lo=-4, hi=4, num_buckets=16,
        )
        for _ in range(3):
            app.run(scalars)
        app.reset()
        app.run(scalars)
        assert app.telemetry.counter("engine.pools_created") == 1
        app.close()

    def test_process_engine_single_pool_across_runs(self, scalars):
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2)),
            lo=-4, hi=4, num_buckets=16,
        )
        app.run(scalars[:512])
        app.run(scalars[:512])
        assert app.telemetry.counter("engine.pools_created") == 1
        app.close()

    def test_close_then_rerun_recreates_engine(self, scalars):
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(backend="thread", num_threads=2)),
            lo=-4, hi=4, num_buckets=16,
        )
        app.run(scalars[:256])
        app.close()
        app.run(scalars[:256])  # engine recreated transparently
        assert app.telemetry.counter("engine.pools_created") == 2
        app.close()

    def test_context_manager_closes(self, scalars):
        with Histogram(
            ExecutionPolicy(engine=EnginePolicy(backend="thread", num_threads=2)),
            lo=-4, hi=4, num_buckets=8,
        ) as app:
            app.run(scalars[:128])
            assert app._engine is not None
        assert app._engine is None

    def test_serial_engine_creates_no_pool(self, scalars):
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(backend="serial")),
            lo=-4, hi=4, num_buckets=8,
        )
        app.run(scalars[:128])
        assert app.telemetry.counter("engine.pools_created") == 0
        assert isinstance(app.engine, SerialEngine)
        app.close()

    def test_split_telemetry_recorded(self, scalars):
        app = Histogram(
            ExecutionPolicy(engine=EnginePolicy(backend="thread", num_threads=2)),
            lo=-4, hi=4, num_buckets=8,
        )
        app.run(scalars[:512])
        snap = app.telemetry_snapshot()
        assert snap["engine"] == "thread"
        assert snap["counters"]["engine.splits"] == 2
        assert snap["timers"]["engine.split_seconds"]["calls"] == 2
        app.close()


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            EnginePolicy(backend="gpu")

    def test_policy_names_backend_and_worker_count(self):
        engine = create_engine(EnginePolicy(backend="thread", num_threads=3))
        assert (engine.name, engine.num_workers) == ("thread", 3)

    def test_default_is_serial(self):
        assert ExecutionPolicy().engine.backend == "serial"


class ArmedCount(CountObj):
    """A counter that early-emits only while armed (module level so the
    process engine can pickle it across the worker boundary)."""

    __slots__ = ("armed", "trigger_at")

    def __init__(self, armed: bool, trigger_at: int):
        super().__init__()
        self.armed = armed
        self.trigger_at = trigger_at

    def trigger(self):
        return self.armed and self.count >= self.trigger_at


class RearmableCounter(Scheduler):
    """Iterative app whose reduction object triggers only while armed.

    Iteration 0 early-emits key 0; later iterations rebuild it without
    triggering — the final convert sweep must then write the rebuilt
    value (regression for the cross-iteration ``emitted`` leak).
    """

    def __init__(self, args, trigger_at=3):
        super().__init__(args)
        self.armed = True
        self.trigger_at = trigger_at

    def accumulate(self, chunk, data, red_obj, key):
        if red_obj is None:
            red_obj = ArmedCount(self.armed, self.trigger_at)
        red_obj.count += 1
        red_obj.armed = self.armed
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.count += red_obj.count
        return com_obj

    def post_combine(self, combination_map):
        self.armed = False  # later iterations never trigger

    def convert(self, red_obj, out, key):
        out[key] = red_obj.count


class TestEmittedScopedPerIteration:
    """Satellite regression: the ``emitted`` set must not leak across
    iterations — a key emitted in iteration 0 whose object is rebuilt by
    the final iteration must be written by the convert sweep."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rebuilt_key_is_converted(self, engine):
        app = RearmableCounter(
            ExecutionPolicy(engine=EnginePolicy(backend=engine), num_iters=2)
        )
        out = np.full(1, np.nan)
        app.run(np.zeros(5), out)
        # Iteration 0: trigger at count 3 emits out[0]=3, the remaining 2
        # elements leave count=2 in the combination map.  Iteration 1
        # (disarmed) adds 5 more without emitting.  The sweep must
        # overwrite the stale early-emitted 3 with the final 7.
        assert out[0] == 7
        assert app.telemetry.counter("run.early_emissions") == 1
        app.close()

    def test_single_iteration_emission_still_skipped_by_sweep(self):
        writes = []

        class CountingConvert(RearmableCounter):
            def convert(self, red_obj, out, key):
                writes.append(key)
                super().convert(red_obj, out, key)

        app = CountingConvert(ExecutionPolicy(num_iters=1), trigger_at=5)
        out = np.full(1, np.nan)
        app.run(np.zeros(5), out)
        # Emitted in the (only) iteration: converted once, not re-swept.
        assert writes == [0]
        assert out[0] == 5
