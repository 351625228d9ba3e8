"""Batch-map execution path: accumulator unit tests, policy axis wiring,
batch-vs-scalar conformance, telemetry, and the mutation gate.

The equivalence tests go through the conformance kit
(``tests/workloads.py`` → ``repro.verify``), so a failure prints the
kit's structured mismatch report (first divergent index, ulp distance,
repro command) rather than a bare assert.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.analytics import GridAggregation, Histogram, MovingAverage
from repro.analytics.objects import HoldAllObj, SumCountObj, WindowSumObj
from repro.comm import spmd_launch
from repro.core import (
    MAP_PATHS,
    ColumnarAccumulator,
    EnginePolicy,
    ExecutionPolicy,
    KeyedMap,
    Scheduler,
)
from repro.core.batch import Scratch
from repro.core.serialization import pack_map
from repro.verify import Config, execute, get_workload, workload_names
from tests.workloads import assert_conforms, mismatch_report

#: Kernels the scalar loop must reproduce bit for bit (integer counts,
#: min/max, in-order ``np.add.at`` scatters).
EXACT_WORKLOADS = (
    "histogram", "grid_aggregation", "minmax", "moving_average",
    "kernel_smoother", "mutual_information", "tile_aggregation",
)
#: Float kernels diffed at their declared ``batch_ulp`` bound.
BATCH_WORKLOADS = EXACT_WORKLOADS + ("kde_grid", "kmeans", "logreg")


class ScalarOnly(Scheduler):
    """Minimal app without a batch kernel."""

    def gen_key(self, chunk, data, combination_map):
        return 0

    def accumulate(self, chunk, data, red_obj, key):
        if red_obj is None:
            red_obj = SumCountObj()
        red_obj.total += float(data[chunk.start])
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj, com_obj):
        com_obj.total += red_obj.total
        com_obj.count += red_obj.count
        return com_obj


# ---------------------------------------------------------------------------
# ColumnarAccumulator
# ---------------------------------------------------------------------------

class TestColumnarAccumulator:
    def test_rows_start_as_prototype(self):
        acc = ColumnarAccumulator(WindowSumObj(7), 10, 14)
        assert len(acc) == 4
        # "keep" fields carry the prototype's value into every row.
        assert np.array_equal(acc.column("win_size"), np.full(4, 7))
        assert np.array_equal(acc.column("total"), np.zeros(4))

    def test_load_from_seeds_in_window_rows(self):
        red_map = KeyedMap()
        red_map[3] = SumCountObj(1.5, 2)
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        assert acc.column("total")[3] == 1.5
        assert acc.column("count")[3] == 2

    def test_load_from_backed_map_seeds_by_array_copy(self):
        red_map = pack_map(KeyedMap({3: SumCountObj(1.5, 2),
                                     100: SumCountObj(1.0, 1)})).to_map()
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        assert red_map.packed is not None  # seeding built no objects
        assert acc.column("total")[3] == 1.5
        assert acc.column("count")[3] == 2

    def test_out_of_window_key_folds_through_objects(self):
        # A backed map with a key outside the window is not the
        # accumulator's to replace: the fold lands touched rows as
        # objects and keeps the outside entry.
        red_map = pack_map(KeyedMap({100: SumCountObj(1.0, 1)})).to_map()
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        acc.column("total")[2] += 4.0
        acc.column("count")[2] += 1
        acc.contrib[2] += 1
        acc.fold_into(red_map)
        assert red_map.packed is None
        assert sorted(red_map.keys()) == [2, 100]
        assert (red_map[2].total, red_map[100].total) == (4.0, 1.0)

    def test_fold_replaces_touched_and_keeps_untouched(self):
        red_map = KeyedMap()
        red_map[3] = SumCountObj(1.5, 2)
        untouched = SumCountObj(9.0, 9)
        red_map[5] = untouched
        acc = ColumnarAccumulator(SumCountObj(), 0, 8)
        acc.load_from(red_map)
        acc.column("total")[3] += 2.0
        acc.column("count")[3] += 1
        acc.contrib[3] += 1
        acc.fold_into(red_map)
        # Touched rows land the accumulated (seed + scatter) value...
        assert red_map[3].total == 3.5 and red_map[3].count == 3
        # ...and untouched entries keep their identity.
        assert red_map[5] is untouched

    def test_adopted_backing_matches_pack_map_bytes(self):
        # The same fold through an object map (folds through objects)
        # and through a backed map (adopts the rows): identical wire
        # bytes, and the untouched seeded key 5 survives in both.
        def fold(red_map):
            acc = ColumnarAccumulator(SumCountObj(), 0, 8)
            acc.load_from(red_map)
            for key, dv in ((3, 2.0), (6, 1.0)):
                acc.column("total")[key] += dv
                acc.column("count")[key] += 1
                acc.contrib[key] += 1
            acc.fold_into(red_map)
            return red_map

        def seed():
            return KeyedMap({3: SumCountObj(1.5, 2), 5: SumCountObj(-0.5, 1)})

        objects = fold(seed())
        backed = fold(pack_map(seed()).to_map())
        assert objects.packed is None and backed.packed is not None
        assert pack_map(backed) is backed.packed
        assert backed.packed.keys.tolist() == [3, 5, 6]
        assert pack_map(backed).to_bytes() == pack_map(objects).to_bytes()

    def test_fold_into_empty_map_adopts_touched_rows(self):
        red_map = KeyedMap()
        acc = ColumnarAccumulator(SumCountObj(), 4, 8)
        acc.load_from(red_map)
        acc.column("total")[1] += 2.5
        acc.column("count")[1] += 1
        acc.contrib[1] += 1
        acc.fold_into(red_map)
        assert red_map.packed is not None and len(red_map) == 1
        acc.column("total")[1] = -1.0  # the backing is a copy of the rows
        assert red_map[5].total == 2.5

    @pytest.mark.parametrize("backed", [True, False])
    def test_fired_rows_leave_the_map(self, backed):
        # Key 4 was seeded one contribution short of its window; the
        # scatter completes it, so the sweep hands its row on and the
        # fold drops it from the map — adopted backing and object
        # fallback alike.  Key 5 is touched but incomplete and stays;
        # the untouched key 6 was never asked, complete or not.
        red_map = KeyedMap({4: WindowSumObj(3, 1.5, 2), 6: WindowSumObj(3, 9.0, 3)})
        if backed:
            red_map = pack_map(red_map).to_map()
        acc = ColumnarAccumulator(WindowSumObj(3), 3, 8)
        acc.load_from(red_map)
        for row in (1, 2):
            acc.column("total")[row] += 2.0
            acc.column("count")[row] += 1
            acc.contrib[row] += 1
        fired = acc.take_fired()
        assert fired.keys.tolist() == [4]
        assert fired.records["total"].tolist() == [3.5]
        acc.fold_into(red_map)
        assert (red_map.packed is not None) == backed
        assert sorted(red_map.keys()) == [5, 6]
        assert (red_map[5].total, red_map[5].count) == (2.0, 1)
        assert (red_map[6].total, red_map[6].count) == (9.0, 3)

    def test_schemaless_prototype_rejected(self):
        with pytest.raises(TypeError, match="schemaless"):
            ColumnarAccumulator(HoldAllObj(5), 0, 4)

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ColumnarAccumulator(SumCountObj(), 5, 3)


class TestScratch:
    def test_same_memory_again_grown_when_short(self):
        scratch = Scratch()
        first = scratch.array("keys", 100, np.int64)
        assert first.shape == (100,) and first.dtype == np.int64
        assert np.shares_memory(scratch.array("keys", 40, np.int64), first)
        assert scratch.array("keys", 40, np.int64).shape == (40,)
        grown = scratch.array("keys", 1000, np.int64)
        assert grown.shape == (1000,) and not np.shares_memory(grown, first)
        assert np.shares_memory(scratch.array("keys", 100, np.int64), grown)

    def test_names_and_dtypes_do_not_alias(self):
        scratch = Scratch()
        keys = scratch.array("keys", 64, np.int64)
        assert not np.shares_memory(scratch.array("scaled", 64, np.float64), keys)
        as_f32 = scratch.array("keys", 64, np.float32)
        assert as_f32.dtype == np.float32 and not np.shares_memory(as_f32, keys)

    def test_each_thread_gets_its_own(self):
        scratch = Scratch()
        mine = scratch.array("keys", 64, np.int64)
        theirs = []
        worker = threading.Thread(
            target=lambda: theirs.append(scratch.array("keys", 64, np.int64)))
        worker.start()
        worker.join(10.0)
        assert not worker.is_alive()
        assert not np.shares_memory(theirs[0], mine)


# ---------------------------------------------------------------------------
# map_path policy axis
# ---------------------------------------------------------------------------

class TestMapPathPolicy:
    def test_axis_values(self):
        assert MAP_PATHS == ("auto", "scalar", "batch")
        with pytest.raises(ValueError, match="map_path"):
            EnginePolicy(map_path="bogus")

    def test_fingerprint_and_parse_roundtrip(self):
        policy = ExecutionPolicy(
            engine=EnginePolicy(backend="serial", map_path="batch"))
        assert "map=batch" in policy.fingerprint()
        parsed = ExecutionPolicy.parse("engine=serial,map=batch")
        assert parsed.engine.map_path == "batch"

    def test_forced_batch_without_impl_raises(self):
        app = ScalarOnly(ExecutionPolicy(engine=EnginePolicy(map_path="batch")))
        with pytest.raises(TypeError, match="ScalarOnly"):
            with app:
                app.run(np.zeros(4))

    def test_forced_vector_without_impl_raises(self):
        # No application has a "vector" path any more: the value is out
        # of domain, rejected at construction with the axis named.
        with pytest.raises(ValueError, match="map_path"):
            ExecutionPolicy(engine=EnginePolicy(map_path="vector"))
        with pytest.raises(ValueError, match="map_path"):
            ExecutionPolicy.parse("map=vector")

    def test_vec_token_rejected(self):
        with pytest.raises(ValueError, match="unknown policy axis 'vec'"):
            ExecutionPolicy.parse("vec=1")
        with pytest.raises(TypeError, match="vectorized"):
            ExecutionPolicy(vectorized=True)

    def test_auto_map_path_picks_batch(self):
        # The default map path reaches the kernel when the app has one,
        # and falls back to the scalar loop instead of raising the
        # forced-batch error when it has none.
        policy = ExecutionPolicy(engine=EnginePolicy(backend="thread", num_threads=2))
        assert policy.engine.map_path == "auto"
        with Histogram(policy, lo=-4, hi=4, num_buckets=8) as app:
            app.run(np.linspace(-3, 3, 64))
            assert app.telemetry_snapshot()["counters"][
                "run.batch_reduce_calls"] > 0
        with ScalarOnly(policy) as app:
            app.run(np.arange(8.0))
            assert app.telemetry_snapshot()["counters"][
                "run.accumulate_calls"] == 8


# ---------------------------------------------------------------------------
# batch-vs-scalar conformance (bit-exact / declared-ulp)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", BATCH_WORKLOADS)
@pytest.mark.parametrize("engine,threads", [
    ("serial", 1), ("thread", 3), ("process", 2),
])
def test_batch_conforms_across_engines(name, engine, threads):
    assert_conforms(name, engine=engine, num_threads=threads,
                    map_path="batch")


@pytest.mark.parametrize("name", BATCH_WORKLOADS)
@pytest.mark.parametrize("block_size", [64, 256])
def test_batch_conforms_with_blocks(name, block_size):
    # Multiple blocks exercise cross-split accumulator seeding (and, for
    # moving_average, the early-emission sweep firing mid-run).
    assert_conforms(name, block_size=block_size, map_path="batch")


@pytest.mark.parametrize("name", BATCH_WORKLOADS)
def test_batch_conforms_spmd(name):
    assert_conforms(name, ranks=2, map_path="batch")


def test_registry_matches_kernel_lists():
    # The two lists above are the whole registry's kernels, and the
    # exact ones are held to 0 ULP — no allowance to hide behind.
    with_kernel = {n for n in workload_names() if get_workload(n).has_batch_path}
    assert with_kernel == set(BATCH_WORKLOADS)
    assert all(get_workload(n).batch_ulp == 0 for n in EXACT_WORKLOADS)


# ---------------------------------------------------------------------------
# "zero objects": batch map -> local combine -> wire -> global combine
# builds no reduction object until user code asks for one
# ---------------------------------------------------------------------------

class CountedObj(SumCountObj):
    """``SumCountObj`` that logs every construction (``__new__`` is the
    one door ``__init__``, ``unpack_from``, pickle and ``clone`` share) as
    one byte appended to ``log_fd`` — a descriptor forked engine workers
    inherit, so the count covers them too."""

    __slots__ = ()
    log_fd: int | None = None

    def __new__(cls, *args, **kwargs):
        if CountedObj.log_fd is not None:
            os.write(CountedObj.log_fd, b".")
        return super().__new__(cls)


class CountedGrid(GridAggregation):
    """Grid aggregation over ``CountedObj`` rows.  The row prototype is
    built once at import, so a run's count is materialisations only."""

    prototype = CountedObj()

    def make_accumulator(self, start, stop):
        window = super().make_accumulator(start, stop)
        return ColumnarAccumulator(self.prototype, window.key_lo, window.key_hi)


@pytest.fixture
def constructions(tmp_path, monkeypatch):
    """``constructions()`` -> CountedObj objects built so far, any process."""
    fd = os.open(tmp_path / "constructions",
                 os.O_CREAT | os.O_WRONLY | os.O_APPEND)
    monkeypatch.setattr(CountedObj, "log_fd", fd)
    yield lambda: os.fstat(fd).st_size
    os.close(fd)


GRID_DATA = np.random.default_rng(5).normal(size=4096)


def _grid_policy(extra=""):
    return ExecutionPolicy.parse("map=batch,wire=columnar," + extra)


def _grid_state(com_map):
    return [(k, o.total, o.count) for k, o in com_map.sorted_items()]


def _scalar_grid_state(data=GRID_DATA):
    with GridAggregation(ExecutionPolicy.parse("map=scalar"), grid_size=8) as oracle:
        return _grid_state(oracle.run(data))


@pytest.mark.parametrize("algorithm", ["gather", "tree"])
def test_spmd_batch_run_builds_zero_objects(algorithm, constructions):
    def body(comm):
        half = len(GRID_DATA) // comm.size
        app = CountedGrid(_grid_policy(f"algo={algorithm}"), comm, grid_size=8)
        with app:
            return app.run(GRID_DATA[comm.rank * half:(comm.rank + 1) * half],
                           global_offset=comm.rank * half,
                           total_len=len(GRID_DATA))

    maps = spmd_launch(2, body)
    assert constructions() == 0
    assert all(m.packed is not None and len(m) == 512 for m in maps)
    first = list(maps[0].items())
    assert constructions() == len(first) == 512
    maps[0].items(), maps[0].sorted_items(), maps[0][3]
    assert constructions() == 512  # materialised once, not per access
    assert _grid_state(maps[0]) == _grid_state(maps[1]) == _scalar_grid_state()


def test_batch_zero_copy_wire_export(constructions):
    # Process engine, 2 workers: the worker's batch kernel leaves its
    # reduction map backed, the columnar wire ships those columns, and
    # the parent adopts and combines them — no object in any process.
    policy = _grid_policy("engine=process,threads=2")
    with CountedGrid(policy, grid_size=8) as app:
        com_map = app.run(GRID_DATA)
        assert constructions() == 0
        assert com_map.packed is not None
        assert _grid_state(com_map) == _scalar_grid_state()
        assert constructions() == len(com_map) == 512
    assert not mismatch_report("histogram", engine="process", num_threads=2,
                               wire_format="columnar", block_size=256,
                               map_path="batch")


def test_second_block_outside_the_window_folds_through_objects(constructions):
    # block_size < n: block 2 seeds from a backed map whose keys all lie
    # outside its window, so that fold must keep them — as objects.
    with CountedGrid(_grid_policy("block=1024"), grid_size=8) as app:
        com_map = app.run(GRID_DATA)
    assert constructions() > 0 and com_map.packed is None
    assert _grid_state(com_map) == _scalar_grid_state()


@pytest.mark.parametrize("engine", ["serial", "thread", "process"])
def test_seeded_kmeans_stays_on_objects(engine):
    # post_combine rewrites centroids on the objects, so every iteration
    # seeds reduction maps from an object map; 0-ULP agreement across
    # engines and wires is test_float_kernel_bit_exact_on_columnar_wire.
    workload = get_workload("kmeans")
    config = Config(workload="kmeans", engine=engine, num_threads=2,
                    wire_format="columnar", map_path="batch")
    data = workload.make_data(config.seed)
    policy = config.execution_policy().evolve(extra_data=workload.extra(data))
    with workload.build(policy) as app:
        app.run(data)
        assert app.telemetry.counter("run.iterations_run") == 3
        assert app.get_combination_map().packed is None


class CountedWindowObj(WindowSumObj):
    """``WindowSumObj`` that logs constructions like :class:`CountedObj`
    (and to the same descriptor)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        if CountedObj.log_fd is not None:
            os.write(CountedObj.log_fd, b".")
        return super().__new__(cls)


class CountedMA(MovingAverage):
    """Moving average over ``CountedWindowObj`` rows (prototype built
    once at import, as in :class:`CountedGrid`)."""

    prototype = CountedWindowObj(7)

    def make_accumulator(self, start, stop):
        window = super().make_accumulator(start, stop)
        return ColumnarAccumulator(self.prototype, window.key_lo, window.key_hi)


WINDOW_DATA = np.random.default_rng(0).normal(size=512)


def _run_window(cls, spec, comm=None, data=WINDOW_DATA, **layout):
    """``(out, early_emissions, peak_red_objects, map still backed)``."""
    out = np.full(len(WINDOW_DATA), np.nan)
    with cls(ExecutionPolicy.parse(spec), comm, win_size=7) as app:
        app.run2(data, out, **layout)
        return (out, app.telemetry.counter("run.early_emissions"),
                app.telemetry.counter("run.peak_red_objects"),
                app.get_combination_map().packed is not None)


def _assert_same_run(batch, scalar):
    assert np.array_equal(batch[0], scalar[0], equal_nan=True)
    assert batch[1:3] == scalar[1:3]


@pytest.mark.parametrize("emission", ["on", "off"])
@pytest.mark.parametrize("engine,threads", [
    ("serial", 1), ("thread", 2), ("process", 2),
])
def test_window_emission_builds_zero_objects(engine, threads, emission, constructions):
    # WindowSumObj states its trigger on columns and MovingAverage its
    # convert: the kernel's rows are swept, converted and dropped as
    # arrays — in the process engine's workers too — and the boundary
    # windows left for combination stay a backed map, emission on or off.
    spec = (f"wire=columnar,engine={engine},threads={threads},"
            f"hold={int(emission == 'off')}")
    batch = _run_window(CountedMA, "map=batch," + spec)
    assert constructions() == 0
    assert batch[3], "combination map materialised"
    assert (batch[1] > 0) == (emission == "on")
    _assert_same_run(batch, _run_window(MovingAverage, "map=scalar," + spec))


def test_window_second_block_drops_fired_seeded_keys(constructions):
    # block < n: a block's trailing windows are seeded into the next
    # block's accumulator, complete there and leave the map.  The map
    # also holds the array's leading edge, outside that window, so these
    # folds go through objects — the unfired boundary rows only.
    batch = _run_window(CountedMA, "map=batch,block=128")
    assert 0 < constructions() <= 4 * 4 * 7
    _assert_same_run(batch, _run_window(MovingAverage, "map=scalar,block=128"))
    assert batch[1] == len(WINDOW_DATA) - 6


@pytest.mark.parametrize("engine", ["thread", "process"])
def test_multi_block_window_run_equals_serial(engine):
    # Four blocks on two threads: eight splits of 64, each emitting its 58
    # interior windows.  The blocks' emitted-key arrays are joined per
    # iteration and kept out of the final convert sweep on every engine.
    spec = "map=batch,block=128,threads=2,engine="
    serial = _run_window(MovingAverage, spec + "serial")
    _assert_same_run(_run_window(MovingAverage, spec + engine), serial)
    _assert_same_run(serial, _run_window(MovingAverage, "map=scalar,block=128,threads=2"))
    assert serial[1] == 8 * (64 - 6)


def test_window_straddling_ranks_combines_as_columns(constructions):
    # Two ranks: the six windows across the seam never fill up locally,
    # reach global combination as columns and are converted from the
    # combined backing; no rank builds an object.
    def body(cls, map_path):
        def run(comm):
            half = len(WINDOW_DATA) // comm.size
            return _run_window(
                cls, f"map={map_path},wire=columnar", comm,
                WINDOW_DATA[comm.rank * half:(comm.rank + 1) * half],
                global_offset=comm.rank * half, total_len=len(WINDOW_DATA))
        return run

    batch = spmd_launch(2, body(CountedMA, "batch"))
    assert constructions() == 0
    for mine, oracle in zip(batch, spmd_launch(2, body(MovingAverage, "scalar"))):
        assert mine[3] and mine[1] == 256 - 6
        _assert_same_run(mine, oracle)
        assert not np.isnan(mine[0][253:259]).any()


def test_batch_with_early_emission_disabled():
    rng = np.random.default_rng(0)
    data = rng.normal(size=512)

    def run(map_path):
        app = MovingAverage(
            ExecutionPolicy(
                engine=EnginePolicy(map_path=map_path), disable_early_emission=True
            ),
            win_size=7,
        )
        out = np.full(512, np.nan)
        with app:
            app.run2(data, out)
            counters = app.telemetry_snapshot()["counters"]
        return out, counters

    scalar_out, _ = run("scalar")
    batch_out, counters = run("batch")
    assert np.array_equal(scalar_out, batch_out)
    assert counters.get("run.early_emissions", 0) == 0


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------

def _run_histogram_counters(**kw):
    config = Config(workload="histogram", **kw)
    return execute(get_workload("histogram"), config).counters


def test_batch_reports_zero_accumulate_calls_explicitly():
    counters = _run_histogram_counters(map_path="batch")
    # The gauge is *present* at zero — "no scalar work ran", not
    # "counter missing".
    assert counters["run.accumulate_calls"] == 0
    assert counters["run.batch_reduce_calls"] > 0
    assert counters["run.batch_elements"] == 2048


def test_scalar_counts_accumulate_calls():
    counters = _run_histogram_counters(map_path="scalar")
    assert counters["run.accumulate_calls"] == 2048
    assert counters.get("run.batch_reduce_calls", 0) == 0


# ---------------------------------------------------------------------------
# map_path="auto": the kernel when it describes the app, else scalar
# ---------------------------------------------------------------------------

def test_default_policy_runs_batch_kernel():
    app = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=8)
    app.run(np.random.default_rng(0).normal(size=256))
    assert app.telemetry.counter("run.batch_reduce_calls") > 0
    assert app.telemetry.counter("run.accumulate_calls") == 0


@pytest.mark.parametrize("name", BATCH_WORKLOADS)
def test_every_kernel_is_reached_by_default(name):
    counters = execute(get_workload(name), Config(workload=name)).counters
    assert counters["run.batch_reduce_calls"] > 0
    assert counters["run.accumulate_calls"] == 0


def test_auto_without_kernel_runs_scalar():
    app = ScalarOnly(ExecutionPolicy())
    app.run(np.ones(8))
    assert app.telemetry.counter("run.accumulate_calls") == 8
    assert app.telemetry.counter("run.batch_reduce_calls") == 0


def test_auto_falls_back_when_subclass_overrides_accumulate():
    class DoubleCount(Histogram):
        """Changes the map semantics below the kernel's class."""

        def accumulate(self, chunk, data, red_obj, key):
            red_obj = super().accumulate(chunk, data, red_obj, key)
            red_obj.count += 1
            return red_obj

    data = np.random.default_rng(1).normal(size=64)
    app = DoubleCount(ExecutionPolicy(), lo=-4, hi=4, num_buckets=8)
    app.run(data)
    assert app.telemetry.counter("run.batch_reduce_calls") == 0
    assert app.telemetry.counter("run.accumulate_calls") == 64
    assert app.counts().sum() == 128
    # Forcing the inherited kernel stays possible (and ignores the override).
    forced = DoubleCount(
        ExecutionPolicy(engine=EnginePolicy(map_path="batch")),
        lo=-4, hi=4, num_buckets=8,
    )
    forced.run(data)
    assert forced.counts().sum() == 64


def test_subclass_that_keeps_the_map_callbacks_keeps_the_kernel():
    class Renamed(Histogram):
        def counts(self):
            return super().counts()

    app = Renamed(ExecutionPolicy(), lo=-4, hi=4, num_buckets=8)
    app.run(np.zeros(16))
    assert app.telemetry.counter("run.batch_reduce_calls") > 0


# ---------------------------------------------------------------------------
# mutation gate: a corrupted scatter kernel must be caught
# ---------------------------------------------------------------------------

def test_conformance_catches_corrupted_scatter(monkeypatch):
    def corrupted(self, data, start, stop, acc):
        block = data[start:stop]
        keys = ((block - self.lo) / self.width).astype(np.int64)
        np.clip(keys, 0, self.num_buckets - 1, out=keys)
        counts = np.bincount(keys, minlength=self.num_buckets)
        counts = np.roll(counts, 1)  # off-by-one-bucket scatter
        col = acc.column("count")
        col += counts
        acc.contrib += counts

    monkeypatch.setattr(Histogram, "batch_reduce", corrupted)
    mismatches = mismatch_report("histogram", map_path="batch")
    assert mismatches, "corrupted kernel slipped through conformance"
    assert any(m.kind == "value" for m in mismatches)
