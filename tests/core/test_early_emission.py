"""Early emission of reduction objects (Algorithm 2)."""

import numpy as np
import pytest

from repro.analytics import MovingAverage, MovingMedian, reference_moving_average
from repro.analytics.objects import WindowSumObj
from repro.core import (
    ColumnarAccumulator,
    EnginePolicy,
    ExecutionPolicy,
    Field,
    RedObj,
    Scheduler,
)


def run_moving_average(n, win, **args_kw):
    data = np.linspace(0.0, 1.0, n)
    app = MovingAverage(ExecutionPolicy(**args_kw), win_size=win)
    out = np.full(n, np.nan)
    app.run2(data, out)
    return app, out, data


class TestEquivalence:
    @pytest.mark.parametrize("n", [10, 64, 301])
    @pytest.mark.parametrize("win", [3, 7, 11])
    def test_results_identical_with_and_without_trigger(self, n, win):
        _, with_trigger, data = run_moving_average(n, win)
        _, without, _ = run_moving_average(n, win, disable_early_emission=True)
        assert np.allclose(with_trigger, without)
        assert np.allclose(with_trigger, reference_moving_average(data, win))


class TestMemoryEffect:
    def test_peak_objects_bounded_by_window_not_input(self):
        app_on, _, _ = run_moving_average(500, 7)
        app_off, _, _ = run_moving_average(500, 7, disable_early_emission=True)
        assert app_off.telemetry.counter("run.peak_red_objects") >= 500
        # With the trigger, only in-flight windows are held: O(W), not O(N).
        assert app_on.telemetry.counter("run.peak_red_objects") <= 3 * 7

    def test_emission_counter(self):
        app, _, _ = run_moving_average(100, 5)
        # Boundary windows (2 on each side) never reach full coverage.
        assert app.telemetry.counter("run.early_emissions") == 100 - 4

    def test_no_emissions_when_disabled(self):
        app, out, data = run_moving_average(100, 5, disable_early_emission=True)
        assert app.telemetry.counter("run.early_emissions") == 0
        # ...and the final sweep converted the columns: no object was built.
        assert app.get_combination_map().packed is not None
        assert np.allclose(out, reference_moving_average(data, 5))


class TestEmittedKeysNotReconverted:
    def test_emitted_key_written_once(self):
        """A key converted at emission must not be re-converted at output
        time (it is gone from the maps; the final loop skips it)."""

        writes: dict[int, int] = {}

        class CountingMA(MovingAverage):
            def convert(self, red_obj, out, key):
                writes[key] = writes.get(key, 0) + 1
                super().convert(red_obj, out, key)

        data = np.arange(50, dtype=float)
        app = CountingMA(ExecutionPolicy(), win_size=5)
        app.run2(data, np.full(50, np.nan))
        assert all(count == 1 for count in writes.values())
        assert len(writes) == 50


class TestArrayForms:
    """``trigger_rows`` / ``convert_rows`` are optional: the batch path's
    one sweep serves classes that only have the scalar callbacks, and a
    scalar override below an array form wins over it."""

    def test_trigger_override_below_trigger_rows_is_honoured(self):
        class NeverFire(WindowSumObj):
            __slots__ = ()

            def trigger(self):
                return False

        class HoldingMA(MovingAverage):
            window_obj = NeverFire

        data = np.linspace(0.0, 1.0, 100)
        out = np.full(100, np.nan)
        app = HoldingMA(ExecutionPolicy.parse("map=batch"), win_size=5)
        app.run2(data, out)
        assert app.telemetry.counter("run.batch_reduce_calls") == 1
        assert app.telemetry.counter("run.early_emissions") == 0
        assert app.telemetry.counter("run.peak_red_objects") == 100
        assert np.array_equal(out, run_moving_average(
            100, 5, engine=EnginePolicy(map_path="scalar"))[1])

    def test_scalar_only_callbacks_match_the_scalar_path(self):
        class PairObj(RedObj):
            """Schema and ``trigger``, no ``trigger_rows``."""

            __slots__ = ("total", "count")

            def __init__(self):
                self.total, self.count = 0.0, 0

            def fields(self):
                return (Field("total", np.float64, "sum"),
                        Field("count", np.int64, "sum"))

            def trigger(self):
                return self.count == 2

        class PairMeans(Scheduler):
            """Mean of each adjacent pair; ``convert``, no ``convert_rows``."""

            def gen_key(self, chunk, data, combination_map):
                return chunk.start // 2

            def accumulate(self, chunk, data, red_obj, key):
                red_obj = red_obj or PairObj()
                red_obj.total += float(data[chunk.start])
                red_obj.count += 1
                return red_obj

            def merge(self, red_obj, com_obj):
                com_obj.total += red_obj.total
                com_obj.count += red_obj.count
                return com_obj

            def convert(self, red_obj, out, key):
                out[key] = red_obj.total / red_obj.count

            def make_accumulator(self, start, stop):
                return ColumnarAccumulator(PairObj(), start // 2, (stop + 1) // 2)

            def batch_reduce(self, data, start, stop, acc):
                rows = np.arange(start, stop) // 2 - acc.key_lo
                np.add.at(acc.column("total"), rows, data[start:stop])
                np.add.at(acc.column("count"), rows, 1)
                np.add.at(acc.contrib, rows, 1)

        data = np.random.default_rng(3).normal(size=101)  # last pair is half full

        def run(spec):
            out = np.full(51, np.nan)
            app = PairMeans(ExecutionPolicy.parse(spec))
            app.run(data, out)
            return (out, app.telemetry.counter("run.early_emissions"),
                    app.telemetry.counter("run.peak_red_objects"))

        for layout in ("", ",block=25", ",engine=thread,threads=3"):
            batch, scalar = run("map=batch" + layout), run("map=scalar" + layout)
            assert np.array_equal(batch[0], scalar[0]) and batch[1:] == scalar[1:]
            assert batch[1] == 50 and not np.isnan(batch[0]).any()


class TestHolisticObjects:
    def test_median_trigger_requires_full_window(self):
        data = np.random.default_rng(0).normal(size=120)
        app = MovingMedian(ExecutionPolicy(), win_size=9)
        out = np.full(120, np.nan)
        app.run2(data, out)
        assert app.telemetry.counter("run.early_emissions") == 120 - 8
        assert not np.isnan(out).any()


class TestMultiRankBoundaries:
    def test_windows_spanning_ranks_resolved_by_combination(self):
        from repro.comm import spmd_launch
        from repro.core import merge_distributed_output

        data = np.random.default_rng(1).normal(size=90)
        ref = reference_moving_average(data, 7)

        def body(comm):
            parts = np.array_split(data, comm.size)
            offset = sum(len(p) for p in parts[: comm.rank])
            app = MovingAverage(ExecutionPolicy(), comm, win_size=7)
            out = np.full(90, np.nan)
            app.run2(parts[comm.rank], out, global_offset=offset, total_len=90)
            return merge_distributed_output(comm, out)

        for merged in spmd_launch(3, body, timeout=30):
            assert np.allclose(merged, ref)
