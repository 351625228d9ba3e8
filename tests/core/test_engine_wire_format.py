"""Engines x columnar wire format: packed buffers across worker boundaries.

``wire_format`` is the comm wire.  On its own pipes the process engine
moves a map as contiguous packed buffers whenever the objects have a
schema and pickles it otherwise, under either setting, and sends
nothing for a map the worker derives itself (an iteration's seed).
Every backend must still match the serial/pickle ground truth bit for
bit — including early emission and seeded iterative runs.
"""

import numpy as np
import pytest

from repro.analytics import Histogram, MovingAverage, MovingMedian
from repro.core import CombinePolicy, EnginePolicy, ExecutionPolicy
from tests.workloads import (
    ENGINES,
    assert_conforms,
    assert_kernel_transparent,
)


@pytest.fixture(scope="module")
def scalars():
    return np.random.default_rng(11).normal(size=4096)


def _counts(app):
    return {k: v.count for k, v in app.get_combination_map().sorted_items()}


class TestColumnarEquivalenceMatrix:
    """Ground truth is the serial engine on the pickle wire format.

    Thin wrappers over the ``repro.verify`` conformance kit: the oracle
    of each config resets the wire format to pickle, so a single
    ``assert_conforms`` call checks columnar transparency.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_histogram(self, engine):
        assert_conforms("histogram", engine=engine, wire_format="columnar", num_threads=3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kmeans_seeded_iterative(self, engine):
        assert_conforms("kmeans", engine=engine, wire_format="columnar", num_threads=2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_logistic_regression_iterative(self, engine):
        assert_conforms("logreg", engine=engine, wire_format="columnar", num_threads=2)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload", ["kmeans", "logreg"])
    def test_float_kernel_bit_exact_on_columnar_wire(self, engine, workload):
        """Kernel on engine x columnar vs the same kernel on
        serial/pickle, with no ulp allowance."""
        assert_kernel_transparent(workload, engine=engine,
                                  wire_format="columnar", num_threads=2)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload", ["moving_average", "moving_median"])
    def test_window_run2_early_emission(self, engine, workload):
        """MovingAverage packs columnar; MovingMedian's HoldAllObj is
        schemaless and must ride the pickle fallback transparently."""
        assert_conforms(workload, engine=engine, wire_format="columnar",
                        num_threads=3)


class TestProcessEngineWireAccounting:
    def test_columnar_maps_cross_worker_boundary(self, scalars):
        self.check_packed_replies(scalars, "columnar")

    def test_schema_maps_cross_packed_under_the_pickle_wire(self, scalars):
        self.check_packed_replies(scalars, "pickle")

    def check_packed_replies(self, scalars, wire_format):
        app = Histogram(
            ExecutionPolicy(
                engine=EnginePolicy(backend="process", num_threads=2),
                combine=CombinePolicy(wire_format=wire_format),
            ),
            lo=-4, hi=4, num_buckets=64,
        )
        app.run(scalars)
        ops = app.telemetry_snapshot()["ops"]
        assert ops["engine.wire.columnar"]["bytes"] > 0
        # One packed map back per worker; nothing goes out for the empty
        # maps the workers start from, and a schema is never pickled.
        assert ops["engine.wire.columnar"]["calls"] == 2
        assert "engine.wire.pickle" not in ops
        app.close()

    def test_schemaless_maps_are_pickled(self, scalars):
        """``HoldAllObj`` has no schema: its maps cross pickled even
        with ``wire_format="columnar"``."""
        args = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=2),
            combine=CombinePolicy(wire_format="columnar"),
        )
        with MovingMedian(args, win_size=5) as app:
            app.run2(scalars, np.full(len(scalars), np.nan))
            ops = app.telemetry_snapshot()["ops"]
        assert ops["engine.wire.pickle"]["calls"] == 4  # map + emitted, per worker
        assert "engine.wire.columnar" not in ops

    def test_emitted_rows_return_as_one_map_payload(self, scalars):
        """A worker's early-emitted entries come back as a second map
        payload — columns, for a window object — and the parent converts
        them once per split."""

        def run(engine):
            out = np.full(len(scalars), np.nan)
            args = ExecutionPolicy(
                engine=EnginePolicy(backend=engine, num_threads=2),
                combine=CombinePolicy(wire_format="columnar"),
            )
            with MovingAverage(args, win_size=7) as app:
                app.run2(scalars, out)
                return out, app.telemetry_snapshot()["ops"], app.stats.early_emissions

        out, ops, emissions = run("process")
        serial_out, _, serial_emissions = run("serial")
        assert np.array_equal(out, serial_out)
        # Two splits, each three windows short at its own two ends.
        assert emissions == serial_emissions == len(scalars) - 12
        # Per worker: the reduction map back, plus the emitted rows
        # (key + three 8-byte fields each).
        assert ops["engine.wire.columnar"]["calls"] == 4
        assert ops["engine.wire.columnar"]["bytes"] > emissions * 32
        # Nothing was pickled, and nothing was sent for the two empty
        # reduction maps the workers start from.
        assert "engine.wire.pickle" not in ops

    def test_large_packed_reply_crosses_the_pipe_intact(self):
        """num_buckets is chosen so a worker's reply packs past 64 KiB,
        more than a pipe buffers: it still arrives whole, as one message
        on the worker's pipe."""
        data = np.random.default_rng(8).uniform(-4, 4, size=200_000)
        buckets = 6000  # 6000 records x 16 B (key + count) > 64 KiB

        def run(engine, wire_format):
            app = Histogram(
                ExecutionPolicy(
                    engine=EnginePolicy(backend=engine, num_threads=2),
                    combine=CombinePolicy(wire_format=wire_format),
                ),
                lo=-4, hi=4, num_buckets=buckets,
            )
            app.run(data)
            counts = _counts(app)
            app.close()
            return counts

        assert run("process", "columnar") == run("serial", "pickle")

    def test_combined_with_allreduce_algorithm(self, scalars):
        """The full optimized stack: process engine, columnar boundary
        payloads, and the key vote's allreduce global combination (a
        no-op on one rank)."""
        app = Histogram(
            ExecutionPolicy(
                engine=EnginePolicy(backend="process", num_threads=2),
                combine=CombinePolicy(wire_format="columnar"),
            ),
            lo=-4, hi=4, num_buckets=32,
        )
        app.run(scalars)
        ref = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=32)
        ref.run(scalars)
        assert _counts(app) == _counts(ref)
        app.close()
