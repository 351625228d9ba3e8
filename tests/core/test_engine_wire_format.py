"""Engines x columnar wire format: packed buffers across worker boundaries.

The process engine ships reduction maps to and from its workers with
the scheduler's configured wire format; with ``wire_format="columnar"``
those maps cross the boundary as contiguous packed buffers (large
returns through shared memory).  Every backend must still match the
serial/pickle ground truth bit for bit — including early emission and
seeded iterative runs.
"""

import numpy as np
import pytest

from repro.analytics import Histogram
from repro.core import SchedArgs
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
        app = Histogram(
            SchedArgs(num_threads=2, engine="process", wire_format="columnar"),
            lo=-4, hi=4, num_buckets=64,
        )
        app.run(scalars)
        ops = app.telemetry_snapshot()["ops"]
        assert ops["engine.wire.columnar"]["bytes"] > 0
        # Maps travel both directions (parent -> worker, worker -> parent).
        assert ops["engine.wire.columnar"]["calls"] >= 2
        app.close()

    def test_large_columnar_return_exercises_shm_path(self):
        """num_buckets is chosen so a worker's return map packs past the
        shared-memory threshold (64 KiB); results must be unaffected."""
        data = np.random.default_rng(8).uniform(-4, 4, size=200_000)
        buckets = 6000  # 6000 records x 16 B (key + count) > 64 KiB

        def run(engine, wire_format):
            app = Histogram(
                SchedArgs(num_threads=2, engine=engine, wire_format=wire_format),
                lo=-4, hi=4, num_buckets=buckets,
            )
            app.run(data)
            counts = _counts(app)
            app.close()
            return counts

        assert run("process", "columnar") == run("serial", "pickle")

    def test_combined_with_allreduce_algorithm(self, scalars):
        """The full optimized stack: process engine, columnar boundary
        payloads, and allreduce global combination on one rank."""
        app = Histogram(
            SchedArgs(num_threads=2, engine="process",
                      wire_format="columnar", combine_algorithm="allreduce"),
            lo=-4, hi=4, num_buckets=32,
        )
        app.run(scalars)
        ref = Histogram(SchedArgs(), lo=-4, hi=4, num_buckets=32)
        ref.run(scalars)
        assert _counts(app) == _counts(ref)
        app.close()
