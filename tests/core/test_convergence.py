"""Convergence-based early termination of iterative applications."""

import numpy as np
import pytest

from repro.analytics import KMeans, make_blobs, reference_kmeans
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy


@pytest.fixture
def blobs():
    flat, _ = make_blobs(500, 2, 3, spread=0.1, seed=71)
    init = flat.reshape(-1, 2)[:3].copy()
    return flat, init


class TestKMeansTolerance:
    def test_stops_before_num_iters(self, blobs):
        flat, init = blobs
        app = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=100, extra_data=init),
            dims=2, tolerance=1e-9,
        )
        app.run(flat)
        assert app.telemetry.counter("run.iterations_run") < 100
        assert app.last_shift <= 1e-9

    def test_converged_result_is_a_lloyd_fixed_point(self, blobs):
        flat, init = blobs
        app = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=100, extra_data=init),
            dims=2, tolerance=1e-12,
        )
        app.run(flat)
        iters = app.telemetry.counter("run.iterations_run")
        # One more reference iteration from the converged state changes
        # nothing (within float tolerance).
        assert np.allclose(
            app.centroids(), reference_kmeans(flat, init, iters + 5), atol=1e-8
        )

    def test_without_tolerance_runs_all_iterations(self, blobs):
        flat, init = blobs
        app = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=7, extra_data=init),
            dims=2,
        )
        app.run(flat)
        assert app.telemetry.counter("run.iterations_run") == 7

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            KMeans(ExecutionPolicy(chunk_size=2), dims=2, tolerance=0.0)

    def test_ranks_break_in_lockstep(self, blobs):
        """converged() sees the globally combined map, so every rank stops
        at the same iteration — no rank is left waiting in a collective."""
        flat, init = blobs

        def body(comm):
            pts = flat.reshape(-1, 2)
            part = np.array_split(pts, comm.size)[comm.rank].reshape(-1)
            app = KMeans(
                ExecutionPolicy(chunk_size=2, num_iters=50, extra_data=init),
                comm, dims=2, tolerance=1e-9,
            )
            app.run(part)
            return app.telemetry.counter("run.iterations_run"), app.centroids()

        results = spmd_launch(3, body, timeout=60)
        iteration_counts = {r[0] for r in results}
        assert len(iteration_counts) == 1  # lockstep
        for _, centroids in results[1:]:
            assert np.allclose(centroids, results[0][1], atol=1e-10)

    def test_shift_tracks_movement(self, blobs):
        flat, init = blobs
        app = KMeans(
            ExecutionPolicy(chunk_size=2, num_iters=1, extra_data=init),
            dims=2,
        )
        app.run(flat)
        first_shift = app.last_shift
        assert first_shift > 0
        app.run(flat)  # keeps iterating from the moved centroids
        assert app.last_shift < first_shift
