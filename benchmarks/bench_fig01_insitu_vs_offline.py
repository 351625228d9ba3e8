"""Figure 1 bench: in-situ vs offline k-means on Heat3D.

Regenerates the figure's rows (measured real-I/O table + paper-scale
modeled table) and benchmarks the two pipelines' single-step costs.
"""

import numpy as np

from benchmarks.conftest import regenerate
from repro.analytics import KMeans
from repro.baselines import OfflineDriver
from repro.core import ExecutionPolicy, TimeSharingDriver
from repro.harness import fig01
from repro.sim import Heat3D

GRID = (16, 24, 24)


def make_kmeans(iters=4):
    probe = Heat3D(GRID)
    init = probe.advance().reshape(-1, 4)[:8].copy()
    return KMeans(
        ExecutionPolicy(chunk_size=4, num_iters=iters, extra_data=init),
        dims=4,
    )


def test_fig01_regenerate(figure_results, benchmark):
    data = regenerate(figure_results, "fig1", fig01.run, benchmark)
    measured = {k: v for k, v in data.items() if k != "modeled"}
    # The figure's shape: the in-situ advantage shrinks as analytics
    # computation grows (paper Fig. 1).
    speedups = [measured[i]["speedup"] for i in sorted(measured)]
    assert speedups[0] >= speedups[-1] * 0.8
    # At paper scale the modeled in-situ advantage is large at low iteration
    # counts (paper: up to 10.4x).
    assert data["modeled"][min(data["modeled"])]["speedup"] > 3.0


def test_bench_insitu_step(benchmark):
    driver = TimeSharingDriver(Heat3D(GRID), make_kmeans())
    benchmark(lambda: driver.run(1))


def test_bench_offline_step(benchmark, tmp_path):
    sim = Heat3D(GRID)
    app = make_kmeans()
    driver = OfflineDriver(sim, app, scratch_dir=tmp_path)
    benchmark(lambda: driver.run(1))


def test_bench_offline_io_only(benchmark, tmp_path):
    """The store+load round trip the paper's Fig. 1 I/O bar measures."""
    import os

    payload = np.random.default_rng(0).random(GRID[0] * GRID[1] * GRID[2])
    path = tmp_path / "step.bin"

    def roundtrip():
        with open(path, "wb") as fh:
            fh.write(payload.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        return np.fromfile(path, dtype=np.float64)

    benchmark(roundtrip)
