"""Figure 9 bench: time-sharing zero-copy vs extra-copy.

Benchmarks the real zero-copy and copying code paths at this host's scale
(the measured micro-comparison) and regenerates the modeled paper-scale
sweeps with their memory cliffs.
"""

import numpy as np
import pytest

from benchmarks.conftest import regenerate
from repro.analytics import LogisticRegression
from repro.core import ExecutionPolicy
from repro.harness import fig09


def test_fig09_regenerate(figure_results, benchmark):
    results = regenerate(figure_results, "fig9", fig09.run, benchmark)
    # 9a shape: small gains at small steps, blow-up near the bound, crash
    # past it (paper: up to 11% then crash at 2 GB).
    a = results["fig9a"]
    steps = sorted(a)
    assert a[steps[0]]["gain"] < 1.10
    assert a[steps[-1]]["copy_crashed"]
    # 9b shape: flat until the knee, multi-x at edge 233 (paper: 5x).
    b = results["fig9b"]
    edges = sorted(b)
    assert b[edges[0]]["gain"] < 1.10
    assert b[edges[-1]]["gain"] > 2.0
    # Measured micro-comparison: the copy costs real time even unpressured.
    assert results["measured_copy"]["copy"] > results["measured_copy"]["nocopy"]


@pytest.fixture(scope="module")
def lr_data():
    rng = np.random.default_rng(9)
    data = rng.normal(size=16 * 40_000)
    data.reshape(-1, 16)[:, 15] = data.reshape(-1, 16)[:, 15] > 0
    return data


def _make_lr(copy_input):
    return LogisticRegression(
        ExecutionPolicy(chunk_size=16, num_iters=3, copy_input=copy_input),
        dims=15,
    )


def test_bench_zero_copy_run(benchmark, lr_data):
    app = _make_lr(copy_input=False)
    benchmark(lambda: (app.reset(), app.run(lr_data)))


def test_bench_extra_copy_run(benchmark, lr_data):
    app = _make_lr(copy_input=True)
    benchmark(lambda: (app.reset(), app.run(lr_data)))


def test_bench_raw_memcpy(benchmark, lr_data):
    """The raw cost the extra-copy variant adds per time-step."""
    benchmark(lambda: lr_data.copy())
