"""Figure 11 bench: early emission of reduction objects.

Benchmarks the real trigger-on vs trigger-off reduction paths (measuring
the state-size effect directly) and regenerates the modeled paper-scale
sweeps with their crashes.
"""

import numpy as np
import pytest

from benchmarks.conftest import regenerate
from repro.analytics import MovingAverage, MovingMedian
from repro.core import EnginePolicy, ExecutionPolicy
from repro.harness import fig11


def test_fig11_regenerate(figure_results, benchmark):
    results = regenerate(figure_results, "fig11", fig11.run, benchmark)
    # Measured layer: identical results, orders-of-magnitude fewer live
    # reduction objects with the trigger.
    measured = results["measured"]
    assert measured["peak_off"] / measured["peak_on"] > 100
    # Modeled layer: speedup grows with the step size and the trigger-less
    # variant crashes at the largest configurations (paper: 5.6x / 5.2x).
    a = results["fig11a"]
    assert a[sorted(a)[-1]]["off_crashed"]
    assert max(v["speedup"] for v in a.values() if not v["off_crashed"]) > 2.0
    b = results["fig11b"]
    assert b[sorted(b)[-1]]["off_crashed"]
    assert max(v["speedup"] for v in b.values() if not v["off_crashed"]) > 2.0


@pytest.fixture(scope="module")
def signal():
    return np.random.default_rng(11).normal(size=20_000)


def _run_moving_average(signal, disable):
    # Scalar: the figure measures Algorithm 2's per-chunk trigger.
    app = MovingAverage(
        ExecutionPolicy(
            engine=EnginePolicy(map_path="scalar"), disable_early_emission=disable
        ),
        win_size=7,
    )
    out = np.full(signal.shape[0], np.nan)
    app.run2(signal, out)
    return out


def test_bench_moving_average_with_trigger(benchmark, signal):
    benchmark(lambda: _run_moving_average(signal, disable=False))


def test_bench_moving_average_without_trigger(benchmark, signal):
    benchmark(lambda: _run_moving_average(signal, disable=True))


def test_bench_moving_median_with_trigger(benchmark, signal):
    small = signal[:3000]

    def run():
        app = MovingMedian(ExecutionPolicy(), win_size=11)
        out = np.full(small.shape[0], np.nan)
        app.run2(small, out)
        return out

    benchmark(run)


def test_bench_moving_median_without_trigger(benchmark, signal):
    small = signal[:3000]

    def run():
        app = MovingMedian(ExecutionPolicy(disable_early_emission=True), win_size=11)
        out = np.full(small.shape[0], np.nan)
        app.run2(small, out)
        return out

    benchmark(run)
