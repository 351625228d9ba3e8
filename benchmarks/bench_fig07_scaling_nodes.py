"""Figure 7 bench: node scaling of the nine applications on Heat3D.

The cluster sweep is modeled (see DESIGN.md); the benches here measure
the two ingredients the model replays — the Heat3D step kernel and each
application's per-element reduction — and the regeneration asserts the
figure's headline (93% average parallel efficiency).
"""

import numpy as np
import pytest

from benchmarks.conftest import regenerate
from repro.analytics import GridAggregation, Histogram, MutualInformation
from repro.core import ExecutionPolicy
from repro.harness import fig07
from repro.sim import Heat3D


def test_fig07_regenerate(figure_results, benchmark):
    results = regenerate(figure_results, "fig7", fig07.run, benchmark)
    assert 0.85 <= results["average_efficiency"] <= 1.1  # paper: 93%
    # Doubling nodes must never slow any application down.
    for app, times in results["times"].items():
        nodes = sorted(times)
        for a, b in zip(nodes, nodes[1:]):
            assert times[b] < times[a], app
    # The memory-pressured variant shows the paper's super-linear effect.
    pressured = results["pressured"]
    assert pressured[4] / pressured[8] > 2.0


def test_bench_heat3d_step(benchmark):
    sim = Heat3D((24, 48, 48))
    benchmark(sim.advance)


@pytest.mark.parametrize(
    "name,factory",
    [
        ("grid_aggregation",
         lambda: GridAggregation(ExecutionPolicy(), grid_size=1000)),
        ("histogram",
         lambda: Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=1200)),
        ("mutual_information",
         lambda: MutualInformation(ExecutionPolicy(chunk_size=2),
                                   x_range=(-4, 4), y_range=(-4, 4), bins=100)),
    ],
)
def test_bench_scan_application_kernels(benchmark, name, factory):
    data = np.random.default_rng(7).normal(size=100_000)
    app = factory()
    benchmark(lambda: (app.reset(), app.run(data)))
