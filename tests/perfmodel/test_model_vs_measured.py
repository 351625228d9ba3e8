"""Model-vs-measured sanity: the calibrated model must predict this host.

The cluster model's only claim is shape fidelity, but at 1 node / 1
thread on the calibration host itself its compute terms should track
reality closely — they ARE measurements.  These tests close that loop:
predict a single-node run from the calibrated costs, run it for real,
and require agreement within a small factor (generous: the measured run
includes scheduler bookkeeping the per-element calibration amortizes
differently, plus machine noise).
"""

import time

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, make_blobs
from repro.core import ExecutionPolicy
from repro.perfmodel import (
    AnalyticsModel,
    CALIBRATION_CLOCK_GHZ,
    MachineSpec,
    NodeWorkload,
    SimulationModel,
    model_time_sharing,
)
from repro.perfmodel.calibrate import calibrate_analytics, calibrate_simulations

#: A machine model of *this* host: one core at the calibration clock, no
#: network, memory large enough that pressure never engages.
THIS_HOST = MachineSpec(
    name="calibration-host",
    cores_per_node=1,
    clock_ghz=CALIBRATION_CLOCK_GHZ,
    core_efficiency=1.0,
    mem_bytes=1 << 40,
    net_latency_s=0.0,
    net_bandwidth_bps=1e12,
    sim_parallel_fraction=1.0,
    analytics_parallel_fraction=1.0,
    imbalance_coeff=0.0,
)

AGREEMENT_FACTOR = 4.0  # worst-case slack for noise + bookkeeping


@pytest.fixture(scope="module")
def costs():
    return calibrate_analytics(scale=100_000), calibrate_simulations()


def _measure(fn) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestSingleNodePredictions:
    def test_histogram_prediction_tracks_measurement(self, costs):
        app_costs, _sim_costs = costs
        elements = 400_000
        data = np.random.default_rng(3).normal(size=elements)
        hist = Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=1200)
        measured = _measure(lambda: (hist.reset(), hist.run(data)))

        cost = app_costs["histogram"]
        app = AnalyticsModel("histogram", cost.seconds_per_element)
        sim = SimulationModel("none", 0.0, memory_factor=0.0)
        pred = model_time_sharing(
            THIS_HOST, 1, 1, NodeWorkload(elements, 1), sim, app
        )
        ratio = pred.total_seconds / measured
        assert 1 / AGREEMENT_FACTOR < ratio < AGREEMENT_FACTOR, (
            f"model {pred.total_seconds:.4f}s vs measured {measured:.4f}s"
        )

    def test_kmeans_prediction_tracks_measurement(self, costs):
        app_costs, _sim_costs = costs
        flat, _ = make_blobs(40_000, 4, 8, seed=4)
        init = flat.reshape(-1, 4)[:8].copy()
        km = KMeans(
            ExecutionPolicy(chunk_size=4, num_iters=5, extra_data=init),
            dims=4,
        )
        measured = _measure(lambda: (km.reset(), km.run(flat)))

        cost = app_costs["kmeans"]
        app = AnalyticsModel("kmeans", cost.seconds_per_element, passes=5)
        sim = SimulationModel("none", 0.0, memory_factor=0.0)
        pred = model_time_sharing(
            THIS_HOST, 1, 1, NodeWorkload(flat.shape[0], 1), sim, app
        )
        ratio = pred.total_seconds / measured
        assert 1 / AGREEMENT_FACTOR < ratio < AGREEMENT_FACTOR, (
            f"model {pred.total_seconds:.4f}s vs measured {measured:.4f}s"
        )

    def test_simulation_prediction_tracks_measurement(self, costs):
        _app_costs, sim_costs = costs
        from repro.sim import Heat3D

        sim_obj = Heat3D((24, 48, 48))
        measured = _measure(sim_obj.advance)

        sim = SimulationModel(
            "heat3d", sim_costs["heat3d"].seconds_per_element, memory_factor=0.0
        )
        pred = model_time_sharing(
            THIS_HOST, 1, 1,
            NodeWorkload(sim_obj.partition_elements, 1),
            sim, AnalyticsModel("none", 0.0),
        )
        ratio = pred.total_seconds / measured
        assert 1 / AGREEMENT_FACTOR < ratio < AGREEMENT_FACTOR, (
            f"model {pred.total_seconds:.5f}s vs measured {measured:.5f}s"
        )
