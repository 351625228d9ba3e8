"""Kernel-cost calibration.

The performance model's compute terms are *measured*, not guessed: each
application's per-element analytics cost and each simulation's
per-element step cost are timed on this host by running the very code in
this repository over a small workload.  Costs are then rescaled to the
paper's machines by clock ratio and core efficiency
(:meth:`~repro.perfmodel.machine.MachineSpec.core_seconds_scale`).

The applications' numpy batch kernels (what the default ``map_path``
runs) are used for calibration because they are the fair stand-in for the
paper's compiled C++ kernels; the scalar chunk-loop path measures Python
interpreter overhead, not the algorithm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analytics import (
    GaussianKernelSmoother,
    GridAggregation,
    Histogram,
    KMeans,
    LogisticRegression,
    MovingAverage,
    MovingMedian,
    MutualInformation,
    SavitzkyGolay,
    make_blobs,
    make_logreg_samples,
)
from ..core.policy import ExecutionPolicy
from ..sim import GaussianEmulator, Heat3D, LuleshProxy


@dataclass(frozen=True)
class KernelCost:
    """Measured single-thread cost of one kernel on the calibration host."""

    name: str
    seconds_per_element: float
    state_bytes: float  # reduction/combination state the kernel holds
    sync_bytes: float  # serialized combination-map payload per combination

    def scaled(self, factor: float) -> "KernelCost":
        return KernelCost(
            self.name, self.seconds_per_element * factor, self.state_bytes, self.sync_bytes
        )


def best_time(fn: Callable[[], None], repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn`` (per the guides: measure, min of runs)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _app_cost(name: str, scheduler, data: np.ndarray, multi_key: bool,
              record_len: int = 1) -> KernelCost:
    """Marginal per-element cost via a two-point slope.

    'Element' means one float of input — the unit the cluster model's
    workloads count in (``NodeWorkload.elements_per_step = bytes / 8``);
    applications whose records span several floats (k-means points, MI
    pairs, LR samples) still report cost per float.

    Per-run fixed overhead (scheduler bookkeeping, numpy call setup) does
    not scale with input, so measuring one size overstates the
    per-element cost — badly for fast kernels.  Timing the full input and
    a quarter of it and taking the slope isolates the marginal cost the
    cluster model should extrapolate with.
    """
    runner = scheduler.run2 if multi_key else scheduler.run
    elements = len(data)
    quarter_records = max(elements // record_len // 4, 1)
    small = data[: quarter_records * record_len]

    def body(payload: np.ndarray):
        def run() -> None:
            scheduler.reset()
            if multi_key:
                runner(payload, np.full(len(payload), np.nan))
            else:
                runner(payload)

        return run

    t_full = best_time(body(data))
    t_small = best_time(body(small))
    state = scheduler.telemetry_snapshot()["counters"]["run.state_nbytes"]
    from ..core.serialization import serialize_map

    sync = float(len(serialize_map(scheduler.get_combination_map())))
    delta_elements = elements - quarter_records * record_len
    if t_full > t_small and delta_elements > 0:
        per_element = (t_full - t_small) / delta_elements
    else:  # degenerate (noise or tiny input): fall back to the naive rate
        per_element = t_full / elements
    return KernelCost(name, per_element, float(state), sync)


def calibrate_analytics(scale: int = 200_000, seed: int = 7) -> dict[str, KernelCost]:
    """Measure per-element costs of all nine applications (batch kernel
    where one exists, scalar otherwise — i.e. the best available kernel,
    as the paper's C++ would be)."""
    rng = np.random.default_rng(seed)
    scalars = rng.normal(size=scale)
    costs: dict[str, KernelCost] = {}

    costs["grid_aggregation"] = _app_cost(
        "grid_aggregation",
        GridAggregation(ExecutionPolicy(), grid_size=1000),
        scalars, False,
    )
    costs["histogram"] = _app_cost(
        "histogram",
        Histogram(ExecutionPolicy(), lo=-4, hi=4, num_buckets=1200),
        scalars, False,
    )
    costs["mutual_information"] = _app_cost(
        "mutual_information",
        MutualInformation(ExecutionPolicy(chunk_size=2),
                          x_range=(-4, 4), y_range=(-4, 4), bins=100),
        scalars, False, record_len=2,
    )
    lr_flat, _ = make_logreg_samples(scale // 16, 15, seed=seed)
    costs["logistic_regression"] = _app_cost(
        "logistic_regression",
        LogisticRegression(ExecutionPolicy(chunk_size=16, num_iters=1), dims=15),
        lr_flat, False, record_len=16,
    )
    km_flat, _ = make_blobs(scale // 4, 4, 8, seed=seed)
    init = km_flat.reshape(-1, 4)[:8].copy()
    costs["kmeans"] = _app_cost(
        "kmeans",
        KMeans(ExecutionPolicy(chunk_size=4, num_iters=1, extra_data=init), dims=4),
        km_flat, False, record_len=4,
    )
    costs.update(calibrate_window_kernels(scale=scale, seed=seed))
    return costs


def calibrate_window_kernels(
    scale: int = 20_000, win_size: int = 25, seed: int = 7
) -> dict[str, KernelCost]:
    """Compiled-equivalent per-element costs of the four window kernels.

    The cluster model stands in for the paper's *C++* runtime, so window
    costs are measured from compiled (numpy/scipy) kernels computing the
    identical quantity — a Python chunk loop would overstate these
    applications' cost by 2-3 orders of magnitude and distort every
    analytics-to-simulation ratio downstream.  State/sync bytes still
    come from small runs of the real Smart applications.
    """
    import scipy.signal
    from numpy.lib.stride_tricks import sliding_window_view

    rng = np.random.default_rng(seed)
    data = rng.normal(size=scale)
    half = win_size // 2
    windows = sliding_window_view(data, win_size)

    def state_probe(app, n: int = 2000) -> tuple[float, float]:
        small = data[:n]
        app.run2(small, np.full(n, np.nan))
        from ..core.serialization import serialize_map

        return (
            float(app.telemetry_snapshot()["counters"]["run.state_nbytes"]),
            float(len(serialize_map(app.get_combination_map()))),
        )

    costs: dict[str, KernelCost] = {}

    kernel = np.ones(win_size) / win_size
    t = best_time(lambda: np.convolve(data, kernel, mode="same"))
    state, sync = state_probe(MovingAverage(ExecutionPolicy(), win_size=win_size))
    costs["moving_average"] = KernelCost("moving_average", t / scale, state, sync)

    t = best_time(lambda: np.median(windows, axis=1))
    state, sync = state_probe(MovingMedian(ExecutionPolicy(), win_size=win_size))
    costs["moving_median"] = KernelCost("moving_median", t / scale, state, sync)

    offsets = np.arange(-half, half + 1)
    weights = np.exp(-0.5 * (offsets / (win_size / 5.0)) ** 2)
    t = best_time(
        lambda: np.convolve(data, weights, mode="same")
        / np.convolve(np.ones_like(data), weights, mode="same")
    )
    state, sync = state_probe(GaussianKernelSmoother(ExecutionPolicy(), win_size=win_size))
    costs["kernel_density"] = KernelCost("kernel_density", t / scale, state, sync)

    t = best_time(lambda: scipy.signal.savgol_filter(data, win_size, 2))
    state, sync = state_probe(SavitzkyGolay(ExecutionPolicy(), win_size=win_size, polyorder=2))
    costs["savgol"] = KernelCost("savgol", t / scale, state, sync)
    return costs


def calibrate_simulations() -> dict[str, KernelCost]:
    """Measure per-element per-step costs of the simulation substrates."""
    costs: dict[str, KernelCost] = {}

    heat = Heat3D((24, 48, 48))
    elements = heat.partition_elements
    costs["heat3d"] = KernelCost(
        "heat3d", best_time(lambda: heat.advance()) / elements, 0.0, 0.0
    )

    lulesh = LuleshProxy(32)
    costs["lulesh"] = KernelCost(
        "lulesh", best_time(lambda: lulesh.advance()) / lulesh.partition_elements, 0.0, 0.0
    )

    emulator = GaussianEmulator(200_000)
    costs["emulator"] = KernelCost(
        "emulator",
        best_time(lambda: emulator.advance()) / emulator.partition_elements,
        0.0,
        0.0,
    )
    return costs
