"""Calibrated model profiles shared by the figure harnesses.

Calibration (running this repository's kernels) happens once per process
and is cached.  The memory factors below are the paper-scale working-set
parameters discussed in DESIGN.md/EXPERIMENTS.md: they describe the
*original* simulations' footprints (which the paper's crash points imply),
not our Python proxies' minimal state.
"""

from __future__ import annotations

from functools import lru_cache

from ..perfmodel import (
    AnalyticsModel,
    KernelCost,
    SimulationModel,
    calibrate_analytics,
    calibrate_simulations,
)

#: Default working-set factors (working set = factor x per-step output).
#: Free parameters, not measured footprints: our Heat3D proxy holds two
#: field buffers plus two cache-sized block buffers (just over 2x), and
#: 3.0 leaves room for the original code's halo and output staging; the
#: Lulesh proxy keeps four fields plus transients.
HEAT3D_MEMORY_FACTOR = 3.0
LULESH_MEMORY_FACTOR = 4.5

#: Figure-9 fitted footprints of the paper's *original* codes.  Fig. 9a's
#: crash at a 2 GB/node step on a 12 GB node implies the real Heat3D (plus
#: the extra copy) holds ~6.5 step-sized arrays; Fig. 9b's cliff at edge
#: 233 implies real LULESH's ~dozens of element/node fields, ghost zones
#: and comm buffers total ~125x its single-field output.  Fitted once,
#: stated in EXPERIMENTS.md.
HEAT3D_MEMORY_FACTOR_FIG9 = 5.05
LULESH_MEMORY_FACTOR_FIG9 = 125.1

#: Fig. 9 per-step *compute* of the original codes relative to our
#: minimal proxies (the paper's step time / our proxy's).  The paper's
#: Fig. 9a per-step times (~5-7 s at a 0.6 GB step) are ~50x our blocked
#: stencil proxy's; real LULESH runs ~120x more flops per element than our
#: four-field update.  Without these factors the modeled steps are so
#: fast that the extra memcpy alone dominates, which is not what the
#: paper measured.  Fitted once, stated in EXPERIMENTS.md; re-scaled by
#: the calibrated ns/elem ratio whenever a proxy's kernel gets faster.
HEAT3D_COMPUTE_FACTOR_FIG9 = 50.0
LULESH_COMPUTE_FACTOR_FIG9 = 120.0

#: Fig. 11a: Heat3D footprint there (smaller run, 300 GB) fitted so the
#: trigger-less moving average crashes at a 1 GB/node step.
HEAT3D_MEMORY_FACTOR_FIG11 = 5.0

#: In-memory bytes of one window reduction object (C++ map node + key +
#: WinObj) when early emission is disabled — with the factor above, puts
#: the Fig. 11a crash at a 1 GB/node step.
WINDOW_OBJ_BYTES = 64.0

#: Same for the holistic moving-median object (map node + two vectors with
#: capacity slack + output slot); fitted to place Fig. 11b's blow-up at
#: edge 200.
MEDIAN_OBJ_BYTES = 1600.0


@lru_cache(maxsize=None)
def analytics_costs() -> dict[str, KernelCost]:
    return calibrate_analytics()


@lru_cache(maxsize=None)
def simulation_costs() -> dict[str, KernelCost]:
    return calibrate_simulations()


@lru_cache(maxsize=None)
def sim_model(name: str, memory_factor: float | None = None) -> SimulationModel:
    """Calibrated simulation model; ``memory_factor`` overrides the default
    (figures that sweep memory pressure pass their fitted factor)."""
    cost = simulation_costs()[name]
    factor = (
        memory_factor
        if memory_factor is not None
        else {
            "heat3d": HEAT3D_MEMORY_FACTOR,
            "lulesh": LULESH_MEMORY_FACTOR,
            "emulator": 1.0,
        }[name]
    )
    return SimulationModel(
        name=name,
        seconds_per_element=cost.seconds_per_element,
        memory_factor=factor,
        halo_bytes_per_step=0.0,
    )


#: Fitted thread-scaling saturation caps (documented in EXPERIMENTS.md):
#: ``speedup(t) = t / (1 + t / sat)``.  The first five applications are
#: stream-bound scans/folds that saturate node memory bandwidth early;
#: the window applications are compute-bound and saturate later.  Caps
#: are fitted so Fig. 8's blended (simulation + analytics) efficiencies
#: land near the paper's 59% / 79% averages at 8 threads.
SCAN_SATURATION = 2.8
WINDOW_SATURATION = 10.0


def app_model(name: str, passes: int = 1) -> AnalyticsModel:
    """AnalyticsModel from the calibrated cost of application ``name``."""
    cost = analytics_costs()[name]
    saturation = WINDOW_SATURATION if name in WINDOW_FOUR else SCAN_SATURATION
    return AnalyticsModel(
        name=name,
        seconds_per_element=cost.seconds_per_element,
        passes=passes,
        sync_payload_bytes=cost.sync_bytes,
        state_bytes_fixed=cost.state_bytes,
        saturation_speedup=saturation,
    )


#: Section 5.4 parameters: app name -> passes per time-step (num_iters).
SECTION54_PASSES = {
    "grid_aggregation": 1,
    "histogram": 1,
    "mutual_information": 1,
    "logistic_regression": 3,
    "kmeans": 10,
    "moving_average": 1,
    "moving_median": 1,
    "kernel_density": 1,
    "savgol": 1,
}

FIRST_FIVE = [
    "grid_aggregation",
    "histogram",
    "mutual_information",
    "logistic_regression",
    "kmeans",
]
WINDOW_FOUR = ["moving_average", "moving_median", "kernel_density", "savgol"]
ALL_NINE = FIRST_FIVE + WINDOW_FOUR
