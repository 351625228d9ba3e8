"""Calibrated analytic performance model for cluster-scale figures.

Pipeline: :mod:`calibrate` measures per-element kernel costs by running
this repository's code → :mod:`costmodel` replays them on a
:mod:`machine` description with alpha-beta synchronization and the
:mod:`memory` pressure curve → the Figure 6-11 harnesses sweep the
paper's x-axes.
"""

from .calibrate import KernelCost, calibrate_analytics, calibrate_simulations
from .costmodel import (
    AnalyticsModel,
    NodeWorkload,
    Prediction,
    SimulationModel,
    collective_seconds,
    model_simulation_only,
    model_space_sharing,
    model_time_sharing,
    parallel_efficiency,
)
from .machine import (
    CALIBRATION_CLOCK_GHZ,
    MULTICORE_CLUSTER,
    XEON_PHI_CLUSTER,
    MachineSpec,
)
from .memory import MemoryCrash, MemoryModel

__all__ = [
    "AnalyticsModel",
    "CALIBRATION_CLOCK_GHZ",
    "KernelCost",
    "MULTICORE_CLUSTER",
    "MachineSpec",
    "MemoryCrash",
    "MemoryModel",
    "NodeWorkload",
    "Prediction",
    "SimulationModel",
    "XEON_PHI_CLUSTER",
    "calibrate_analytics",
    "calibrate_simulations",
    "collective_seconds",
    "model_simulation_only",
    "model_space_sharing",
    "model_time_sharing",
    "parallel_efficiency",
]
