"""Figure 11: effect of early emission of reduction objects.

(a) Moving average on Heat3D, 4 nodes, 300 GB, window 7, per-node step
    0.5-1 GB: up to 5.6x speedup; the trigger-less implementation
    crashes at a 1 GB step.
(b) Moving median on Lulesh, 64 nodes, 1 TB, window 11, edge 60-200: up
    to 5.2x; trigger-less crashes at edge 200.

Two layers:

* **measured** — both variants run for real at this host's scale on the
  actual simulations; early emission's effect on the *peak number of
  reduction objects* (the paper's "decreased by 1,000,000 times" claim
  scales with input size) and the end-to-end result equality are shown;
* **modeled** — the paper-scale sweep, where the trigger-less variant's
  per-element object state drives the node into memory pressure and
  finally past capacity.
"""

from __future__ import annotations

import numpy as np

from ..analytics import MovingAverage
from ..core import EnginePolicy, ExecutionPolicy, TimeSharingDriver
from ..perfmodel import MULTICORE_CLUSTER, MemoryModel, NodeWorkload, model_time_sharing
from ..sim import Heat3D
from .profiles import (
    HEAT3D_MEMORY_FACTOR_FIG11,
    MEDIAN_OBJ_BYTES,
    WINDOW_OBJ_BYTES,
    app_model,
    sim_model,
)

from .reporting import format_ratio, format_seconds, print_table

GIB = 1024**3

#: Pressure curve for the early-emission figure: the trigger-less variant
#: rides deep into paging territory before dying, so the climb is steeper
#: than the default.
FIG11_MEMORY = MemoryModel(threshold=0.70, severity=6.0)


def _measured(win_size: int = 7, steps: int = 4) -> dict:
    """Run both variants for real on Heat3D output and compare."""
    grid = (16, 32, 32)

    def one(disable: bool) -> tuple[float, int, np.ndarray]:
        sim = Heat3D(grid)
        # Scalar: the figure measures Algorithm 2's per-chunk trigger.
        ma = MovingAverage(
            ExecutionPolicy(
                engine=EnginePolicy(map_path="scalar"), disable_early_emission=disable
            ),
            win_size=win_size,
        )
        driver = TimeSharingDriver(
            sim,
            ma,
            multi_key=True,
            out_factory=lambda part: np.full(part.shape[0], np.nan),
            per_step=lambda i, s, o: s.reset(),
        )
        result = driver.run(steps)
        return result.total_seconds, ma.telemetry.counter("run.peak_red_objects"), result.output

    t_off, peak_off, out_off = one(disable=True)
    t_on, peak_on, out_on = one(disable=False)
    assert np.allclose(out_on, out_off), "early emission changed results"
    print(
        f"measured (Heat3D {grid}, window {win_size}): trigger ON peak objects "
        f"{peak_on} vs OFF {peak_off} ({peak_off / peak_on:.0f}x reduction; "
        f"paper reports up to 1,000,000x at 1 TB); times {format_seconds(t_on)} "
        f"vs {format_seconds(t_off)}"
    )
    return dict(peak_on=peak_on, peak_off=peak_off, t_on=t_on, t_off=t_off)


def _fig11a(step_gib: tuple[float, ...]) -> dict:
    machine = MULTICORE_CLUSTER
    heat3d = sim_model("heat3d", memory_factor=HEAT3D_MEMORY_FACTOR_FIG11)
    base = app_model("moving_average")
    rows, series = [], {}
    for gib in step_gib:
        workload = NodeWorkload(int(gib * GIB / 8), num_steps=75)
        on = model_time_sharing(
            machine, 4, 8, workload, heat3d,
            base.with_early_emission(True, WINDOW_OBJ_BYTES),
            memory=FIG11_MEMORY,
        )
        off = model_time_sharing(
            machine, 4, 8, workload, heat3d,
            base.with_early_emission(False, WINDOW_OBJ_BYTES),
            memory=FIG11_MEMORY,
        )
        speedup = off.total_seconds / on.total_seconds
        series[gib] = dict(on=on.total_seconds, off=off.total_seconds,
                           off_crashed=off.crashed, speedup=speedup)
        rows.append(
            [
                f"{gib:.2f} GB",
                format_seconds(on.total_seconds),
                format_seconds(off.total_seconds),
                "CRASH" if off.crashed else format_ratio(speedup),
            ]
        )
    print_table(
        "Figure 11a: moving average on Heat3D, 4 nodes, window 7 (modeled; "
        "paper: up to 5.6x, crash at 1 GB without trigger)",
        ["step size/node", "with early emission", "without", "speedup"],
        rows,
    )
    return series


def _fig11b(edges: tuple[int, ...]) -> dict:
    machine = MULTICORE_CLUSTER
    lulesh = sim_model("lulesh")
    base = app_model("moving_median")
    rows, series = [], {}
    for edge in edges:
        workload = NodeWorkload(edge**3, num_steps=93)
        on = model_time_sharing(
            machine, 64, 8, workload, lulesh,
            base.with_early_emission(True, MEDIAN_OBJ_BYTES),
            memory=FIG11_MEMORY,
        )
        off = model_time_sharing(
            machine, 64, 8, workload, lulesh,
            base.with_early_emission(False, MEDIAN_OBJ_BYTES),
            memory=FIG11_MEMORY,
        )
        speedup = off.total_seconds / on.total_seconds
        series[edge] = dict(on=on.total_seconds, off=off.total_seconds,
                            off_crashed=off.crashed, speedup=speedup)
        rows.append(
            [
                edge,
                format_seconds(on.total_seconds),
                format_seconds(off.total_seconds),
                "CRASH" if off.crashed else format_ratio(speedup),
            ]
        )
    print_table(
        "Figure 11b: moving median on Lulesh, 64 nodes, window 11 (modeled; "
        "paper: up to 5.2x, crash at edge 200 without trigger)",
        ["edge", "with early emission", "without", "speedup"],
        rows,
    )
    return series


def run(
    step_gib: tuple[float, ...] = (0.5, 0.65, 0.8, 0.9, 1.0),
    edges: tuple[int, ...] = (60, 100, 140, 186, 195, 200),
) -> dict:
    measured = _measured()
    a = _fig11a(step_gib)
    b = _fig11b(edges)
    return {"measured": measured, "fig11a": a, "fig11b": b}
