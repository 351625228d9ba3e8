"""Figure 8: thread scaling on Lulesh (64 nodes, 1-8 threads, 1 TB, 93 steps).

The paper reports 59% average parallel efficiency for the first five
applications and 79% for the four window-based ones — the window
applications being more compute-intensive, synchronization weighs less
and they scale better.  The model reproduces that separation directly
from the calibrated per-element costs.
"""

from __future__ import annotations

import numpy as np

from ..analytics import Histogram
from ..core import EnginePolicy, ExecutionPolicy
from ..perfmodel import MULTICORE_CLUSTER, NodeWorkload, model_time_sharing
from .profiles import ALL_NINE, FIRST_FIVE, SECTION54_PASSES, WINDOW_FOUR, app_model, sim_model
from .reporting import format_seconds, print_table

TOTAL_BYTES = 1e12
NUM_STEPS = 93
NODES = 64


def run(threads: tuple[int, ...] = (1, 2, 4, 8)) -> dict:
    machine = MULTICORE_CLUSTER
    lulesh = sim_model("lulesh")
    workload = NodeWorkload.from_total(TOTAL_BYTES, NUM_STEPS, NODES)
    times: dict[str, dict[int, float]] = {}
    eff: dict[str, dict[int, float]] = {}

    for app_name in ALL_NINE:
        app = app_model(app_name, passes=SECTION54_PASSES[app_name])
        times[app_name] = {}
        for t in threads:
            pred = model_time_sharing(machine, NODES, t, workload, lulesh, app)
            times[app_name][t] = pred.total_seconds
        base = threads[0]
        eff[app_name] = {
            t: times[app_name][base] / (times[app_name][t] * t) for t in threads
        }

    rows = []
    for app_name in ALL_NINE:
        row: list = [app_name]
        row.extend(format_seconds(times[app_name][t]) for t in threads)
        row.extend(f"{eff[app_name][t]:.2f}" for t in threads)
        rows.append(row)
    headers = ["app"] + [f"T({t}t)" for t in threads] + [f"eff({t}t)" for t in threads]
    print_table(
        "Figure 8: in-situ processing time scaling threads on Lulesh "
        f"(modeled; 1 TB, {NUM_STEPS} steps, {NODES} nodes)",
        headers,
        rows,
    )

    t_max = threads[-1]
    first_five = sum(eff[a][t_max] for a in FIRST_FIVE) / len(FIRST_FIVE)
    window = sum(eff[a][t_max] for a in WINDOW_FOUR) / len(WINDOW_FOUR)
    print(
        f"avg efficiency at {t_max} threads - first five: {first_five:.0%} "
        f"(paper 59%), window-based: {window:.0%} (paper 79%)"
    )
    return {
        "times": times,
        "efficiency": eff,
        "first_five_avg": first_five,
        "window_avg": window,
    }


def run_measured(
    threads: tuple[int, ...] = (1, 2, 4),
    engines: tuple[str, ...] = ("serial", "thread", "process"),
    elements: int = 200_000,
    seed: int = 8,
) -> dict:
    """Measured companion to the modeled figure: the same thread sweep,
    but on this host's actual execution engines, read from the unified
    telemetry snapshot (``engine.split_seconds`` / ``engine.splits``)
    instead of the cluster model.  Numbers are honest for this machine —
    on a single-core host the pooled engines will not beat serial.
    """
    data = np.random.default_rng(seed).normal(size=elements)
    measured: dict[str, dict[int, dict]] = {}
    rows = []
    for engine in engines:
        measured[engine] = {}
        for t in threads:
            with Histogram(
                ExecutionPolicy(engine=EnginePolicy(backend=engine, num_threads=t)),
                lo=-4, hi=4, num_buckets=1200,
            ) as app:
                app.run(data)
                snap = app.telemetry_snapshot()
            # In-process engines time each split; the process engine
            # times whole blocks (its workers' splits and thread 0's).
            timers = snap["timers"]
            reduce_timer = timers.get("engine.block_seconds") or timers.get(
                "engine.split_seconds", {}
            )
            counters = snap["counters"]
            cell = {
                "engine": snap["engine"],
                "splits": counters.get("engine.splits", 0),
                "split_seconds": reduce_timer.get("seconds", 0.0),
                "chunks": counters["run.chunks_processed"],
            }
            measured[engine][t] = cell
            rows.append(
                [
                    engine,
                    str(t),
                    str(cell["splits"]),
                    f"{cell['split_seconds'] * 1e3:.2f} ms",
                    str(cell["chunks"]),
                ]
            )
    print_table(
        f"Figure 8 (measured): engine thread sweep on this host "
        f"(histogram, {elements} elements)",
        ["engine", "threads", "splits", "split time", "chunks"],
        rows,
    )
    return measured
