"""Map-phase microbenchmarks: scalar loop vs batch kernel.

Times the reduction (map) hot loop — the paper's Algorithm 2 per-chunk
``gen_key``/``accumulate`` — under each ``map_path`` on the analytics
that implement the batch path, at sizes where per-element interpreter
overhead dominates.  The headline numbers are the batch-over-scalar
speedups at the largest size; the conformance kit separately guarantees
the paths agree bit-for-bit (or within the declared ulp bound for
kde_grid), so this file only spot-checks value agreement.

Runs standalone, writing ``BENCH_map.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_map.py [--quick]

``--quick`` keeps the largest size (speedups stay comparable to the
committed baseline) but drops the smaller sizes and extra repeats.
The gate: ``benchmarks/bench_diff.py`` compares the speedup ratios
against ``benchmarks/baselines/BENCH_map.json``; this script itself
asserts the acceptance floor — >= 10x on at least two of histogram /
grid_aggregation / kde_grid, >= 5x on the pure-numpy path.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.analytics import (
    GridAggregation,
    Histogram,
    MinMax,
    MovingAverage,
    ValueGridKDE,
)
from repro.core import EnginePolicy, ExecutionPolicy
from repro.core.batch import HAVE_NUMBA

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_map.json"

#: Workloads whose batch speedup the acceptance criterion gates.
TARGETS = ("histogram", "grid_aggregation", "kde_grid")

KDE_GRID = np.linspace(-3.0, 3.0, 256)


def _data(n: int) -> np.ndarray:
    return np.random.default_rng(42).normal(size=n)


CASES = {
    "histogram": {
        "sizes": (100_000, 1_000_000),
        "make": lambda args, n: Histogram(args, lo=-4.0, hi=4.0,
                                          num_buckets=1200),
        "multi": False,
        "paths": ("scalar", "batch"),
    },
    "grid_aggregation": {
        "sizes": (100_000, 1_000_000),
        "make": lambda args, n: GridAggregation(args, grid_size=1000),
        "multi": False,
        "paths": ("scalar", "batch"),
    },
    "minmax": {
        "sizes": (100_000, 1_000_000),
        "make": lambda args, n: MinMax(args),
        "multi": False,
        "paths": ("scalar", "batch"),
    },
    "moving_average": {
        "sizes": (50_000, 200_000),
        "make": lambda args, n: MovingAverage(args, win_size=7),
        "multi": True,
        "out_len": lambda n: n,
        "paths": ("scalar", "batch"),
    },
    "kde_grid": {
        "sizes": (10_000, 30_000),
        "make": lambda args, n: ValueGridKDE(args, grid=KDE_GRID,
                                             bandwidth=0.2),
        "multi": True,
        "out_len": lambda n: KDE_GRID.shape[0],
        "paths": ("scalar", "batch"),
    },
}


def _run_case(case: dict, path: str, data: np.ndarray):
    """One full run under ``path``; returns (seconds, result array)."""
    app = case["make"](ExecutionPolicy(engine=EnginePolicy(map_path=path)), len(data))
    with app:
        t0 = time.perf_counter()
        if case["multi"]:
            out = np.full(case["out_len"](len(data)), np.nan)
            app.run2(data, out)
            seconds = time.perf_counter() - t0
            result = out
        else:
            app.run(data)
            seconds = time.perf_counter() - t0
            items = app.get_combination_map().sorted_items()
            result = np.array(
                [getattr(obj, obj.fields()[0].name) for _, obj in items])
    return seconds, result


def bench_case(name: str, case: dict, *, quick: bool) -> dict:
    sizes = case["sizes"][-1:] if quick else case["sizes"]
    repeats = 1 if quick else 3
    per_size: dict[str, dict[str, float]] = {}
    for n in sizes:
        data = _data(n)
        timings: dict[str, float] = {}
        results: dict[str, np.ndarray] = {}
        for path in case["paths"]:
            best = float("inf")
            for _ in range(repeats if path != "scalar" else 1):
                seconds, result = _run_case(case, path, data)
                best = min(best, seconds)
            timings[path] = best
            results[path] = result
        for path, result in results.items():
            # Value-level spot check (bit-level agreement is the
            # conformance kit's job; kde_grid's np.exp drift is below
            # 1e-9 here).
            if not np.allclose(results["scalar"], result,
                               rtol=1e-9, atol=0, equal_nan=True):
                raise AssertionError(
                    f"{name}: {path} result diverged from scalar")
        per_size[str(n)] = timings
    largest = per_size[str(sizes[-1])]
    return {
        "sizes": list(sizes),
        "seconds": per_size,
        "speedup": largest["scalar"] / largest["batch"],
    }


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_map.py",
        description="map-path (scalar vs batch) benchmarks")
    parser.add_argument("--quick", action="store_true",
                        help="largest size only, single repeat")
    args = parser.parse_args(argv)

    workloads = {}
    for name, case in CASES.items():
        workloads[name] = bench_case(name, case, quick=args.quick)
        r = workloads[name]
        print(f"{name:18s} batch {r['speedup']:6.1f}x  "
              f"(largest size {r['sizes'][-1]})")

    results = {
        "quick": bool(args.quick),
        "numba": HAVE_NUMBA,
        "workloads": workloads,
        "summary": {
            f"{name}_speedup": workloads[name]["speedup"]
            for name in workloads
        },
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")

    floor = 5.0 if not HAVE_NUMBA else 10.0
    hits = sum(1 for name in TARGETS
               if workloads[name]["speedup"] >= 10.0)
    assert hits >= 2, (
        f"acceptance floor: expected >=10x batch speedup on at least two "
        f"of {TARGETS}, got "
        + ", ".join(f"{n}={workloads[n]['speedup']:.1f}x" for n in TARGETS))
    for name in TARGETS:
        assert workloads[name]["speedup"] >= floor, (
            f"{name}: batch speedup {workloads[name]['speedup']:.1f}x "
            f"below the {floor:.0f}x floor")
    return results


if __name__ == "__main__":
    main()
