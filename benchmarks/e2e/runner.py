"""Spawns the per-workload interpreters and assembles one result.

This process stays light on purpose (standard library only): a child's
``ru_maxrss`` starts from the size of the process that forked it, and
BLAS reads its thread count when numpy first loads — so the pins below
are set here, before any child exists, and are inherited by the engine
and staging workers the children start.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: One BLAS/OpenMP thread per process: unpinned, OpenBLAS spins a second
#: thread inside k-means (cpu/wall 2.0) and one run in three is 1.5x slower.
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh-interpreter cold starts sampled per run, after one discarded
#: pre-flight start that warms bytecode and page caches.
COLD_STARTS = 5

CHILD_TIMEOUT = 170.0


def spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in PINNED_ENV:
        env[name] = "1"
    path = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict, float]:
    """Run one child to completion; returns its JSON and the seconds from
    spawn to the first op's result being in hand — at reference host
    speed when the child sampled it (``--mode setup``).

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    child's stamp and this process's are on one time line.
    """
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--mode", mode],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        # Take the child's own workers down with it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} child ({mode}) exited with {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    return out, (out["ready_at"] - spawned) / out.get("host_index", 1.0)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in the driver's format: ``correct``/``attempted``/
    ``failed``/``metrics`` (end-to-end metrics untraced, per-layer ones
    traced), plus ``info`` for the human-readable commands."""
    declared = spec()
    if trace:
        out, _ = run_child(workload, seed, seconds, "trace")
        metrics = {m["name"]: out["per_layer"].get(m["name"], [0.0, m["unit"]])
                   for m in declared["per_layer"]}
        out["info"]["active"] = sorted(out["per_layer"])
    else:
        run_child(workload, seed, seconds, "setup")  # pre-flight, discarded
        starts = [run_child(workload, seed, seconds, "setup")[1]
                  for _ in range(COLD_STARTS)]
        out, _ = run_child(workload, seed, seconds, "measure")
        metrics = dict(out["metrics"])
        metrics["setup_s"] = [statistics.median(starts), "s"]
        out["info"]["cold_starts_s"] = starts
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": out["info"],
    }
