"""Chaos harness: seeded fault schedules against the whole runtime.

Runs k-means and histogram under deterministic :class:`~repro.faults.FaultPlan`
schedules across the execution engines and the SPMD comm substrate, and
checks the recovery contract end to end:

* ``retry`` reproduces the fault-free results **bit-exactly** (one-shot
  fault specs do not re-fire, and reduction is deterministic);
* ``degrade`` completes with the dropped contributions recorded in
  ``faults.*`` telemetry, and the output stays consistent with the
  surviving inputs (histogram mass equals the surviving partitions);
* ``fail_fast`` still raises (``SpmdError`` / ``EngineFaultError``);
* a corrupted checkpoint falls back to the newest verifying rotation;
* with **no plan installed** every hook is a no-op — the harness measures
  the overhead of an installed-but-empty plan against the healthy path.

Returns the recovery latencies and the overhead measurement.  Registered
as ``chaos`` in the figure registry: ``python -m repro.harness chaos``.
"""

from __future__ import annotations

import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from ..analytics.histogram import Histogram
from ..analytics.kmeans import KMeans
from ..comm import SpmdError, spmd_launch, supervised_launch
from ..core import EnginePolicy, ExecutionPolicy, load_checkpoint, save_checkpoint
from ..faults import EngineFaultError, FaultPlan, FaultPolicy, FaultSpec
from ..telemetry import Recorder
from .reporting import format_seconds, print_table

SEED = 2015
DIMS = 3
CLUSTERS = 4
BUCKETS = 32


def _dataset(n_points: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(SEED)
    points = rng.normal(size=(n_points, DIMS)).ravel()
    centroids = rng.normal(size=(CLUSTERS, DIMS))
    return points, centroids


def _kmeans_rank(comm, part, centroids, engine):
    args = ExecutionPolicy(
        engine=EnginePolicy(backend=engine, num_threads=2),
        chunk_size=DIMS,
        extra_data=centroids,
        num_iters=3,
    )
    sched = KMeans(args, comm, dims=DIMS)
    with sched:
        result = sched.run(part)
    return np.stack([result[k].centroid for k in sorted(result.keys())])


def _hist_rank(comm, part, engine):
    args = ExecutionPolicy(
        engine=EnginePolicy(backend=engine, num_threads=2), chunk_size=1
    )
    sched = Histogram(args, comm, lo=-4.0, hi=4.0, num_buckets=BUCKETS)
    out = np.zeros(BUCKETS)
    with sched:
        sched.run(part, out)
    return out


def _crash_plan(at_call: int = 2) -> FaultPlan:
    """Rank 1 dies at its ``at_call``-th communication call (deterministic)."""
    return FaultPlan(
        [FaultSpec("comm", "crash", at_call=at_call, target=1)], seed=SEED
    )


def _comm_scenarios(n_ranks: int, n_points: int) -> dict:
    """SimCluster rank crash: retry is bit-exact, degrade is bounded."""
    points, centroids = _dataset(n_points)
    parts = np.array_split(points.reshape(-1, DIMS), n_ranks)
    km_args = [(p.ravel(), centroids, "thread") for p in parts]
    hist_parts = np.array_split(points, n_ranks)

    scenarios: dict[str, dict] = {}

    # k-means, thread engine: fault-free reference, then retry under crash.
    clean = spmd_launch(n_ranks, _kmeans_rank, km_args)
    telemetry = Recorder()
    retried = supervised_launch(
        n_ranks,
        _kmeans_rank,
        km_args,
        policy=FaultPolicy.retry(backoff=0.01),
        telemetry=telemetry,
        fault_plan=_crash_plan(),
    )
    snap = telemetry.snapshot()
    bit_exact = all(np.array_equal(c, r) for c, r in zip(clean, retried))
    scenarios["kmeans_crash_retry"] = {
        "bit_exact": bool(bit_exact),
        "counters": snap["counters"],
        "recovery_seconds": snap["timers"]
        .get("faults.recovery_seconds", {})
        .get("seconds"),
    }
    assert bit_exact, "retry after rank crash must be bit-exact"

    # histogram, serial engine: degrade drops rank 1's partition; the
    # surviving mass must be conserved exactly.
    hist_args = [(p, "serial") for p in hist_parts]
    telemetry = Recorder()
    degraded = supervised_launch(
        n_ranks,
        _hist_rank,
        hist_args,
        policy=FaultPolicy.degrade(),
        telemetry=telemetry,
        # histogram runs one global combination, so rank 1's very first
        # comm call is the only deterministic crash site
        fault_plan=_crash_plan(at_call=0),
    )
    snap = telemetry.snapshot()
    dropped = snap["counters"].get("faults.ranks_dropped", 0)
    surviving_mass = sum(
        len(p) for r, p in enumerate(hist_parts) if r != 1
    )
    mass = float(degraded[0].sum())
    scenarios["histogram_crash_degrade"] = {
        "ranks_dropped": dropped,
        "surviving_mass": surviving_mass,
        "observed_mass": mass,
        "counters": snap["counters"],
        "recovery_seconds": snap["timers"]
        .get("faults.recovery_seconds", {})
        .get("seconds"),
    }
    assert dropped == 1
    assert mass == surviving_mass, "degrade must conserve the surviving mass"

    # fail_fast: the crash must propagate as SpmdError.
    try:
        spmd_launch(n_ranks, _hist_rank, hist_args, fault_plan=_crash_plan(at_call=0))
    except SpmdError as err:
        scenarios["histogram_crash_fail_fast"] = {"raised": str(err)[:160]}
    else:  # pragma: no cover - contract violation
        raise AssertionError("fail_fast must raise SpmdError on a rank crash")
    return scenarios


def _engine_scenarios(n_points: int) -> dict:
    """ProcessEngine worker kill/hang: worker replacement + replay."""
    points, centroids = _dataset(n_points)

    def run_kmeans(plan, policy):
        args = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=2),
            chunk_size=DIMS,
            extra_data=centroids,
            num_iters=3,
            fault=policy,
        )
        sched = KMeans(args, dims=DIMS)
        sched.fault_plan = plan
        with sched:
            result = sched.run(points)
        snap = sched.telemetry_snapshot()
        cents = np.stack([result[k].centroid for k in sorted(result.keys())])
        return cents, snap

    clean, _ = run_kmeans(None, "fail_fast")
    scenarios: dict[str, dict] = {}
    for kind, policy in (
        ("kill", FaultPolicy.retry(backoff=0.01)),
        ("hang", FaultPolicy.retry(backoff=0.01, task_deadline=0.5)),
    ):
        # Worker task 1 of 3: thread 1's split in iteration 2 (thread 0
        # is the driver and draws no faults).
        plan = FaultPlan(
            [FaultSpec("engine", kind, at_call=1, seconds=30.0)], seed=SEED
        )
        cents, snap = run_kmeans(plan, policy)
        bit_exact = np.array_equal(clean, cents)
        scenarios[f"kmeans_worker_{kind}_retry"] = {
            "bit_exact": bool(bit_exact),
            "counters": {
                k: v
                for k, v in snap["counters"].items()
                if k.startswith("faults.")
            },
            "recovery_seconds": snap["timers"]
            .get("faults.recovery_seconds", {})
            .get("seconds"),
        }
        assert bit_exact, f"worker {kind} + retry must be bit-exact"

    plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)], seed=SEED)
    cents, snap = run_kmeans(plan, "degrade")
    scenarios["kmeans_worker_kill_degrade"] = {
        "dropped_splits": snap["counters"].get("faults.dropped_splits", 0),
        "completed": True,
    }
    assert snap["counters"].get("faults.dropped_splits", 0) >= 1

    plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)], seed=SEED)
    try:
        run_kmeans(plan, "fail_fast")
    except EngineFaultError as err:
        scenarios["kmeans_worker_kill_fail_fast"] = {"raised": str(err)[:160]}
    else:  # pragma: no cover - contract violation
        raise AssertionError("fail_fast must raise EngineFaultError")
    return scenarios


def _storage_scenario(n_points: int) -> dict:
    """Checkpoint corruption: restore falls back to a verifying rotation."""
    points, centroids = _dataset(n_points)
    args = ExecutionPolicy(
        engine=EnginePolicy(num_threads=1),
        chunk_size=DIMS,
        extra_data=centroids,
        num_iters=1,
    )
    results = {}
    with TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "state.ckpt"
        sched = KMeans(args, dims=DIMS)
        with sched:
            # Two healthy generations, then a save the plan truncates.
            sched.run(points)
            save_checkpoint(sched, ckpt, {"gen": 0}, keep=3)
            sched.run(points)
            save_checkpoint(sched, ckpt, {"gen": 1}, keep=3)
            # Snapshot gen-1 centroids by value: the map is live and the
            # next run mutates it.
            good = {
                k: np.array(obj.centroid)
                for k, obj in sched.get_combination_map().items()
            }
            plan = FaultPlan(
                [FaultSpec("storage", "truncate", at_call=0)], seed=SEED
            )
            sched.run(points)
            save_checkpoint(sched, ckpt, {"gen": 2}, keep=3, fault_plan=plan)

        restored = KMeans(args, dims=DIMS)
        meta = load_checkpoint(restored, ckpt)
        fallbacks = restored.telemetry.snapshot()["counters"].get(
            "faults.checkpoint_fallbacks", 0
        )
        same = sorted(restored.combination_map_.keys()) == sorted(good.keys()) and all(
            np.array_equal(restored.combination_map_[k].centroid, good[k])
            for k in good.keys()
        )
        results = {
            "restored_generation": meta.get("gen"),
            "checkpoint_fallbacks": fallbacks,
            "matches_last_good": bool(same),
        }
        assert fallbacks == 1 and meta.get("gen") == 1 and same
    return results


def _overhead_when_healthy(n_points: int, repeats: int) -> dict:
    """Hook cost: no plan vs an installed-but-empty plan (process engine)."""
    points, _ = _dataset(n_points)

    def timed(plan) -> float:
        args = ExecutionPolicy(
            engine=EnginePolicy(backend="process", num_threads=2), chunk_size=1
        )
        sched = Histogram(args, lo=-4.0, hi=4.0, num_buckets=BUCKETS)
        sched.fault_plan = plan
        out = np.zeros(BUCKETS)
        with sched:
            sched.run(points, out)  # warm the pool outside the timing
            best = np.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                sched.run(points, out)
                best = min(best, time.perf_counter() - t0)
        return best

    no_plan = timed(None)
    empty_plan = timed(FaultPlan())
    return {
        "no_plan_seconds": no_plan,
        "empty_plan_seconds": empty_plan,
        "overhead_ratio": empty_plan / no_plan if no_plan else float("nan"),
    }


def run(quick: bool = False) -> dict:
    n_points = 2_000 if quick else 12_000
    results = {
        "comm": _comm_scenarios(n_ranks=3, n_points=n_points),
        "engine": _engine_scenarios(n_points=n_points),
        "storage": _storage_scenario(n_points=n_points),
        "overhead": _overhead_when_healthy(
            n_points=n_points, repeats=2 if quick else 5
        ),
    }

    rows = []
    for layer in ("comm", "engine"):
        for name, info in results[layer].items():
            rec = info.get("recovery_seconds")
            rows.append(
                [
                    f"{layer}/{name}",
                    info.get("bit_exact", "-"),
                    format_seconds(rec) if rec else "-",
                ]
            )
    print_table(
        "Chaos: seeded faults, recovery by policy",
        ["scenario", "bit_exact", "recovery"],
        rows,
    )
    overhead = results["overhead"]
    print(
        f"overhead when healthy (empty plan / no plan): "
        f"{overhead['overhead_ratio']:.3f}x "
        f"({format_seconds(overhead['no_plan_seconds'])} -> "
        f"{format_seconds(overhead['empty_plan_seconds'])})"
    )

    return results


if __name__ == "__main__":
    run()
