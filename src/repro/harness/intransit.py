"""In-transit chaos harness: the elastic staging tier under fire.

Runs the histogram analytic through :class:`~repro.core.ElasticTier`
(staging workers as separate supervised OS processes, on the
owned-worker runtime's pipes) under deterministic fault schedules, and
checks the elastic recovery contract end to end:

* ``retry`` after a staging-worker **kill mid-step** recovers bit-exactly
  against an unfaulted local run (snapshot + ordered replay);
* a **hung** worker (alive, acks stalled) is detected by ack-progress
  supervision and recovered bit-exactly;
* ``degrade`` excludes the dead worker, keeps its last consistency
  snapshot, and conserves mass exactly: observed mass plus the recorded
  ``elastic.elements_lost`` equals the submitted mass.

Registered as ``intransit`` in the figure registry:
``python -m repro.harness intransit``.
"""

from __future__ import annotations

import time

import numpy as np

from ..analytics.histogram import Histogram
from ..core import ElasticTier, EnginePolicy, ExecutionPolicy
from ..faults import FaultPlan, FaultPolicy, FaultSpec
from ..telemetry import Recorder
from .reporting import format_seconds, print_table

SEED = 2015
BUCKETS = 32


def _dataset(n_points: int) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    return rng.normal(size=n_points)


def _factory():
    args = ExecutionPolicy(engine=EnginePolicy(num_threads=1))
    return Histogram(args, None, lo=-4.0, hi=4.0, num_buckets=BUCKETS)


def _counts(result) -> np.ndarray:
    return np.array([obj.count for _, obj in result.sorted_items()],
                    dtype=np.int64)


def _baseline(partitions: list[np.ndarray]) -> np.ndarray:
    """Unfaulted local reference: same partition sequence, no tier."""
    sched = _factory()
    sched.set_global_combination(False)
    with sched:
        for part in partitions:
            sched.run(part)
        counts = _counts(sched.get_combination_map())
    return counts


def _run_tier(
    partitions: list[np.ndarray],
    *,
    workers: int,
    policy,
    fault_plan: FaultPlan | None,
    telemetry: Recorder,
    snapshot_every: int = 4,
    worker_timeout: float = 5.0,
) -> np.ndarray:
    with ElasticTier(
        _factory,
        workers,
        policy=policy,
        fault_plan=fault_plan,
        telemetry=telemetry,
        snapshot_every=snapshot_every,
        worker_timeout=worker_timeout,
    ) as tier:
        for part in partitions:
            tier.submit(part)
        result = tier.drain()
    return _counts(result)


def _staging_scenarios(n_points: int, n_parts: int) -> dict:
    """Kill / hang / degrade a staging worker; check the exact contract."""
    points = _dataset(n_points)
    partitions = [np.ascontiguousarray(p) for p in np.array_split(points, n_parts)]
    base = _baseline(partitions)
    scenarios: dict[str, dict] = {}

    # Worker 1 killed mid-step (os._exit at its 3rd data frame): retry
    # respawns it, restores the last snapshot, replays the logged frames
    # in order — bit-exact against the unfaulted run.
    for name, spec in (
        ("staging_kill_retry",
         FaultSpec("comm", "crash", at_call=3, target=1)),
        ("staging_hang_retry",
         FaultSpec("comm", "delay", at_call=3, target=1, seconds=30.0)),
        ("staging_disconnect_retry",
         FaultSpec("network", "disconnect", at_call=3, target=1)),
    ):
        telemetry = Recorder()
        t0 = time.perf_counter()
        counts = _run_tier(
            partitions,
            workers=3,
            policy=FaultPolicy.retry(backoff=0.01, max_attempts=5),
            fault_plan=FaultPlan([spec], seed=SEED),
            telemetry=telemetry,
            worker_timeout=1.0,
        )
        elapsed = time.perf_counter() - t0
        snap = telemetry.snapshot()
        bit_exact = bool(np.array_equal(counts, base))
        scenarios[name] = {
            "bit_exact": bit_exact,
            "retries": snap["counters"].get("faults.retries", 0),
            "elapsed_seconds": elapsed,
            "counters": {k: v for k, v in snap["counters"].items()
                         if k.startswith(("faults.", "elastic."))},
        }
        assert bit_exact, f"{name}: retry must be bit-exact vs unfaulted run"
        assert snap["counters"].get("faults.retries", 0) >= 1

    # Degrade: the dead worker's last snapshot stands, post-snapshot
    # frames are dropped with exact accounting.
    telemetry = Recorder()
    counts = _run_tier(
        partitions,
        workers=3,
        policy=FaultPolicy.degrade(),
        fault_plan=FaultPlan(
            [FaultSpec("comm", "crash", at_call=3, target=1)], seed=SEED
        ),
        telemetry=telemetry,
        worker_timeout=1.0,
    )
    snap = telemetry.snapshot()
    lost = snap["counters"].get("elastic.elements_lost", 0)
    mass, base_mass = int(counts.sum()), int(base.sum())
    scenarios["staging_kill_degrade"] = {
        "observed_mass": mass,
        "submitted_mass": base_mass,
        "elements_lost": lost,
        "mass_conserved": bool(mass + lost == base_mass),
        "counters": {k: v for k, v in snap["counters"].items()
                     if k.startswith(("faults.", "elastic."))},
    }
    assert mass + lost == base_mass, (
        "degrade must account for every dropped element exactly")
    assert lost > 0, "the injected kill must actually drop frames"
    return scenarios


def _elastic_scale_scenario(n_points: int, n_parts: int) -> dict:
    """Grow then shrink the pool mid-stream; totals stay bit-exact."""
    points = _dataset(n_points)
    partitions = [np.ascontiguousarray(p) for p in np.array_split(points, n_parts)]
    base = _baseline(partitions)
    telemetry = Recorder()
    with ElasticTier(_factory, 2, telemetry=telemetry) as tier:
        third = len(partitions) // 3
        for part in partitions[:third]:
            tier.submit(part)
        tier.scale_to(4)  # grow between steps
        for part in partitions[third: 2 * third]:
            tier.submit(part)
        tier.scale_to(2)  # shrink: retired workers drain their maps
        for part in partitions[2 * third:]:
            tier.submit(part)
        counts = _counts(tier.drain())
    bit_exact = bool(np.array_equal(counts, base))
    assert bit_exact, "scale up/down must not change the result"
    return {
        "bit_exact": bit_exact,
        "counters": {k: v for k, v in telemetry.snapshot()["counters"].items()
                     if k.startswith("elastic.")},
    }


def run(quick: bool = False) -> dict:
    n_points = 24_000 if quick else 240_000
    n_parts = 12
    results = {
        "staging": _staging_scenarios(n_points=n_points, n_parts=n_parts),
        "elastic_scale": _elastic_scale_scenario(
            n_points=n_points, n_parts=n_parts),
    }

    rows = []
    for name, info in results["staging"].items():
        rows.append([
            name,
            info.get("bit_exact", info.get("mass_conserved", "-")),
            format_seconds(info["elapsed_seconds"])
            if "elapsed_seconds" in info else "-",
        ])
    rows.append(["elastic_scale", results["elastic_scale"]["bit_exact"], "-"])
    print_table(
        "In-transit chaos: elastic tier recovery by policy",
        ["scenario", "exact", "elapsed"],
        rows,
    )
    return results


if __name__ == "__main__":
    run()
