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
  ``elastic.elements_lost`` equals the submitted mass;
* the **TCP comm backend is cheap**: a full SPMD histogram over it with
  an installed-but-empty fault plan stays within 1.3x of the same run
  over the in-process backend.

Registered as ``intransit`` in the figure registry:
``python -m repro.harness intransit``.
"""

from __future__ import annotations

import time

import numpy as np

from ..analytics.histogram import Histogram
from ..comm import spmd_launch
from ..core import ElasticTier, EnginePolicy, ExecutionPolicy
from ..faults import FaultPlan, FaultPolicy, FaultSpec
from ..telemetry import Recorder
from .reporting import format_seconds, print_table

SEED = 2015
BUCKETS = 32
#: Acceptance bound: empty-plan TCP overhead vs the in-process backend.
TCP_OVERHEAD_BOUND = 1.3


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


def _hist_rank(comm, part):
    # Scalar: TCP_OVERHEAD_BOUND is declared against a run whose compute
    # phase is the paper's map loop, not a ~1 ms kernel.
    policy = ExecutionPolicy(engine=EnginePolicy(num_threads=1, map_path="scalar"))
    sched = Histogram(policy, comm, lo=-4.0, hi=4.0, num_buckets=BUCKETS)
    out = np.zeros(BUCKETS)
    with sched:
        sched.run(part, out)
    return out


def _tcp_overhead(n_points: int, n_ranks: int, repeats: int) -> dict:
    """Wire cost: same SPMD histogram over sim threads vs real sockets,
    both with an installed-but-empty fault plan."""
    points = _dataset(n_points)
    args = [(p,) for p in np.array_split(points, n_ranks)]

    def timed(backend: str) -> tuple[float, np.ndarray]:
        best = np.inf
        outs = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            outs = spmd_launch(n_ranks, _hist_rank, args,
                               fault_plan=FaultPlan(),
                               comm_backend=backend)
            best = min(best, time.perf_counter() - t0)
        return best, outs[0]

    local_seconds, local_out = timed("sim")
    tcp_seconds, tcp_out = timed("tcp")
    assert np.array_equal(local_out, tcp_out), (
        "tcp backend must reproduce the local result bit-exactly")
    ratio = tcp_seconds / local_seconds if local_seconds else float("nan")
    return {
        "local_seconds": local_seconds,
        "tcp_seconds": tcp_seconds,
        "overhead_ratio": ratio,
        "bound": TCP_OVERHEAD_BOUND,
        "within_bound": bool(ratio <= TCP_OVERHEAD_BOUND),
    }


def run(quick: bool = False) -> dict:
    n_points = 24_000 if quick else 240_000
    n_parts = 12
    results = {
        "staging": _staging_scenarios(n_points=n_points, n_parts=n_parts),
        "elastic_scale": _elastic_scale_scenario(
            n_points=n_points, n_parts=n_parts),
        "tcp_overhead": _tcp_overhead(
            n_points=n_points, n_ranks=3, repeats=2 if quick else 5),
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
    overhead = results["tcp_overhead"]
    print(
        f"tcp overhead when healthy (empty plan): "
        f"{overhead['overhead_ratio']:.3f}x "
        f"({format_seconds(overhead['local_seconds'])} -> "
        f"{format_seconds(overhead['tcp_seconds'])}), "
        f"bound {TCP_OVERHEAD_BOUND}x"
    )

    return results


if __name__ == "__main__":
    run()
