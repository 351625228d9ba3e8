"""SimCluster schedule fuzzing: seeded interleaving pressure.

The SPMD substrate runs ranks as real threads, so collective-ordering
races are a genuine failure mode.  ``fuzz_schedule`` derives a multi-
rank configuration from a seed, installs a deterministic
:class:`~repro.comm.sim.InterleaveSchedule` (per-rank micro-delays
before every communication call) plus, on odd seeds, a seeded
comm-delay :class:`~repro.faults.FaultPlan`, and demands the run stays
bit-equal to the serial oracle.  A hang is reported as a structured
``deadlock`` mismatch.  Everything is keyed by the seed alone, so
``replay`` reproduces any failing schedule exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm import InterleaveSchedule
from ..comm.errors import CommError, CommTimeoutError, SpmdError
from ..core.policy import COMBINE_ALGORITHMS, WIRE_FORMATS
from ..faults import FaultPlan, FaultSpec
from ..telemetry import Recorder
from .matrix import DEFAULT_SEED, Config
from .oracle import Mismatch, OracleCache, diff_results, execute
from .workloads import Workload, get_workload

__all__ = ["FuzzCase", "derive_case", "fuzz_schedule", "replay", "run_fuzz"]

_ENGINES = ("serial", "thread")


@dataclass(frozen=True)
class FuzzCase:
    """One seed-derived fuzz schedule (config + interleaving pressure)."""

    workload: str
    seed: int
    config: Config
    comm_plan_fingerprint: str | None

    def repro(self) -> str:
        return ("PYTHONPATH=src python -m repro.harness conform "
                f"--workload {self.workload} --fuzz 1 --fuzz-seed {self.seed}")


def derive_case(workload: Workload | str, seed: int, *,
                ranks: int = 3, data_seed: int | None = None) -> FuzzCase:
    """Map a fuzz seed onto a multi-rank configuration.

    The data seed stays fixed (so the oracle cache is shared across
    schedules); the fuzz seed picks engine, wire format, combine
    algorithm, thread count, and the interleave/fault schedules.
    """
    w = workload if isinstance(workload, Workload) else get_workload(workload)
    mixed = InterleaveSchedule._mix(seed)
    config = Config(
        workload=w.name,
        engine=_ENGINES[mixed % len(_ENGINES)],
        wire_format=WIRE_FORMATS[(mixed >> 2) % len(WIRE_FORMATS)],
        combine_algorithm=COMBINE_ALGORITHMS[(mixed >> 4) % len(COMBINE_ALGORITHMS)],
        num_threads=1 + 2 * ((mixed >> 6) % 2),
        ranks=max(2, int(ranks)),
        seed=DEFAULT_SEED if data_seed is None else data_seed,
    )
    plan_fp = None
    if seed % 2:
        plan_fp = FaultPlan(
            [FaultSpec("comm", "delay", at_call=seed % 7, times=3,
                       seconds=0.0005)],
            seed=seed).fingerprint()
    return FuzzCase(workload=w.name, seed=seed, config=config,
                    comm_plan_fingerprint=plan_fp)


def fuzz_schedule(
    workload: Workload | str, seed: int, *,
    ranks: int = 3,
    cache: OracleCache | None = None,
    telemetry: Recorder | None = None,
) -> list[Mismatch]:
    """Run one seeded schedule; return structured mismatches (empty when
    the interleaving changed nothing, as it must)."""
    w = workload if isinstance(workload, Workload) else get_workload(workload)
    case = derive_case(w, seed, ranks=ranks)
    if telemetry is not None:
        telemetry.inc("verify.fuzz_schedules")
    cache = cache if cache is not None else OracleCache(telemetry)
    comm_plan = (FaultPlan.parse(case.comm_plan_fingerprint)
                 if case.comm_plan_fingerprint else None)
    interleave = InterleaveSchedule(seed)
    try:
        oracle = cache.get(case.config)
        candidate = execute(w, case.config, interleave=interleave,
                            comm_plan=comm_plan)
    except (SpmdError, CommTimeoutError, CommError) as exc:
        return [Mismatch(
            workload=w.name, fingerprint=case.config.fingerprint(),
            kind="deadlock",
            detail=(f"schedule seed {seed} wedged or aborted the job: "
                    f"{type(exc).__name__}: {exc}"),
            repro=case.repro())]
    except Exception as exc:  # noqa: BLE001 - reported as a structured record
        return [Mismatch(
            workload=w.name, fingerprint=case.config.fingerprint(),
            kind="error", detail=f"{type(exc).__name__}: {exc}",
            repro=case.repro())]
    found = diff_results(w.name, case.config, oracle.result,
                         candidate.result)
    if telemetry is not None and found:
        telemetry.inc("verify.mismatches", len(found))
    return [m for m in found] if not found else [
        # Point the repro line at the fuzz seed, not the bare config —
        # the interleaving is part of the failure.
        Mismatch(**{**m.to_dict(), "repro": case.repro()}) for m in found
    ]


def replay(workload: Workload | str, seed: int, *,
           ranks: int = 3) -> list[Mismatch]:
    """Re-run one schedule from its seed (identical to the original)."""
    return fuzz_schedule(workload, seed, ranks=ranks)


def run_fuzz(
    workload: Workload | str, count: int, *,
    base_seed: int = 0, ranks: int = 3,
    cache: OracleCache | None = None,
    telemetry: Recorder | None = None,
) -> list[Mismatch]:
    """Fuzz ``count`` consecutive seeds; collect every mismatch."""
    cache = cache if cache is not None else OracleCache(telemetry)
    found: list[Mismatch] = []
    for seed in range(base_seed, base_seed + count):
        found.extend(fuzz_schedule(workload, seed, ranks=ranks,
                                   cache=cache, telemetry=telemetry))
    return found
