"""Conformance over *advised* configurations.

The transparency promise must survive the autotuner: a run configured by
:meth:`ExecutionPolicy.auto` (launch advice) or reconfigured mid-run by
a :class:`~repro.core.autotune.CombineSwitch` is still just a point in
the transparent-axis space, so its combination map must stay
bit-identical to the serial/pickle oracle.  This module checks both:

* :func:`run_autotune` — every registry workload executed under the
  advisor's policy for a small SPMD shape, diffed against the oracle;
* :func:`autotune_switch_check` — an iterative workload run with a
  :class:`CombineSwitch` whose crossover is forced low enough to fire
  on the first iteration's observed key count, asserting the switch
  actually fired (via the ``policy.switches`` counter) *and* the result
  still matches the oracle.
"""

from __future__ import annotations

from ..core import CombineSwitch, PolicyAdvisor
from ..telemetry import Recorder
from .matrix import DEFAULT_SEED, Config
from .oracle import (
    ConformanceReport,
    Mismatch,
    OracleCache,
    diff_results,
    execute,
    repro_command,
    run_config,
)
from .workloads import get_workload, workload_names

__all__ = ["advised_config", "autotune_switch_check", "run_autotune"]

#: The SPMD shape advised runs are checked under: 2 ranks puts the
#: gather/allreduce crossover in play, 2 threads puts the engine choice
#: in play, and both stay inside the ≤3-rank bit-equality envelope.
ADVISED_RANKS = 2
ADVISED_THREADS = 2


def advised_config(
    name: str,
    *,
    ranks: int = ADVISED_RANKS,
    threads: int = ADVISED_THREADS,
    seed: int = DEFAULT_SEED,
    machine=None,
) -> Config:
    """The matrix :class:`Config` chosen by the advisor for a workload.

    The advisor's hints come from the workload registry (element count,
    chunk/iteration shape, key estimate, schema mergeability), so the
    advice is exactly what a user following docs/API.md would get.
    """
    w = get_workload(name)
    policy = PolicyAdvisor(machine).advise(
        elements=w.default_elements,
        ranks=ranks,
        threads=threads,
        chunk_size=w.chunk_size,
        num_iters=w.num_iters,
        key_estimate=w.key_estimate,
        schema_mergeable=w.schema_mergeable,
        has_batch_path=w.has_batch_path,
    )
    return Config(
        workload=name,
        engine=policy.engine.backend,
        wire_format=policy.combine.wire_format,
        combine_algorithm=policy.combine.algorithm,
        map_path=policy.engine.map_path,
        num_threads=policy.engine.num_threads,
        ranks=ranks,
        seed=seed,
    )


def autotune_switch_check(
    *,
    workload: str = "kmeans",
    seed: int = DEFAULT_SEED,
    cache: OracleCache | None = None,
    telemetry: Recorder | None = None,
) -> list[Mismatch]:
    """One mid-run-adaptation run, diffed bit-for-bit against the oracle.

    The workload starts on gather at 2 ranks; forcing the switch's
    crossover below the workload's key count makes the first post-combine
    observation flip it to allreduce, so the remaining iterations combine
    under the adapted policy.  Every rank installs its own switch; the
    decision reads post-combine state, so ranks flip in lockstep.
    """
    w = get_workload(workload)
    if w.num_iters < 2:
        raise ValueError(
            f"switch check needs an iterative workload, {workload!r} has "
            f"num_iters={w.num_iters}")
    cache = cache if cache is not None else OracleCache(telemetry)
    config = Config(workload=workload, ranks=2, seed=seed)
    crossover = max(1, w.key_estimate - 1)
    try:
        oracle = cache.get(config)
        candidate = execute(
            w, config,
            adaptor_factory=lambda: CombineSwitch(crossover_keys=crossover),
        )
    except Exception as exc:  # noqa: BLE001 - reported as a structured record
        return [Mismatch(
            workload=workload, fingerprint=config.fingerprint(),
            kind="error", detail=f"{type(exc).__name__}: {exc}",
            repro=repro_command(config))]
    if telemetry is not None:
        telemetry.inc("verify.autotune_switch_runs")
    switches = candidate.counters.get("policy.switches", 0)
    if switches < 1:
        return [Mismatch(
            workload=workload, fingerprint=config.fingerprint(),
            kind="error",
            detail=f"combine switch never fired (crossover={crossover}, "
                   f"expected observed keys >= {w.key_estimate})",
            repro=repro_command(config))]
    return diff_results(workload, config, oracle.result, candidate.result)


def run_autotune(
    *,
    workloads: tuple[str, ...] | None = None,
    seed: int = DEFAULT_SEED,
    ranks: int = ADVISED_RANKS,
    threads: int = ADVISED_THREADS,
    telemetry: Recorder | None = None,
    cache: OracleCache | None = None,
) -> ConformanceReport:
    """Advised-policy conformance over the registry + the switch run."""
    telemetry = telemetry if telemetry is not None else Recorder()
    cache = cache if cache is not None else OracleCache(telemetry)
    names = tuple(workloads) if workloads else workload_names()
    report = ConformanceReport(seed=seed)
    for name in names:
        config = advised_config(name, ranks=ranks, threads=threads, seed=seed)
        report.configs.append(config.fingerprint())
        report.policies.append(config.policy_fingerprint())
        telemetry.inc("verify.autotune_runs")
        report.mismatches.extend(
            run_config(config, cache=cache, telemetry=telemetry))
    report.mismatches.extend(autotune_switch_check(
        seed=seed, cache=cache, telemetry=telemetry))
    report.counters = telemetry.counters("verify.")
    return report
