"""Conformance over *advised* configurations.

The transparency promise must survive the advisor: a run configured by
:meth:`ExecutionPolicy.auto` is still just a point in the
transparent-axis space, so its combination map must stay bit-identical
to the serial/pickle oracle.  :func:`run_autotune` executes every
registry workload under the advisor's policy for a small SPMD shape and
diffs it against the oracle.
"""

from __future__ import annotations

from ..core import PolicyAdvisor
from ..telemetry import Recorder
from .matrix import DEFAULT_SEED, Config
from .oracle import ConformanceReport, OracleCache, run_config
from .workloads import get_workload, workload_names

__all__ = ["advised_config", "run_autotune"]

#: The SPMD shape advised runs are checked under: 2 ranks puts the
#: global combine in play, 2 threads puts the engine choice in play, and
#: both stay inside the ≤3-rank bit-equality envelope.
ADVISED_RANKS = 2
ADVISED_THREADS = 2


def advised_config(
    name: str,
    *,
    ranks: int = ADVISED_RANKS,
    threads: int = ADVISED_THREADS,
    seed: int = DEFAULT_SEED,
) -> Config:
    """The matrix :class:`Config` chosen by the advisor for a workload.

    The advisor's hints come from the workload registry (element count,
    chunk/iteration shape, schema mergeability), so the advice is
    exactly what a user following docs/API.md would get.
    """
    w = get_workload(name)
    policy = PolicyAdvisor().advise(
        elements=w.default_elements,
        threads=threads,
        chunk_size=w.chunk_size,
        num_iters=w.num_iters,
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


def run_autotune(
    *,
    workloads: tuple[str, ...] | None = None,
    seed: int = DEFAULT_SEED,
    ranks: int = ADVISED_RANKS,
    threads: int = ADVISED_THREADS,
    telemetry: Recorder | None = None,
    cache: OracleCache | None = None,
) -> ConformanceReport:
    """Advised-policy conformance over the registry."""
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
    report.counters = telemetry.counters("verify.")
    return report
