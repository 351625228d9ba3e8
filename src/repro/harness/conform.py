"""``python -m repro.harness conform`` — the differential conformance CLI.

Runs a pairwise-pruned configuration matrix (plus optional metamorphic
property checks and schedule fuzzing) against the serial/pickle oracle
and prints/serializes structured mismatch reports.  Exit status 1 on
any mismatch, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..core import ExecutionPolicy
from ..telemetry import Recorder
from ..verify import (
    Config,
    OracleCache,
    applicable_properties,
    axis_values,
    build_matrix,
    check_workload,
    fuzz_schedule,
    get_workload,
    run_fuzz,
    run_matrix,
    workload_names,
)
from .reporting import print_table

#: Workloads the smoke matrix exercises by default (fast, covers the
#: single-key, iterative, and windowed shapes).  ``--full`` runs all.
SMOKE_WORKLOADS = ("histogram", "minmax", "kmeans", "moving_average")

DEFAULT_REPORT = "CONFORM_report.json"

#: The ``--policy`` axes a matrix :class:`Config` carries.  The rest —
#: ``chunk``/``iters`` (the registry fixes them), ``copy``, ``capacity``,
#: ``hold`` and ``fault`` — would not reach the run, so they are refused.
CARRIED_AXES = ("engine", "threads", "map", "algo", "wire", "block")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness conform",
        description="differential conformance: engine × wire × fault "
                    "matrix vs the serial oracle")
    parser.add_argument("--smoke", action="store_true",
                        help="pruned fast matrix (default)")
    parser.add_argument("--full", action="store_true",
                        help="all workloads, wider axis values")
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(workload_names()),
                        help="restrict to these workloads (repeatable)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="data seed pinned into every config")
    parser.add_argument("--max-configs", type=int, default=None,
                        help="truncate the greedy covering order")
    parser.add_argument("--config", action="append", default=None,
                        metavar="FINGERPRINT",
                        help="run exactly this config fingerprint "
                             "(repeatable; skips matrix generation)")
    parser.add_argument("--policy", action="append", default=None,
                        metavar="WORKLOAD@POLICY[@ranks=N]",
                        help="run a workload under an ExecutionPolicy "
                             "fingerprint (repeatable; e.g. "
                             "'histogram@engine=thread,threads=2')")
    parser.add_argument("--properties", action="store_true",
                        help="also run the metamorphic property checks")
    parser.add_argument("--fuzz", type=int, default=0, metavar="N",
                        help="also fuzz N interleave schedules per workload")
    parser.add_argument("--fuzz-seed", type=int, default=None,
                        help="replay exactly one fuzz schedule seed")
    parser.add_argument("--report", type=Path, default=None,
                        help=f"write a JSON report (default {DEFAULT_REPORT} "
                             "on mismatch)")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and axis values, then exit")
    return parser


def _policy_configs(tokens: list[str], seed: int) -> list[Config]:
    """``WORKLOAD@POLICY[@ranks=N]`` tokens → matrix configs.

    ``POLICY`` is an (optionally partial) :meth:`ExecutionPolicy.parse`
    token string over :data:`CARRIED_AXES`; the workload's chunk/iteration
    shape is fixed by the registry, and ``ranks`` — not a policy axis —
    rides in its own ``@``-separated part.
    """
    configs = []
    for token in tokens:
        parts = [p.strip() for p in token.split("@")]
        if len(parts) < 2:
            raise SystemExit(
                f"--policy needs WORKLOAD@POLICY, got {token!r}")
        workload, ranks, policy_text = parts[0], 1, ""
        for part in parts[1:]:
            if part.startswith("ranks="):
                ranks = int(part[len("ranks="):])
            else:
                policy_text = part
        policy = ExecutionPolicy.parse(policy_text)
        axes = {t.partition("=")[0].strip() for t in policy_text.replace(";", ",").split(",")}
        dropped = sorted(axes - set(CARRIED_AXES) - {""})
        if dropped:
            raise SystemExit(
                f"--policy {token!r}: conform cannot run axis {', '.join(dropped)} "
                f"(a config carries only {', '.join(CARRIED_AXES)})")
        get_workload(workload)  # fail fast on unknown names
        configs.append(Config(
            workload=workload,
            engine=policy.engine.backend,
            wire_format=policy.combine.wire_format,
            combine_algorithm=policy.combine.algorithm,
            map_path=policy.engine.map_path,
            num_threads=policy.engine.num_threads,
            block_size=policy.block_size or 0,
            ranks=ranks,
            seed=seed,
        ))
    return configs


def _list_workloads() -> None:
    rows = []
    for name in workload_names():
        w = get_workload(name)
        rows.append((
            name,
            "multi" if w.multi_key else "single",
            "yes" if w.has_batch_path else "no",
            ",".join(applicable_properties(w)) or "-",
            w.description,
        ))
    print_table("conformance workloads",
                ("workload", "keys", "batch", "invariants", "description"),
                rows)
    axes = axis_values(smoke=True)
    print_table("smoke axis values", ("axis", "values"),
                [(axis, ", ".join(str(v) for v in values))
                 for axis, values in axes.items()])


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        _list_workloads()
        return 0

    smoke = not args.full
    names = tuple(args.workload) if args.workload else (
        SMOKE_WORKLOADS if smoke else workload_names())
    telemetry = Recorder()
    cache = OracleCache(telemetry)

    if args.config or args.policy:
        configs = [Config.parse(token) for token in (args.config or [])]
        configs.extend(_policy_configs(args.policy or [], args.seed))
    elif args.fuzz_seed is not None and args.fuzz == 0:
        configs = []
    else:
        configs = build_matrix(names, smoke=smoke, seed=args.seed,
                               max_configs=args.max_configs)

    report = run_matrix(configs, telemetry=telemetry, cache=cache)
    report.seed = args.seed

    if args.properties:
        for name in names:
            report.mismatches.extend(
                check_workload(name, args.seed, telemetry=telemetry))
    if args.fuzz_seed is not None:
        fuzz_targets = names if args.workload else names[:1]
        for name in fuzz_targets:
            report.mismatches.extend(fuzz_schedule(
                name, args.fuzz_seed, cache=cache, telemetry=telemetry))
    elif args.fuzz > 0:
        for name in names:
            report.mismatches.extend(run_fuzz(
                name, args.fuzz, cache=cache, telemetry=telemetry))
    report.counters = telemetry.counters("verify.")

    if report.configs:
        bad = {m.fingerprint for m in report.mismatches}
        rows = [(i, fp.replace(f",seed={args.seed}", ""),
                 "MISMATCH" if fp in bad else "ok")
                for i, fp in enumerate(report.configs)]
        print_table("conformance matrix", ("#", "config", "status"), rows)
        # The same runs named by the runtime configuration they actually
        # executed under — ExecutionPolicy fingerprints, `#` keyed to
        # the matrix table above.
        print_table("execution policies", ("#", "policy"),
                    list(enumerate(report.policies)))

    for mismatch in report.mismatches:
        print()
        print(mismatch.describe())

    counters = report.counters
    print()
    print(f"{len(report.configs)} configs, "
          f"{counters.get('verify.oracle_runs', 0)} oracle runs "
          f"({counters.get('verify.oracle_cache_hits', 0)} cached), "
          f"{counters.get('verify.property_checks', 0)} property checks, "
          f"{counters.get('verify.fuzz_schedules', 0)} fuzz schedules, "
          f"{len(report.mismatches)} mismatches")

    report_path = args.report
    if report_path is None and report.mismatches:
        report_path = Path(DEFAULT_REPORT)
    if report_path is not None:
        report.write(report_path)
        print(f"report written to {report_path}")

    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
