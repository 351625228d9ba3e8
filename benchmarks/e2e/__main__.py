"""Command line of the end-to-end benchmark.

* ``python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
  — one run of one workload; the last line of standard output is the JSON
  object ``BENCHMARK.json``'s driver reads.
* ``python -m benchmarks.e2e run [--workload W] [--seed N] [--traced]``
  — every workload (or one), one after another, every metric printed by
  name with its unit.
* ``python -m benchmarks.e2e selfcheck`` — the untraced suite twice on
  this checkout, side by side; fails if two runs of the same code
  disagree by more than the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import runner

#: End-to-end metrics that are ratios of counters: two runs of the same
#: code must print the very same number.
EXACT = {"moved_bytes_per_elem"}


def _print_run(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"\n{workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, outputs "
          f"{'match' if result['correct'] else 'DIFFER FROM'} the oracle")
    if "samples" in info:
        print(f"  op latency over {info['samples']} timed ops: tail "
              f"{info['op_tail_ms']:.3f} ms at p{info['op_tail_percentile']:.1f}")
    raw = info.get("raw", {})
    for name, m in result["metrics"].items():
        if name not in info.get("active", result["metrics"]):
            continue  # a layer this workload leaves idle (reads 0 in the JSON)
        note = f"  (as measured: {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:42s} {m['value']:16.6g} {m['unit']}{note}")
    print(f"  timings are at reference host speed; the host ran at "
          f"{info['host_speed_index']:.3f}x the reference slice cost "
          f"({info['host_speed_samples']} samples)")
    if "cold_starts_s" in info:
        print("  cold starts: " + " ".join(f"{s:.3f}" for s in info["cold_starts_s"])
              + " s at reference host speed")


def cmd_bench(args) -> int:
    if args.workload is None:
        raise SystemExit("--workload is required")
    result = runner.bench(args.workload, args.seed, args.seconds, bool(args.trace))
    del result["info"]
    print(json.dumps(result))
    return 0


def cmd_run(args, names: list[str]) -> int:
    failed = 0
    for workload in [args.workload] if args.workload else names:
        result = runner.bench(workload, args.seed, args.seconds, args.traced)
        _print_run(workload, result)
        failed += result["failed"]
    return 1 if failed else 0


def cmd_selfcheck(args, names: list[str]) -> int:
    spec = runner.spec()
    chosen = [args.workload] if args.workload else names
    first_suite, second_suite = (
        {w: runner.bench(w, args.seed, args.seconds, False) for w in chosen}
        for _ in range(2))
    bad = 0
    for workload in chosen:
        a, b = first_suite[workload], second_suite[workload]
        print(f"\n{workload}: failed {a['failed']}/{a['attempted']} and "
              f"{b['failed']}/{b['attempted']}")
        bad += a["failed"] + b["failed"]
        for m in spec["end_to_end"]:
            name = m["name"]
            first, second = (r["metrics"][name]["value"] for r in (a, b))
            worse = (second / first - 1.0) if m["better"] == "lower" else (
                first / second - 1.0)
            apart = max(first, second) / min(first, second) - 1.0
            verdict = "ok"
            if name in EXACT and first != second:
                verdict = "EXACT METRIC DIFFERS"
            elif apart > m["bound"]:
                verdict = f"APART BY MORE THAN {m['bound']:.0%}"
            bad += verdict != "ok"
            print(f"  {name:24s} {first:16.6g} {second:16.6g} {m['unit']:8s} "
                  f"second worse by {worse:+.2%}  {verdict}")
    print("\nselfcheck", "FAILED" if bad else "passed")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    if not (runner.ROOT / "src" / "repro").is_dir():
        print("benchmarks.e2e measures the program under src/repro, which "
              "this directory does not hold", file=sys.stderr)
        return 2
    spec = runner.spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", default="bench",
                        choices=("bench", "run", "selfcheck"))
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="nominal timed window; it fixes the op count "
                             "(ops are never cut off by a clock)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="bench: 1 prints the per-layer metrics instead")
    parser.add_argument("--traced", action="store_true",
                        help="run: the separate traced run (per-layer table)")
    args = parser.parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "run":
        return cmd_run(args, names)
    return cmd_selfcheck(args, names)


if __name__ == "__main__":
    raise SystemExit(main())
