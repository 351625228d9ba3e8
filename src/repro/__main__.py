"""Top-level command-line interface.

``python -m repro <command>``:

* ``figures [fig1 ... | all]`` — regenerate paper figures (same as
  ``python -m repro.harness``);
* ``calibrate`` — print this host's measured kernel costs;
* ``audit`` — the Section-5.2 memory-footprint comparison vs mini-Spark;
* ``demo`` — a 30-second guided tour: run one in-situ job in every
  placement mode and print what happened.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_figures(args: argparse.Namespace) -> int:
    from .harness.__main__ import main as harness_main

    return harness_main(args.names or ["--help"])


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    from .harness.reporting import format_bytes, print_table
    from .perfmodel import calibrate_analytics, calibrate_simulations

    sims = calibrate_simulations()
    apps = calibrate_analytics()
    rows = [
        [name, f"{cost.seconds_per_element * 1e9:.2f} ns", "-", "-"]
        for name, cost in sims.items()
    ] + [
        [
            name,
            f"{cost.seconds_per_element * 1e9:.2f} ns",
            format_bytes(cost.state_bytes),
            format_bytes(cost.sync_bytes),
        ]
        for name, cost in apps.items()
    ]
    print_table(
        "Calibrated kernel costs on this host (marginal, per input float)",
        ["kernel", "cost/element", "state", "sync payload"],
        rows,
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .harness.memoryaudit import audit_all
    from .harness.reporting import format_bytes, format_ratio, print_table

    rows = []
    for row in audit_all(elements=args.elements):
        rows.append(
            [
                row.app,
                format_bytes(row.input_bytes),
                format_bytes(row.smart_state_bytes),
                format_bytes(row.spark_total_bytes),
                format_ratio(row.ratio),
            ]
        )
    print_table(
        "Live analytics state: Smart vs mini-Spark (paper Section 5.2: "
        "16 MB vs >90% of 12 GB)",
        ["app", "input", "Smart state", "mini-Spark state", "gap"],
        rows,
    )
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    import numpy as np

    from .analytics import Histogram
    from .baselines import OfflineDriver
    from .core import CoreSplit, ExecutionPolicy, SpaceSharingDriver, TimeSharingDriver
    from .harness.reporting import format_seconds, print_table
    from .sim import GaussianEmulator

    steps, elements = 6, 50_000

    def fresh():
        return (
            GaussianEmulator(elements, seed=1),
            Histogram(ExecutionPolicy(buffer_capacity=2),
                      lo=-4, hi=4, num_buckets=32),
        )

    rows = []
    sim, app = fresh()
    r = TimeSharingDriver(sim, app).run(steps)
    rows.append(["time sharing (zero copy)", format_seconds(r.total_seconds),
                 f"{app.counts().sum():,} elements"])
    reference = app.counts()

    sim, app = fresh()
    r = SpaceSharingDriver(sim, app, CoreSplit(1, 1)).run(steps)
    assert np.array_equal(app.counts(), reference)
    rows.append(["space sharing (concurrent)", format_seconds(r.elapsed_seconds),
                 f"producer blocked {r.producer_blocks}x"])

    sim, app = fresh()
    r = OfflineDriver(sim, app).run(steps)
    assert np.array_equal(app.counts(), reference)
    rows.append(["offline (store first)", format_seconds(r.total),
                 f"I/O {format_seconds(r.io_overhead)}"])

    print_table(
        f"One histogram job, three placements ({steps} steps x {elements:,} "
        "elements; identical results)",
        ["placement", "total time", "notes"],
        rows,
    )
    print("\nnext: python -m repro figures all   (regenerate every paper figure)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Smart in-situ analytics — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("names", nargs="*", help="fig1 ... fig11, or 'all'")
    p_fig.set_defaults(fn=_cmd_figures)

    p_cal = sub.add_parser("calibrate", help="print measured kernel costs")
    p_cal.set_defaults(fn=_cmd_calibrate)

    p_audit = sub.add_parser("audit", help="memory-footprint comparison")
    p_audit.add_argument("--elements", type=int, default=20_000)
    p_audit.set_defaults(fn=_cmd_audit)

    p_demo = sub.add_parser("demo", help="guided tour of the placements")
    p_demo.set_defaults(fn=_cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
