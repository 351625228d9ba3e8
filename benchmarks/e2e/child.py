"""One workload in one fresh interpreter: ``python -m benchmarks.e2e.child``.

The runner starts this module once per cold-start sample (``--mode
setup``: build, first op, report when its result was in hand and how
fast the host ran meanwhile) and once for the measurement proper
(``--mode measure`` or ``--mode trace``).  The last line of standard
output is one JSON object.

Only the standard library is imported up here: the program and numpy
are most of a cold start, so ``main`` imports them after the host-speed
sampler is running.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
from typing import TYPE_CHECKING

from .estimators import (
    HostSpeed,
    host_calibration_ns_per_elem,
    median,
    peak_rss_mb,
    pin_to_one_core,
    tail,
)

if TYPE_CHECKING:
    from .workloads import Workload

#: The traced run covers this fraction of the untraced run's ops, once
#: without spans and once with them.
TRACED_FRACTION = 5

#: Workloads whose threads the GIL serialises anyway (user+sys CPU equals
#: wall time) run on one core: see ``estimators.pin_to_one_core``.
ONE_CORE = {"spmd_gridagg"}


def end_to_end(w: Workload, counters: dict, rss_mb: float) -> dict:
    """The end-to-end metrics of the timed phase (set-up time is the
    runner's to add).  Timings are at reference host speed: each op and
    each block is divided by the host-speed index sampled around it."""
    timed = w.phases["timed"]
    host = w.host
    raw = timed.latencies
    latencies = host.latencies(timed.starts, timed.ends)
    rates, cpu, raw_rates, raw_cpu = [], [], [], []
    for (n0, t0, c0), (n1, t1, c1) in zip(timed.marks, timed.marks[1:]):
        elements = (n1 - n0) * w.elements_per_op
        speed = host.index(t0, t1)
        raw_rates.append(elements / (t1 - t0))
        raw_cpu.append((c1 - c0) / elements * 1e9)
        rates.append(raw_rates[-1] * speed)
        cpu.append(raw_cpu[-1] / speed)
    tail_ms, tail_pct = tail(latencies)
    return {
        "metrics": {
            "elements_per_s": (median(rates), "elem/s"),
            "op_p50_ms": (median(latencies) * 1e3, "ms"),
            "cpu_ns_per_elem": (median(cpu), "ns/elem"),
            "peak_rss_mb": (rss_mb, "MB"),
            # Whole-process totals over every op run: set-up publishes
            # state too, and with fixed op counts the ratio repeats.
            "moved_bytes_per_elem": (
                w.moved_bytes(counters) / (w.ops_done * w.elements_per_op), "B/elem"),
        },
        "info": {
            "samples": len(latencies),
            "op_tail_ms": tail_ms * 1e3,
            "op_tail_percentile": tail_pct,
            "host_speed_index": median(
                [c / host.REFERENCE_SECONDS for c in host.costs]),
            "host_speed_samples": len(host.costs),
            "raw": {"elements_per_s": median(raw_rates),
                    "op_p50_ms": median(raw) * 1e3,
                    "cpu_ns_per_elem": median(raw_cpu)},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal timed window; fixes the op count, "
                             "it is never a time limit")
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace"))
    args = parser.parse_args(argv)

    setup = args.mode == "setup"
    one_core = args.workload in ONE_CORE
    if one_core or setup:
        cores = pin_to_one_core()
    if setup:
        cold_start = HostSpeed()
        stop_sampling = cold_start.sample_in_background()
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload: one of {sorted(WORKLOADS)}")
    if setup and not one_core:
        # The imports and the thread that samples host speed shared a
        # core (slow-downs are per core); what the program starts from
        # here on gets all of them back.
        os.sched_setaffinity(0, cores)

    w = WORKLOADS[args.workload](args.seed)
    ops = w.timed_ops(args.seconds)
    plan = [("first", 1, False)]
    if args.mode == "measure":
        plan += [("warmup", w.warmup_ops, False), ("timed", ops, False)]
    elif args.mode == "trace":
        part = max(10, ops // TRACED_FRACTION)
        plan += [("warmup", w.warmup_ops, False), ("timed", part, False),
                 ("traced", part, True)]
    counters = w.execute(plan)
    out: dict = {"ready_at": w.ready_at}
    if setup:
        stop_sampling()
        out["host_index"] = cold_start.index(0.0, w.ready_at)
        if w.failed:
            return 1
    else:
        # Peak memory of the driving process, before the oracle (which
        # holds a second copy of the problem) can raise it.
        rss_mb = peak_rss_mb()
        worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        w.check()
        out.update(end_to_end(w, counters, rss_mb))
        if args.mode == "trace":
            from .layers import per_layer  # probes import more of the program

            out["per_layer"] = per_layer(w, counters, out, worker_rss)
            out["per_layer"]["host.calib_ns_per_elem"] = (
                host_calibration_ns_per_elem(), "ns/elem")
    out["attempted"], out["failed"] = w.ops_done, w.failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
