"""Advisor quality: ``ExecutionPolicy.auto()`` vs hand-picked configs.

For every workload in the conformance registry, times the advised policy
against a small pool of hand-picked single-rank configurations (the
paper's serial scalar loop, a 2-worker thread pool over it, and — where
the analytic implements one — the serial batch kernel).  The advisor
"matches" a workload when its policy is within tolerance of the best
hand-picked time; the gate requires it to match or beat the best
hand-picked config on at least 3 of the registry workloads.

Writes ``BENCH_autotune.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_autotune.py [--quick]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ExecutionPolicy
from repro.verify import get_workload, workload_names

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_autotune.json"

#: An advised run within this factor of the best hand-picked run counts
#: as a match (best-of-N timing still jitters on millisecond runs).
TOLERANCE = 1.15
REQUIRED_MATCHES = 3


def hand_picked(w) -> dict[str, ExecutionPolicy]:
    """The configurations a careful user would try by hand (ranks=1)."""
    base = dict(chunk_size=w.chunk_size, num_iters=w.num_iters)
    pool = {
        "serial_scalar": ExecutionPolicy.parse(
            "engine=serial,map=scalar").evolve(**base),
        "thread2_scalar": ExecutionPolicy.parse(
            "engine=thread,threads=2,map=scalar").evolve(**base),
    }
    if w.has_batch_path:
        pool["serial_batch"] = ExecutionPolicy.parse(
            "engine=serial,map=batch").evolve(**base)
    return pool


def advised(w, elements: int) -> ExecutionPolicy:
    return ExecutionPolicy.auto(
        elements=elements,
        ranks=1,
        threads=1,
        chunk_size=w.chunk_size,
        num_iters=w.num_iters,
        key_estimate=w.key_estimate,
        schema_mergeable=w.schema_mergeable,
        has_batch_path=w.has_batch_path,
    )


def run_once(w, policy: ExecutionPolicy, data: np.ndarray) -> float:
    app = w.build(policy, None)
    with app:
        t0 = time.perf_counter()
        if w.multi_key:
            out = np.full(w.output_length(len(data)), np.nan)
            app.run2(data, out)
        else:
            app.run(data)
        return time.perf_counter() - t0


def best_of(w, policy: ExecutionPolicy, data: np.ndarray,
            repeats: int) -> float:
    run_once(w, policy, data)  # warmup: allocator + import one-time costs
    return min(run_once(w, policy, data) for _ in range(repeats))


def main(quick: bool = False) -> dict:
    repeats = 3 if quick else 5
    scale = 2 if quick else 8
    per_workload = {}
    matched = 0
    for name in workload_names():
        w = get_workload(name)
        elements = w.default_elements * scale
        data = w.make_data(seed=2015, elements=elements)
        extra = w.extra(data)

        def with_extra(policy):
            return policy if extra is None else policy.evolve(extra_data=extra)

        auto_policy = advised(w, len(data))
        auto_seconds = best_of(w, with_extra(auto_policy), data, repeats)
        hand = {
            label: best_of(w, with_extra(policy), data, repeats)
            for label, policy in hand_picked(w).items()
        }
        best_label, best_seconds = min(hand.items(), key=lambda kv: kv[1])
        ok = auto_seconds <= best_seconds * TOLERANCE
        matched += ok
        per_workload[name] = {
            "elements": len(data),
            "auto_policy": auto_policy.fingerprint(),
            "auto_seconds": auto_seconds,
            "hand_picked_seconds": hand,
            "best_hand_picked": best_label,
            "best_hand_picked_seconds": best_seconds,
            "auto_vs_best": auto_seconds / best_seconds,
            "matched": bool(ok),
        }
        print(f"{name:16s} auto {auto_seconds * 1e3:8.2f} ms  "
              f"best hand-picked ({best_label}) {best_seconds * 1e3:8.2f} ms  "
              f"{'match' if ok else 'MISS'}")

    total = len(per_workload)
    results = {
        "quick": quick,
        "tolerance": TOLERANCE,
        "workloads": per_workload,
        "summary": {
            "matched": matched,
            "total": total,
            "matched_fraction": matched / total,
            "required_matches": REQUIRED_MATCHES,
        },
    }
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nauto() matched/beat the best hand-picked config on "
          f"{matched}/{total} workloads (gate: >= {REQUIRED_MATCHES})")
    print(f"wrote {RESULT_PATH}")
    assert matched >= REQUIRED_MATCHES, (
        f"advisor matched only {matched}/{total} workloads "
        f"(need {REQUIRED_MATCHES})")
    return results


if __name__ == "__main__":
    main(quick="--quick" in sys.argv[1:])
