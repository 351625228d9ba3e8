"""Metamorphic per-analytic invariants.

Each check reruns a workload under a transformed execution and demands
bit-equality where the analytic's reduction guarantees it:

* **partition invariance** — splitting the input across more ranks must
  not change the result (``exact_partition`` workloads: reductions
  whose merge is grouping-insensitive, e.g. integer counts, min/max,
  order-free multisets);
* **permutation invariance** — shuffling unit chunks must not change
  the result (``exact_permutation`` workloads);
* **merge associativity** — ``(A ⊕ B) ⊕ C == A ⊕ (B ⊕ C)`` over real
  combination maps (``exact_merge`` workloads);
* **residency idempotence** — the process engine run on the same array
  twice, then again after the array was rewritten in place, equals the
  serial engine every time (it copies its workers' splits on every run);
  three threads over several blocks also catch a callback that reads
  across its split's edge, into bytes the engine never copied;
* **fault replay** — an injected worker kill under ``retry`` replays to
  a bit-exact result and really fired.

Checks return the same structured :class:`~repro.verify.oracle.Mismatch`
records as the matrix runner, with ``kind`` prefixed ``property:``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core import EnginePolicy, ExecutionPolicy
from ..telemetry import Recorder
from .matrix import Config
from .oracle import Mismatch, diff_results, execute
from .workloads import Workload, get_workload

__all__ = [
    "check_partition_invariance",
    "check_permutation_invariance",
    "check_merge_associativity",
    "check_residency_idempotence",
    "check_fault_replay",
    "check_workload",
    "applicable_properties",
]


def _as_workload(workload: Workload | str) -> Workload:
    return workload if isinstance(workload, Workload) else get_workload(workload)


def _tag(mismatches: list[Mismatch], prop: str) -> list[Mismatch]:
    return [dataclasses.replace(m, kind=f"property:{prop}:{m.kind}")
            for m in mismatches]


def _values_only(result: dict) -> dict:
    """Metamorphic checks deliberately vary structure axes, so run-shape
    statistics (chunk/emission counts) are not part of the invariant."""
    return {k: v for k, v in result.items() if k != "run.stats"}


def _note(workload: Workload, config: Config, prop: str,
          detail: str) -> Mismatch:
    return Mismatch(workload=workload.name, fingerprint=config.fingerprint(),
                    kind=f"property:{prop}", detail=detail)


def check_partition_invariance(
    workload: Workload | str, seed: int, *,
    elements: int | None = None, partitions: tuple[int, ...] = (2, 3),
) -> list[Mismatch]:
    """Result must not depend on how the input is split across ranks."""
    w = _as_workload(workload)
    if not w.exact_partition:
        return []
    data = w.make_data(seed, elements)
    base_cfg = Config(workload=w.name, seed=seed)
    base = execute(w, base_cfg, data=data)
    found: list[Mismatch] = []
    for ranks in partitions:
        cfg = dataclasses.replace(base_cfg, ranks=ranks)
        split = execute(w, cfg, data=data)
        found.extend(_tag(
            diff_results(w.name, cfg, _values_only(base.result),
                         _values_only(split.result)),
            "partition"))
    return found


def check_permutation_invariance(
    workload: Workload | str, seed: int, *, elements: int | None = None,
) -> list[Mismatch]:
    """Result must not depend on unit-chunk arrival order."""
    w = _as_workload(workload)
    if not w.exact_permutation:
        return []
    data = w.make_data(seed, elements)
    cfg = Config(workload=w.name, seed=seed)
    base = execute(w, cfg, data=data)
    rows = data.reshape(-1, w.chunk_size)
    perm = np.random.default_rng(seed + 1).permutation(len(rows))
    shuffled = np.ascontiguousarray(rows[perm].reshape(-1))
    permuted = execute(w, cfg, data=shuffled)
    return _tag(diff_results(w.name, cfg, _values_only(base.result),
                             _values_only(permuted.result)),
                "permutation")


def _map_result(workload: Workload, args: ExecutionPolicy, combination_map):
    """Extract comparison arrays from an externally merged map."""
    app = workload.build(args, None)
    try:
        app.combination_map_ = combination_map
        return dict(workload.extract(app, None))
    finally:
        app.close()


def check_merge_associativity(
    workload: Workload | str, seed: int, *, elements: int | None = None,
) -> list[Mismatch]:
    """``RedObj.combine`` grouping: ``(A⊕B)⊕C == A⊕(B⊕C)`` over real maps."""
    w = _as_workload(workload)
    if not w.exact_merge:
        return []
    data = w.make_data(seed, elements)
    rows = data.reshape(-1, w.chunk_size)
    third = len(rows) // 3
    pieces = (rows[:third], rows[third: 2 * third], rows[2 * third:])

    def args_for() -> ExecutionPolicy:
        return ExecutionPolicy(
            chunk_size=w.chunk_size, num_iters=w.num_iters, extra_data=w.extra(data)
        )

    maps = []
    merge = None
    for piece in pieces:
        app = w.build(args_for(), None)
        try:
            app.run(np.ascontiguousarray(piece.reshape(-1)))
            maps.append(app.combination_map_)
            merge = app.merge
        finally:
            app.close()

    left = maps[0].clone()
    left.merge_map(maps[1].clone(), merge)
    left.merge_map(maps[2].clone(), merge)
    tail = maps[1].clone()
    tail.merge_map(maps[2].clone(), merge)
    right = maps[0].clone()
    right.merge_map(tail, merge)

    cfg = Config(workload=w.name, seed=seed)
    left_result = _map_result(w, args_for(), left)
    right_result = _map_result(w, args_for(), right)
    return _tag(diff_results(w.name, cfg, left_result, right_result),
                "associativity")


def check_residency_idempotence(
    workload: Workload | str, seed: int, *, elements: int | None = None,
) -> list[Mismatch]:
    """The same array run twice, then once more after an unannounced
    in-place rewrite, must equal the serial engine on the process engine.
    Blocks of about a quarter of the partition, split three ways, put a
    worker split beside thread 0's and beside another worker's, so a
    callback reading past its own chunks (Table 1's read rule) differs."""
    w = _as_workload(workload)
    if w.multi_key:
        return []
    block = w.chunk_size * max(1, len(w.make_data(seed, elements)) // w.chunk_size // 4)

    def repeat_run(engine: str):
        data = w.make_data(seed, elements)
        args = ExecutionPolicy(
            engine=EnginePolicy(backend=engine, num_threads=3),
            chunk_size=w.chunk_size,
            num_iters=w.num_iters,
            extra_data=w.extra(data),
            block_size=block,
        )
        app = w.build(args, None)
        results = []
        with app:
            app.run(data)
            app.run(data)
            results.append(dict(w.extract(app, None)))
            data[:] = w.make_data(seed + 1, elements)
            app.run(data)
            results.append(dict(w.extract(app, None)))
        return results

    cfg = Config(workload=w.name, engine="process", num_threads=3, block_size=block,
                 seed=seed)
    found: list[Mismatch] = []
    for reference, resident in zip(repeat_run("serial"), repeat_run("process")):
        found += _tag(diff_results(w.name, cfg, reference, resident), "residency")
    return found


def check_fault_replay(
    workload: Workload | str, seed: int, *, elements: int | None = None,
) -> list[Mismatch]:
    """An injected worker kill under ``retry`` must replay bit-exactly."""
    w = _as_workload(workload)
    if w.multi_key:
        return []
    cfg = Config(workload=w.name, engine="process", fault="engine-kill",
                 num_threads=2, seed=seed)
    data = w.make_data(seed, elements)
    oracle = execute(w, cfg.oracle_of(), data=data)
    candidate = execute(w, cfg, data=data)
    found = _tag(diff_results(w.name, cfg, oracle.result, candidate.result),
                 "fault_replay")
    if candidate.injections < 1:
        found.append(_note(
            w, cfg, "fault_replay",
            "the fault plan never fired — the run was not actually faulted"))
    elif candidate.counters.get("faults.retries", 0) < 1:
        found.append(_note(
            w, cfg, "fault_replay",
            "a fault fired but no retry was recorded"))
    return found


_CHECKS = {
    "partition": check_partition_invariance,
    "permutation": check_permutation_invariance,
    "associativity": check_merge_associativity,
    "residency": check_residency_idempotence,
    "fault_replay": check_fault_replay,
}


def applicable_properties(workload: Workload | str) -> tuple[str, ...]:
    w = _as_workload(workload)
    names = []
    if w.exact_partition:
        names.append("partition")
    if w.exact_permutation:
        names.append("permutation")
    if w.exact_merge:
        names.append("associativity")
    if not w.multi_key:
        names.extend(["residency", "fault_replay"])
    return tuple(names)


def check_workload(
    workload: Workload | str, seed: int, *,
    elements: int | None = None,
    properties: tuple[str, ...] | None = None,
    telemetry: Recorder | None = None,
) -> list[Mismatch]:
    """Run every applicable (or requested) invariant for one workload."""
    w = _as_workload(workload)
    names = properties if properties is not None else applicable_properties(w)
    found: list[Mismatch] = []
    for name in names:
        if telemetry is not None:
            telemetry.inc("verify.property_checks")
        found.extend(_CHECKS[name](w, seed, elements=elements))
    if telemetry is not None and found:
        telemetry.inc("verify.mismatches", len(found))
    return found
