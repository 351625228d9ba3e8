"""Differential execution against the serial/pickle oracle.

``execute`` runs one :class:`~repro.verify.matrix.Config` to completion
and extracts plain numpy arrays; ``diff_results`` compares a candidate
run against the oracle bit-for-bit and renders structured
:class:`Mismatch` records (first divergent key, dtype, ULP distance,
config fingerprint, ready-to-paste repro command); ``run_matrix``
drives a whole pruned matrix with oracle caching and ``verify.*``
telemetry.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from ..comm import spmd_launch
from ..core import (
    CoreSplit,
    ExecutionPolicy,
    SpaceSharingDriver,
    merge_distributed_output,
)
from ..core import scheduler as _scheduler
from ..core.serialization import _combine_gather
from ..faults import FaultPlan, FaultPolicy, FaultSpec
from ..sim import Simulation
from ..telemetry import Recorder
from .matrix import Config
from .workloads import Workload, get_workload

__all__ = [
    "ConformanceError",
    "ConformanceReport",
    "Mismatch",
    "OracleCache",
    "RunInfo",
    "SlicedArraySim",
    "diff_results",
    "execute",
    "repro_command",
    "run_config",
    "run_matrix",
    "ulp_distance",
]

PIPELINE_STEPS = 4
SPMD_TIMEOUT = 60.0
_STAT_COUNTERS = (
    "run.chunks_processed", "run.accumulate_calls", "run.early_emissions",
)


class ConformanceError(RuntimeError):
    """A conformance run could not produce a comparable result."""


class SlicedArraySim(Simulation):
    """Replays a fixed array as ``steps`` equal consecutive partitions,
    so a stepwise driver accumulates exactly the one-shot input."""

    def __init__(self, data: np.ndarray, steps: int):
        data = np.ascontiguousarray(data, dtype=np.float64)
        per_step = len(data) // steps
        if per_step * steps != len(data):
            data = data[: per_step * steps]
        self._data = data
        self._steps = steps
        self._per_step = per_step
        self._step = 0

    def advance(self) -> np.ndarray:
        if self._step >= self._steps:
            raise RuntimeError(
                f"SlicedArraySim exhausted after {self._steps} steps")
        lo = self._step * self._per_step
        self._step += 1
        return self._data[lo: lo + self._per_step]

    @property
    def step(self) -> int:
        return self._step

    @property
    def partition_elements(self) -> int:
        return self._per_step

    @property
    def memory_nbytes(self) -> int:
        return self._data.nbytes

    def reset(self) -> None:
        self._step = 0


@dataclass(frozen=True)
class RunInfo:
    """One finished conformance run: extracted arrays + telemetry."""

    result: dict[str, np.ndarray]
    counters: dict[str, int]
    injections: int = 0


def repro_command(config: Config) -> str:
    return ("PYTHONPATH=src python -m repro.harness conform "
            f"--config '{config.fingerprint()}'")


def _ordered_bits(value: float) -> int:
    """Map a float64 onto a monotonically ordered integer line."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(value)))
    if bits & (1 << 63):
        return (~bits) & ((1 << 64) - 1)
    return bits | (1 << 63)


def ulp_distance(a: float, b: float) -> int:
    """Distance in representable float64 steps between ``a`` and ``b``
    (``-1`` when either side is NaN)."""
    a, b = float(a), float(b)
    if np.isnan(a) or np.isnan(b):
        return -1
    return abs(_ordered_bits(a) - _ordered_bits(b))


@dataclass(frozen=True)
class Mismatch:
    """One structured divergence between candidate and oracle."""

    workload: str
    fingerprint: str
    kind: str               # value | dtype | shape | fields | error | deadlock
    field: str = ""
    key: int | None = None  # first divergent flat index
    dtype: str = ""
    expected: str = ""
    actual: str = ""
    ulp: int | None = None
    abs_diff: float | None = None
    detail: str = ""
    repro: str = ""

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}

    def describe(self) -> str:
        lines = [f"[{self.kind}] {self.workload} :: {self.fingerprint}"]
        if self.field:
            where = self.field if self.key is None else (
                f"{self.field}[{self.key}]")
            lines.append(f"  first divergence: {where} (dtype {self.dtype})")
            lines.append(f"  expected {self.expected}  actual {self.actual}")
        if self.ulp is not None:
            lines.append(
                f"  ulp distance {self.ulp}  abs diff {self.abs_diff}")
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.repro:
            lines.append(f"  repro: {self.repro}")
        return "\n".join(lines)


def _fault_setup(config: Config):
    """(engine plan, comm plan, fault policy) for a config's fault axis."""
    if config.fault == "none":
        return None, None, "fail_fast"
    if config.fault == "engine-kill":
        plan = FaultPlan([FaultSpec("engine", "kill", at_call=1)],
                         seed=config.seed)
        return plan, None, FaultPolicy.retry(max_attempts=3, backoff=0.005)
    if config.fault == "comm-delay":
        plan = FaultPlan(
            [FaultSpec("comm", "delay", seconds=0.001, times=4)],
            seed=config.seed)
        return None, plan, "fail_fast"
    raise ConformanceError(f"unknown fault axis value {config.fault!r}")


def _exec_policy(workload: Workload, config: Config, data: np.ndarray,
                 fault_policy) -> ExecutionPolicy:
    """The candidate's full runtime configuration as a policy object.

    ``Config.execution_policy`` carries every fingerprinted axis
    (including the chunk-aligned block rounding); only the run's
    ``extra_data`` — derived from the generated input so candidate and
    oracle seed identically — is grafted on here.
    """
    policy = config.execution_policy(fault_policy)
    extra = workload.extra(data)
    if extra is not None:
        policy = policy.evolve(extra_data=extra)
    return policy


def _stats_comparable(config: Config) -> bool:
    # Replayed iterations legitimately re-process chunks.
    return config.fault != "engine-kill"


def _stats_array(counters: dict[str, int]) -> np.ndarray:
    return np.array([counters.get(name, 0) for name in _STAT_COUNTERS],
                    dtype=np.int64)


def _arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if np.issubdtype(a.dtype, np.floating):
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def execute(
    workload: Workload | str,
    config: Config,
    *,
    data: np.ndarray | None = None,
    interleave=None,
    comm_plan: FaultPlan | None = None,
) -> RunInfo:
    """Run one config to completion and extract comparable arrays."""
    w = workload if isinstance(workload, Workload) else get_workload(workload)
    if data is None:
        data = w.make_data(config.seed)
    data = np.ascontiguousarray(data, dtype=np.float64)
    engine_plan, default_comm_plan, fault_policy = _fault_setup(config)
    if comm_plan is None:
        comm_plan = default_comm_plan
    args = _exec_policy(w, config, data, fault_policy)
    if getattr(config, "sharing", "solo") == "shared":
        # Multi-tenant shared-residency execution; the import is lazy so
        # the verify package never depends on the service layer unless
        # the axis is actually exercised.
        from .service_check import execute_shared
        return execute_shared(w, config, args, data)
    comm_backend = getattr(config, "comm", "inproc")
    if config.ranks == 1 and comm_backend == "inproc":
        return _execute_single(w, config, args, data, engine_plan)
    # comm=process forces the SPMD path even for a single rank: the
    # whole point of the axis is to run every rank as a process, its
    # communication over the pipe mesh, and diff it bit-exact against
    # the in-proc oracle.
    return _execute_spmd(w, config, args, data, engine_plan, comm_plan,
                         interleave,
                         comm_backend="process" if comm_backend == "process"
                         else "sim")


def _finish(workload: Workload, config: Config, result: dict,
            counters: dict, engine_plan: FaultPlan | None) -> RunInfo:
    if _stats_comparable(config):
        result["run.stats"] = _stats_array(counters)
    injections = engine_plan.injected() if engine_plan is not None else 0
    return RunInfo(result=result, counters=counters, injections=injections)


def _execute_single(workload: Workload, config: Config,
                    args: ExecutionPolicy, data: np.ndarray, engine_plan) -> RunInfo:
    app = workload.build(args, None)
    if engine_plan is not None:
        app.fault_plan = engine_plan
    with app:
        if config.is_oracle and not app.engine.deterministic:
            raise ConformanceError(
                "oracle config resolved a non-deterministic engine "
                f"({app.engine.name!r}); the reference execution must be "
                "in-order")
        if config.driver == "space":
            sim = SlicedArraySim(data, steps=PIPELINE_STEPS)
            SpaceSharingDriver(sim, app, CoreSplit(1, 1)).run(PIPELINE_STEPS)
            result = dict(workload.extract(app, None))
        elif workload.multi_key:
            out = np.full(workload.output_length(len(data)), np.nan)
            app.run2(data, out)
            result = dict(workload.extract(app, out))
        else:
            app.run(data)
            result = dict(workload.extract(app, None))
        counters = dict(app.telemetry_snapshot()["counters"])
    return _finish(workload, config, result, counters, engine_plan)


@contextmanager
def _paper_gather():
    """Route global combination through the paper's gather — objects
    merged in rank order by the application's ``merge()`` — instead of
    the key vote every candidate with a columnar schema takes, so the
    SPMD oracle is a reference the vote is diffed against, not the vote
    itself."""
    def gather(comm, local_map, merge, combine):
        return _combine_gather(comm, local_map, merge, combine.wire_format)

    vote = _scheduler.global_combine
    _scheduler.global_combine = gather
    try:
        yield
    finally:
        _scheduler.global_combine = vote


def _execute_spmd(workload: Workload, config: Config, args: ExecutionPolicy,
                  data: np.ndarray, engine_plan, comm_plan,
                  interleave, comm_backend: str = "sim") -> RunInfo:
    ranks = config.ranks
    rows = len(data) // workload.chunk_size
    sizes = [rows // ranks + (1 if r < rows % ranks else 0)
             for r in range(ranks)]
    bounds = np.concatenate(([0], np.cumsum(sizes))) * workload.chunk_size
    out_len = workload.output_length(len(data))
    total = len(data)

    def body(comm):
        lo = int(bounds[comm.rank])
        hi = int(bounds[comm.rank + 1])
        app = workload.build(args, comm)
        if engine_plan is not None:
            app.fault_plan = engine_plan
        with app:
            if workload.multi_key:
                out = np.full(out_len, np.nan)
                app.run2(data[lo:hi], out, global_offset=lo, total_len=total)
                out = merge_distributed_output(comm, out)
                result = dict(workload.extract(app, out))
            else:
                # Each rank's slab at its global position, as in situ:
                # position-keyed analytics (grid, tile) then key by it.
                app.run(data[lo:hi], global_offset=lo, total_len=total)
                result = dict(workload.extract(app, None))
            counters = dict(app.telemetry_snapshot()["counters"])
        return result, counters

    with _paper_gather() if config.is_oracle else nullcontext():
        rank_returns = spmd_launch(ranks, body, fault_plan=comm_plan,
                                   interleave=interleave, timeout=SPMD_TIMEOUT,
                                   comm_backend=comm_backend)
    results = [r for r, _ in rank_returns]
    base = results[0]
    for rank, other in enumerate(results[1:], start=1):
        if set(other) != set(base):
            raise ConformanceError(
                f"rank divergence: rank {rank} extracted fields "
                f"{sorted(other)} vs rank 0 {sorted(base)}")
        for name in base:
            if not _arrays_equal(np.asarray(base[name]),
                                 np.asarray(other[name])):
                raise ConformanceError(
                    f"rank divergence on field {name!r}: rank {rank} "
                    "disagrees with rank 0 after global combination")
    counters: dict[str, int] = {}
    for _, rank_counters in rank_returns:
        for name, value in rank_counters.items():
            counters[name] = counters.get(name, 0) + value
    return _finish(workload, config, dict(base), counters, engine_plan)


def diff_results(
    workload_name: str,
    config: Config,
    expected: dict[str, np.ndarray],
    actual: dict[str, np.ndarray],
) -> list[Mismatch]:
    """Bit-compare two extracted runs; one mismatch per divergent field
    (anchored at the first divergent flat index).

    When the candidate ran the workload's batch kernel (any
    ``map_path`` but ``scalar``, on a workload that has one) two
    declared allowances apply: the ``run.accumulate_calls`` stat is
    masked from both sides (the kernel performs zero scalar accumulate
    calls by design), and a workload's positive ``batch_ulp`` bound
    tolerates known vector-math drift per float entry.  Everything else
    stays bit-exact.
    """
    fp = config.fingerprint()
    repro = repro_command(config)
    mismatches: list[Mismatch] = []
    workload = get_workload(workload_name)
    batch = config.map_path != "scalar" and workload.has_batch_path
    ulp_tol = workload.batch_ulp if batch else 0
    if "run.stats" not in expected or "run.stats" not in actual:
        # Stats are advisory (dropped on replayed-fault runs); compare
        # them only when both executions considered them meaningful.
        expected = {k: v for k, v in expected.items() if k != "run.stats"}
        actual = {k: v for k, v in actual.items() if k != "run.stats"}
    elif batch:
        # The oracle cache is shared across transparent variants, so the
        # mask is applied here rather than baked into the oracle run.
        keep = [i for i, name in enumerate(_STAT_COUNTERS)
                if name != "run.accumulate_calls"]
        expected = dict(expected)
        actual = dict(actual)
        expected["run.stats"] = np.asarray(expected["run.stats"])[keep]
        actual["run.stats"] = np.asarray(actual["run.stats"])[keep]
    if set(expected) != set(actual):
        missing = sorted(set(expected) - set(actual))
        extra = sorted(set(actual) - set(expected))
        mismatches.append(Mismatch(
            workload=workload_name, fingerprint=fp, kind="fields",
            detail=f"missing fields {missing}, unexpected fields {extra}",
            repro=repro))
        return mismatches
    for name in sorted(expected):
        e = np.asarray(expected[name])
        a = np.asarray(actual[name])
        if e.dtype != a.dtype:
            mismatches.append(Mismatch(
                workload=workload_name, fingerprint=fp, kind="dtype",
                field=name, dtype=str(a.dtype),
                detail=f"expected dtype {e.dtype}, got {a.dtype}",
                repro=repro))
            continue
        if e.shape != a.shape:
            mismatches.append(Mismatch(
                workload=workload_name, fingerprint=fp, kind="shape",
                field=name, dtype=str(e.dtype),
                detail=f"expected shape {e.shape}, got {a.shape}",
                repro=repro))
            continue
        ef, af = e.reshape(-1), a.reshape(-1)
        if np.issubdtype(e.dtype, np.floating):
            equal = (ef == af) | (np.isnan(ef) & np.isnan(af))
        else:
            equal = ef == af
        if bool(np.all(equal)):
            continue
        if ulp_tol and np.issubdtype(e.dtype, np.floating):
            bad = np.nonzero(~equal)[0]
            if all(0 <= ulp_distance(ef[i], af[i]) <= ulp_tol
                   for i in bad):
                continue
        idx = int(np.argmin(equal))
        ev, av = ef[idx], af[idx]
        ulp = abs_diff = None
        if np.issubdtype(e.dtype, np.floating):
            ulp = ulp_distance(ev, av)
            if not (np.isnan(ev) or np.isnan(av)):
                abs_diff = float(abs(float(ev) - float(av)))
        mismatches.append(Mismatch(
            workload=workload_name, fingerprint=fp, kind="value",
            field=name, key=idx, dtype=str(e.dtype),
            expected=repr(ev), actual=repr(av), ulp=ulp, abs_diff=abs_diff,
            detail=f"{int(np.size(equal) - np.count_nonzero(equal))} of "
                   f"{equal.size} entries diverge",
            repro=repro))
    return mismatches


class OracleCache:
    """Reference results keyed by structure axes — one oracle execution
    per (workload, threads, block, ranks, seed) combination
    no matter how many transparent-axis candidates share it."""

    def __init__(self, telemetry: Recorder | None = None):
        self._cache: dict[tuple, RunInfo] = {}
        self._telemetry = telemetry

    def get(self, config: Config) -> RunInfo:
        key = config.structure_key()
        cached = self._cache.get(key)
        if cached is not None:
            if self._telemetry is not None:
                self._telemetry.inc("verify.oracle_cache_hits")
            return cached
        if self._telemetry is not None:
            self._telemetry.inc("verify.oracle_runs")
        info = execute(get_workload(config.workload), config.oracle_of())
        self._cache[key] = info
        return info


def run_config(
    config: Config,
    *,
    cache: OracleCache | None = None,
    telemetry: Recorder | None = None,
) -> list[Mismatch]:
    """Execute one candidate config and diff it against its oracle."""
    cache = cache if cache is not None else OracleCache(telemetry)
    workload = get_workload(config.workload)
    if telemetry is not None:
        telemetry.inc("verify.configs_run")
    try:
        oracle = cache.get(config)
        candidate = execute(workload, config)
    except Exception as exc:  # noqa: BLE001 - reported as a structured record
        return [Mismatch(
            workload=config.workload, fingerprint=config.fingerprint(),
            kind="error", detail=f"{type(exc).__name__}: {exc}",
            repro=repro_command(config))]
    found = diff_results(config.workload, config, oracle.result,
                         candidate.result)
    if telemetry is not None and found:
        telemetry.inc("verify.mismatches", len(found))
    return found


@dataclass
class ConformanceReport:
    """Aggregated outcome of a matrix run (JSON-serializable)."""

    configs: list[str] = field(default_factory=list)
    #: Per-config :meth:`ExecutionPolicy.fingerprint` — the runtime
    #: configuration each run actually executed under, in :attr:`configs`
    #: order.
    policies: list[str] = field(default_factory=list)
    mismatches: list[Mismatch] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    seed: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "configs": list(self.configs),
            "policies": list(self.policies),
            "mismatches": [m.to_dict() for m in self.mismatches],
            "counters": dict(self.counters),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def run_matrix(
    configs: list[Config],
    *,
    telemetry: Recorder | None = None,
    cache: OracleCache | None = None,
) -> ConformanceReport:
    """Run every config against its oracle; collect structured results."""
    telemetry = telemetry if telemetry is not None else Recorder()
    cache = cache if cache is not None else OracleCache(telemetry)
    report = ConformanceReport(
        seed=configs[0].seed if configs else 0)
    for config in configs:
        report.configs.append(config.fingerprint())
        # Fingerprint the policy the run really executes under — the
        # fault axis decides the recovery mode, not the policy default.
        _, _, fault_policy = _fault_setup(config)
        report.policies.append(config.policy_fingerprint(fault_policy))
        report.mismatches.extend(
            run_config(config, cache=cache, telemetry=telemetry))
    report.counters = telemetry.counters("verify.")
    return report
