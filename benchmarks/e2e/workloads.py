"""The four closed-loop workloads.

Each class builds one configuration of the system from a seed, runs a
fixed number of ops against it in a closed loop (the next op starts only
when the previous one has its result), keeps what the oracle needs, and
afterwards checks the kept outputs against an independent serial run.

The program is addressed only through ``ExecutionPolicy`` and the public
entry points of each subsystem; a map path is named only while
``repro.core.policy.MAP_PATHS`` still lists it (``auto`` otherwise), so
the runtime can drop paths without touching these files.  ``--seed``
generates every input here; the program sees only the arrays.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.analytics import GridAggregation, Histogram, KMeans
from repro.comm import TrafficProfiler, spmd_launch
from repro.core import (
    MAP_PATHS,
    CombinePolicy,
    ElasticTier,
    EnginePolicy,
    ExecutionPolicy,
    TimeSharingDriver,
)
from repro.service import (
    AdmissionError,
    AnalyticsService,
    JobSpec,
    execute_workload,
    job_policy,
)
from repro.sim import Heat3D, Simulation
from repro.telemetry import Recorder
from repro.verify.workloads import get_workload

from .estimators import HostSpeed, block_ends, tree_cpu_seconds
from .trace import SpanProxy, Tracer

#: Every this-many-th op keeps its output for the oracle.
SAMPLE_EVERY = 50


def map_path(name: str) -> str:
    return name if name in MAP_PATHS else "auto"


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass
class Phase:
    """Per-op wall-clock stamps, plus the clock and the process-tree CPU
    at the phase's start and after each block's last op."""

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    #: ``(ops completed, perf_counter, tree CPU seconds)``
    marks: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def mark(self) -> None:
        self.marks.append((len(self.ends), time.perf_counter(), tree_cpu_seconds()))


class ForcedHeat3D(Simulation):
    """Heat3D plus a seeded, time-constant forcing field on its output.

    Heat3D itself takes no random input; the forcing term is what the
    seed varies, and it gives the analytics element-wise distinct values
    instead of a mostly cold block.  The sum lands in one reused output
    buffer, so — like the paper's Figure 3 — every step overwrites the
    memory the previous step's analytics read.
    """

    def __init__(self, shape, forcing: np.ndarray, comm=None):
        self._heat = Heat3D(shape, comm)
        self._forcing = forcing
        self._out = np.empty_like(forcing)

    def advance(self) -> np.ndarray:
        np.add(self._heat.advance(), self._forcing, out=self._out)
        return self._out

    @property
    def step(self) -> int:
        return self._heat.step

    @property
    def partition_elements(self) -> int:
        return self._heat.partition_elements

    @property
    def memory_nbytes(self) -> int:
        return self._heat.memory_nbytes + 2 * self._out.nbytes


class Workload:
    """Shared closed-loop driver: build, run phases of ops, close, check."""

    name: str
    elements_per_op: int
    #: Ops per second at seed speed; with ``granule`` it turns
    #: ``--seconds`` into a fixed op count (never a time limit).
    ops_per_second: float
    granule: int
    warmup_ops: int
    #: the thread whose spans the per-layer table reads
    lead_thread = "MainThread"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops_done = 0
        self.failed = 0
        self.phases: dict[str, Phase] = {}
        #: ``perf_counter`` when the first op's result was in hand
        self.ready_at = 0.0
        #: seconds spent in named set-up calls (pool spawn, register, ...)
        self.setup_seconds: dict[str, float] = {}
        self.tracer: Tracer | None = None
        #: the tracer while a traced phase runs, else None
        self.active_tracer: Tracer | None = None
        #: host-speed samples taken by the loop that drives the ops
        self.host = HostSpeed()

    @classmethod
    def timed_ops(cls, seconds: float) -> int:
        granules = max(1, round(cls.ops_per_second * seconds / cls.granule))
        return granules * cls.granule

    # -- the parts a workload fills in -------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        """One closed-loop op: returns with the op's result in hand."""
        raise NotImplementedError

    def between_ops(self) -> None:
        """Keep the last op's output for the oracle (outside its latency)."""

    def install(self, tracer: Tracer):
        """Shadow instance methods the program calls itself with spans
        (calls the workload makes go through :meth:`spanned`); returns
        the undo."""
        return lambda: None

    def counters(self) -> dict:
        """The program's own public counters, read before ``close``."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Compare kept outputs with the oracle; adds to ``self.failed``."""
        raise NotImplementedError

    def moved_bytes(self, counters: dict) -> int:
        raise NotImplementedError

    # -- driver ------------------------------------------------------------
    def spanned(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as a span in a traced phase."""
        if self.active_tracer is None:
            return fn(*args, **kwargs)
        with self.active_tracer.span(name):
            return fn(*args, **kwargs)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"[{self.name}] failed op: {what}", file=sys.stderr)

    def run_phase(self, n_ops: int, tracer: Tracer | None = None,
                  lead: bool = True) -> Phase:
        """``n_ops`` ops, one after another.  The lead loop (the only one,
        except on SPMD ranks) also samples host speed between ops and
        marks clock and CPU at block ends."""
        phase = Phase()
        self.active_tracer = tracer
        undo = self.install(tracer) if tracer is not None else None
        marks = block_ends(n_ops) if lead else ()
        if lead:
            self.host.sample_if_due()
            phase.mark()
        for _ in range(n_ops):
            t0 = time.perf_counter()
            try:
                self.spanned("op", self.op)
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                self.fail(f"op {self.ops_done} raised {exc!r}")
            t1 = time.perf_counter()
            phase.starts.append(t0)
            phase.ends.append(t1)
            if len(phase.ends) in marks:
                phase.mark()
            self.between_ops()
            if lead:
                self.host.sample_if_due()
            self.ops_done += 1
        if undo is not None:
            undo()
        self.active_tracer = None
        return phase

    def execute(self, plan: list[tuple[str, int, bool]]) -> dict:
        """Build, run ``plan`` (``(phase, ops, traced)`` in order; the
        first phase's end is the set-up finish line), read the counters,
        close.  Returns the counters."""
        self.build()
        for i, (name, n_ops, traced) in enumerate(plan):
            if traced:
                self.tracer = Tracer()
            self.phases[name] = self.run_phase(
                n_ops, self.tracer if traced else None)
            if i == 0:
                self.ready_at = time.perf_counter()
        counters = self.counters()
        self.close()
        return counters


# ----------------------------------------------------------------------
# timeshare_kmeans
# ----------------------------------------------------------------------
class TimeshareKMeans(Workload):
    """Heat3D 64³ → k-means (k=8, dims=4, 3 Lloyd iterations), time
    sharing on one rank over the process engine with two workers."""

    name = "timeshare_kmeans"
    shape = (64, 64, 64)
    elements_per_op = 64 * 64 * 64
    ops_per_second = 30.0
    granule = 50
    warmup_ops = 20
    k, dims, iters, workers = 8, 4, 3, 2

    def policy(self, backend: str) -> ExecutionPolicy:
        init = rng_for(self.seed, 1).uniform(-10.0, 110.0, (self.k, self.dims))
        return ExecutionPolicy(
            engine=EnginePolicy(backend=backend, num_threads=self.workers,
                                map_path=map_path("vector")),
            chunk_size=self.dims, num_iters=self.iters, extra_data=init)

    def make_sim(self) -> ForcedHeat3D:
        forcing = rng_for(self.seed, 2).normal(0.0, 5.0, self.elements_per_op)
        return ForcedHeat3D(self.shape, forcing)

    def build(self) -> None:
        self.sim = self.make_sim()
        self.app = KMeans(self.policy("process"), dims=self.dims)
        t0 = time.perf_counter()
        self.app.engine  # noqa: B018 - first access starts the worker pool
        self.setup_seconds["engine.pool_spawn_s"] = time.perf_counter() - t0
        self.samples: dict[int, np.ndarray] = {}
        self.driver = TimeSharingDriver(self.sim, self.app,
                                        per_step=self._per_step)

    def _per_step(self, _step, scheduler, _out) -> None:
        if self.ops_done % SAMPLE_EVERY == 0:
            self.samples[self.ops_done] = scheduler.centroids().copy()
        scheduler.reset()

    def op(self) -> None:
        self.driver.run(1)

    def install(self, tracer: Tracer):
        plain = self.driver
        self.driver = TimeSharingDriver(
            self.sim, SpanProxy(self.app, tracer, {"run": "scheduler.run"}),
            per_step=self._per_step)
        engine = self.app.engine
        undos = [
            tracer.patch(self.sim, "advance", "sim.advance"),
            tracer.patch(engine, "begin_run", "engine.begin_run"),
            tracer.patch(engine, "map_splits", "engine.block"),
        ]

        def undo():
            self.driver = plain
            for u in undos:
                u()

        return undo

    def counters(self) -> dict:
        return self.app.telemetry_snapshot()

    def close(self) -> None:
        self.app.close()

    def moved_bytes(self, snap: dict) -> int:
        ops = snap["ops"]
        return (snap["counters"].get("engine.residency.copied_bytes", 0)
                + sum(v["bytes"] for k, v in ops.items()
                      if k == "engine.dispatch" or k.startswith("engine.state.")))

    def check(self) -> None:
        """Sampled centroids bit-exact vs ``engine=serial`` on the same
        partition (same split count, so the float grouping is the same)."""
        sim = self.make_sim()
        with KMeans(self.policy("serial"), dims=self.dims) as oracle:
            for i in range(self.ops_done):
                partition = sim.advance()
                if i % SAMPLE_EVERY:
                    continue
                oracle.run(partition)
                if not np.array_equal(oracle.centroids(), self.samples.get(i)):
                    self.fail(f"step {i}: centroids differ from serial oracle")
                oracle.reset()


# ----------------------------------------------------------------------
# spmd_gridagg
# ----------------------------------------------------------------------
def _map_digest(com_map) -> str:
    items = com_map.sorted_items()
    h = hashlib.sha256()
    h.update(np.array([k for k, _ in items], dtype=np.int64).tobytes())
    h.update(np.array([o.total for _, o in items], dtype=np.float64).tobytes())
    h.update(np.array([o.count for _, o in items], dtype=np.int64).tobytes())
    return h.hexdigest()


class _GridRank(Workload):
    """One SPMD rank's share of :class:`SpmdGridAgg` (runs on its thread)."""

    name = "spmd_gridagg"

    def __init__(self, parent: "SpmdGridAgg", comm):
        super().__init__(parent.seed)
        self.parent = parent
        self.comm = comm

    def build(self) -> None:
        p = self.parent
        self.sim = p.make_sim(self.comm)
        self.app = GridAggregation(p.policy(), self.comm, grid_size=p.grid_size)
        self.offset = self.comm.rank * self.sim.partition_elements
        self.digests: dict[int, str] = {}
        self.result = None

    def op(self) -> None:
        self.result = self.spanned(
            "scheduler.run", self.app.run, self.sim.advance(),
            global_offset=self.offset, total_len=self.parent.elements_per_op)
        self.app.reset()

    def between_ops(self) -> None:
        if self.ops_done % SAMPLE_EVERY == 0:
            self.digests[self.ops_done] = _map_digest(self.result)
        self.result = None

    def install(self, tracer: Tracer):
        undos = [tracer.patch(self.sim, "advance", "sim.advance"),
                 tracer.patch(self.app.engine, "map_splits", "engine.block")]
        undos += [tracer.patch(self.comm, method, f"comm.{method}")
                  for method in ("send", "recv", "gather", "bcast",
                                 "allgather", "allreduce", "reduce")]

        def undo():
            for u in undos:
                u()

        return undo

    def counters(self) -> dict:
        return self.app.telemetry_snapshot()

    def close(self) -> None:
        self.app.close()


class SpmdGridAgg(Workload):
    """Two SPMD ranks, Heat3D (32,64,64) slabs → grid aggregation with
    16 384 keys per rank and step, columnar wire, gather combine."""

    name = "spmd_gridagg"
    lead_thread = "spmd-rank-0"  # named by the launcher
    shape = (32, 64, 64)
    elements_per_op = 32 * 64 * 64
    ops_per_second = 16.0
    granule = 50
    warmup_ops = 20
    ranks, grid_size = 2, 8

    def policy(self) -> ExecutionPolicy:
        return ExecutionPolicy(
            engine=EnginePolicy(map_path=map_path("batch")),
            combine=CombinePolicy(algorithm="gather", wire_format="columnar"))

    def make_sim(self, comm) -> ForcedHeat3D:
        forcing = rng_for(self.seed, 2).normal(0.0, 5.0, self.elements_per_op)
        per_rank = self.elements_per_op // comm.size
        lo = comm.rank * per_rank
        return ForcedHeat3D(self.shape, forcing[lo:lo + per_rank].copy(), comm)

    def _rank_body(self, comm, plan):
        rank = _GridRank(self, comm)
        rank.build()
        for i, (name, n_ops, traced) in enumerate(plan):
            rank.phases[name] = rank.run_phase(
                n_ops, self.tracer if traced else None, lead=comm.rank == 0)
            if i == 0:
                rank.ready_at = time.perf_counter()
        snap = rank.counters()
        rank.close()
        return rank, snap

    def execute(self, plan):
        if any(traced for _, _, traced in plan):
            self.tracer = Tracer()
        self.profiler = TrafficProfiler()
        results = spmd_launch(self.ranks, self._rank_body,
                              [(plan,)] * self.ranks, profiler=self.profiler)
        self.rank_runs = [rank for rank, _ in results]
        lead, snap = results[0]
        self.phases, self.ready_at, self.host = lead.phases, lead.ready_at, lead.host
        self.ops_done = lead.ops_done
        self.failed = sum(rank.failed for rank in self.rank_runs)
        snap["comm"] = {op: {"calls": calls, "bytes": nbytes} for op, (calls, nbytes)
                        in self.profiler.snapshot().items()}
        snap["comm_total_bytes"] = self.profiler.total_bytes()
        snap["comm_total_calls"] = self.profiler.total_calls()
        return snap

    def moved_bytes(self, snap: dict) -> int:
        return snap["comm_total_bytes"]

    def _sampled_partitions(self, comm, n_ops):
        sim = self.make_sim(comm)
        kept = {}
        for i in range(n_ops):
            partition = sim.advance()
            if i % SAMPLE_EVERY == 0:
                kept[i] = partition.copy()
        return kept

    def check(self) -> None:
        """Sampled steps: both ranks hold the same map, and it is
        bit-exact vs one serial rank (default policy: scalar map path,
        pickle wire) over the concatenated partitions."""
        kept = spmd_launch(self.ranks, self._sampled_partitions,
                           [(self.ops_done,)] * self.ranks)
        with GridAggregation(ExecutionPolicy(), grid_size=self.grid_size) as oracle:
            for i in sorted(kept[0]):
                oracle.run(np.concatenate([k[i] for k in kept]))
                want = _map_digest(oracle.get_combination_map())
                oracle.reset()
                got = {rank.digests.get(i) for rank in self.rank_runs}
                if got != {want}:
                    self.fail(f"step {i}: ranks {sorted(map(str, got))} vs oracle {want}")


# ----------------------------------------------------------------------
# intransit_histogram
# ----------------------------------------------------------------------
class IntransitHistogram(Workload):
    """Eight seeded N(0,1) partitions cycled through an ``ElasticTier``
    of two staging processes over loopback TCP → 64-bucket histogram."""

    name = "intransit_histogram"
    elements_per_op = 1 << 18
    ops_per_second = 270.0
    granule = 160
    warmup_ops = 63  # with the first op: four full drain periods
    partitions, drain_every, workers = 8, 16, 2
    lo, hi, buckets = -4.0, 4.0, 64

    def make_histogram(self, policy: ExecutionPolicy) -> Histogram:
        return Histogram(policy, lo=self.lo, hi=self.hi, num_buckets=self.buckets)

    def _staging_scheduler(self) -> Histogram:
        return self.make_histogram(
            ExecutionPolicy(engine=EnginePolicy(map_path=map_path("batch"))))

    def build(self) -> None:
        rng = rng_for(self.seed, 3)
        self.parts = [rng.normal(size=self.elements_per_op)
                      for _ in range(self.partitions)]
        self.telemetry = Recorder()
        t0 = time.perf_counter()
        self.tier = ElasticTier(self._staging_scheduler, self.workers,
                                telemetry=self.telemetry)
        self.setup_seconds["elastic.spawn_s"] = time.perf_counter() - t0
        self.submitted = np.zeros(self.partitions, dtype=np.int64)
        #: (copies of each partition submitted so far, drained counts)
        self.drains: list[tuple[np.ndarray, np.ndarray]] = []

    def _counts(self, com_map) -> np.ndarray:
        counts = np.zeros(self.buckets, dtype=np.int64)
        for key, obj in com_map.items():
            counts[key] = obj.count
        return counts

    def op(self) -> None:
        index = self.ops_done % self.partitions
        self.spanned("elastic.submit", self.tier.submit, self.parts[index])
        self.submitted[index] += 1
        # The very first op drains too: its result is the set-up finish line.
        if self.ops_done == 0 or (self.ops_done + 1) % self.drain_every == 0:
            drained = self.spanned("elastic.drain", self.tier.drain)
            self.drains.append((self.submitted.copy(), self._counts(drained)))

    def counters(self) -> dict:
        return self.telemetry.snapshot()

    def close(self) -> None:
        self.tier.close()

    def moved_bytes(self, snap: dict) -> int:
        return snap["counters"].get("elastic.bytes_forwarded", 0)

    def check(self) -> None:
        """Every drained count vector equals Σ multiplicity × the
        partition's own serial counts (default policy: the scalar
        ``gen_key``/``accumulate`` loop), and totals equal elements
        submitted."""
        per_part = []
        for part in self.parts:
            with self.make_histogram(ExecutionPolicy()) as oracle:
                oracle.run(part)
                per_part.append(oracle.counts())
        per_part = np.stack(per_part)
        for multiplicity, counts in self.drains:
            want = multiplicity @ per_part
            if not np.array_equal(counts, want) or (
                    counts.sum() != multiplicity.sum() * self.elements_per_op):
                self.fail(f"drain after {multiplicity.sum()} submits differs")
        if len(self.drains) < self.ops_done // self.drain_every:
            self.fail("fewer drains than scheduled")


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
class ServiceMixed(Workload):
    """Four tenants' default-policy jobs over one resident 8 192-element
    step, two service workers, four jobs outstanding at all times."""

    name = "service_mixed"
    elements_per_op = 8192
    ops_per_second = 46.0
    granule = 40
    warmup_ops = 31  # with the first op: every (tenant, workload) seat twice
    tenants, outstanding, workers = 4, 4, 2
    mix = ("histogram", "minmax", "grid_aggregation", "moving_average")
    #: How often the generator looks for finished jobs while the oldest
    #: is still running (completion stamps are this coarse).
    poll_seconds = 0.001

    def build(self) -> None:
        self.data = rng_for(self.seed, 4).normal(size=self.elements_per_op)
        self.svc = AnalyticsService(workers=self.workers).start()
        t0 = time.perf_counter()
        self.svc.register_step("step0", self.data)
        self.setup_seconds["service.register_step_ms"] = time.perf_counter() - t0
        self.handles = []
        self.rejected = 0
        #: per traced job: clock at the submit call, at its return and
        #: when seen done; and the job's engine seconds
        self.job_spans: list[tuple[float, float, float, float]] = []

    def spec(self, i: int) -> JobSpec:
        tenant = i % self.tenants
        workload = self.mix[(tenant + i // self.tenants) % len(self.mix)]
        return JobSpec(tenant=f"t{tenant}", workload=workload, step="step0")

    def run_phase(self, n_ops: int, tracer: Tracer | None = None,
                  lead: bool = True) -> Phase:
        """One generator thread keeps ``outstanding`` jobs in the service:
        it submits the next job the moment it sees one finish."""
        phase = Phase()
        marks = block_ends(n_ops)
        self.host.sample_if_due()
        phase.mark()
        live: list[tuple] = []  # (handle, clock at submit call, at its return)
        issued = 0
        while issued < n_ops or live:
            while issued < n_ops and len(live) < self.outstanding:
                t0 = time.perf_counter()
                try:
                    handle = self.svc.submit(self.spec(self.ops_done + issued))
                except AdmissionError as exc:
                    self.rejected += 1
                    self.fail(f"job {self.ops_done + issued} refused: {exc}")
                    phase.starts.append(t0)
                    phase.ends.append(time.perf_counter())
                else:
                    live.append((handle, t0, time.perf_counter()))
                issued += 1
            if not live:
                continue
            live[0][0].wait(self.poll_seconds)
            self.host.sample_if_due()
            now = time.perf_counter()
            for entry in list(live):
                handle, t0, t_in = entry
                if handle.done:
                    live.remove(entry)
                    phase.starts.append(t0)
                    phase.ends.append(now)
                    if len(phase.ends) in marks:
                        phase.mark()
                    self.handles.append(handle)
                    if tracer is not None:
                        self.job_spans.append(
                            (t0, t_in, now, handle.engine_seconds))
        self.ops_done += n_ops
        return phase

    def counters(self) -> dict:
        samples = []
        for _ in range(21):
            t0 = time.perf_counter()
            snap = self.svc.telemetry.snapshot()
            samples.append(time.perf_counter() - t0)
        snap["snapshot_seconds"] = sorted(samples)[len(samples) // 2]
        snap["shared_hit_rate"] = self.svc.store.hit_rate()
        return snap

    def close(self) -> None:
        self.svc.close()

    def moved_bytes(self, snap: dict) -> int:
        return snap["counters"].get("engine.residency.shared_copied_bytes", 0)

    def solo(self, workload: str) -> tuple[dict, dict]:
        w = get_workload(workload)
        result, counters = execute_workload(
            w, job_policy(w, None, self.data), self.data)
        return result, {k: v for k, v in counters.items() if k.startswith("run.")}

    def check(self) -> None:
        """Every job's result and ``run.*`` counters equal the solo
        ``execute_workload`` oracle for its workload."""
        oracles = {w: self.solo(w) for w in self.mix}
        for handle in self.handles:
            want, want_run = oracles[handle.spec.workload]
            if handle.error is not None:
                self.fail(f"job {handle.job_id} raised {handle.error!r}")
                continue
            got = handle.result()
            run = {k: v for k, v in handle.counters.items() if k.startswith("run.")}
            same = set(got) == set(want) and run == want_run and all(
                _same_array(np.asarray(got[k]), np.asarray(want[k]))
                for k in want)
            if not same:
                self.fail(f"job {handle.job_id} ({handle.spec.workload}) "
                          "differs from the solo oracle")


def _same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(
        got, want, equal_nan=np.issubdtype(want.dtype, np.floating))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (TimeshareKMeans, SpmdGridAgg, IntransitHistogram, ServiceMixed)
}
