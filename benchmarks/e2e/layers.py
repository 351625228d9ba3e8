"""The per-layer table of the traced run.

Three sources, all outside ``src/``: spans the traced phase recorded
around public calls; isolated probes that call one public layer function
on the workload's own data; and the program's existing public counters
(``telemetry_snapshot()``, ``TrafficProfiler``, ``JobHandle``).  A probe
whose entry point a later change removed reports nothing (the metric
reads 0) instead of failing the run.

Layer = module name.  Times are medians per op unless the name says
otherwise; metrics marked *exact* in README.md are ratios of counters
and repeat bit for bit.
"""

from __future__ import annotations

import pickle
import sys
import time

import numpy as np

from repro.core import (
    EnginePolicy,
    ExecutionPolicy,
    KeyedMap,
    TimeSharingDriver,
    deserialize_map,
    global_combine,
    serialize_map,
)
from repro.comm import spmd_launch
from repro.analytics import GridAggregation, KMeans
from repro.verify.workloads import get_workload

from .estimators import HostSpeed, median
from .workloads import (
    IntransitHistogram,
    ServiceMixed,
    SpmdGridAgg,
    TimeshareKMeans,
    Workload,
    map_path,
)

PROBE_REPEATS = 15

MS, US, NS_ELEM = "ms", "us", "ns/elem"


def timed(fn, host: HostSpeed, repeats: int = PROBE_REPEATS) -> float:
    """Median seconds of ``fn()`` over ``repeats`` calls (one discarded),
    each at reference host speed as sampled just before and after it."""
    fn()
    samples = []
    for _ in range(repeats):
        host.sample()
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        host.sample()
        samples.append((t1 - t0) / host.index(t0, t1))
    return median(samples)


def probe(table: dict, fn) -> None:
    """Run one probe; a layer entry point that no longer exists leaves
    its metrics at 0 rather than failing the traced run."""
    try:
        table.update(fn())
    except (AttributeError, ImportError, NotImplementedError, TypeError) as exc:
        print(f"probe {fn.__name__} skipped: {exc!r}", file=sys.stderr)


def batch_kernel_seconds(app, data: np.ndarray, host: HostSpeed) -> float:
    """Direct ``make_accumulator`` + ``batch_reduce`` over all of ``data``
    (the scheduler must have run once so its layout context is set)."""
    n = len(data)

    def kernel():
        app.batch_reduce(data, 0, n, app.make_accumulator(0, n))

    return timed(kernel, host)


def op_ms(w: Workload, span: str, self_time: bool = False) -> float:
    values = w.tracer.per_op(span, w.lead_thread, self_time)
    return median(values) * 1e3 if values else 0.0


def counter(snap: dict, name: str) -> int:
    return snap["counters"].get(name, 0)


# -- per workload ------------------------------------------------------
def kmeans_layers(w: TimeshareKMeans, snap: dict) -> dict:
    table: dict = {}
    ops, elems = w.ops_done, w.elements_per_op
    blocks = w.tracer.each("engine.block")
    block_ms = median(blocks) * 1e3
    table.update({
        "sim.advance_ms": (op_ms(w, "sim.advance"), MS),
        "scheduler.run_ms": (op_ms(w, "scheduler.run"), MS),
        # What the scheduler itself spends per element once the engine's
        # copy-in and blocks are taken out: local combination,
        # post_combine, reduction-map seeding.
        "scheduler.framework_ns_per_elem": (
            op_ms(w, "scheduler.run", self_time=True) * 1e6 / elems, NS_ELEM),
        "engine.begin_run_ms": (op_ms(w, "engine.begin_run"), MS),
        "engine.block_ms": (block_ms, MS),
        "engine.pool_spawn_s": (w.setup_seconds["engine.pool_spawn_s"], "s"),
        "engine.copied_bytes_per_elem": (
            counter(snap, "engine.residency.copied_bytes") / (ops * elems), "B/elem"),
        "engine.state_bytes_per_op": (
            sum(v["bytes"] for k, v in snap["ops"].items()
                if k.startswith("engine.state.")) / ops, "B"),
        "engine.residency_hit_rate": (
            counter(snap, "engine.residency.hits") / max(1, (
                counter(snap, "engine.residency.hits")
                + counter(snap, "engine.residency.misses"))), "ratio"),
    })

    sim = w.make_sim()
    data = sim.advance().copy()

    def map_kernel() -> dict:
        """The map kernel on each worker's split, in this process."""
        app = KMeans(w.policy("serial"), dims=w.dims)
        app.run(data)  # sets the layout context; seeds the centroids
        half = elems // w.workers
        splits = [(i * half, (i + 1) * half) for i in range(w.workers)]

        def reduce(lo, hi):
            app.vector_reduce(data, lo, hi, app.get_combination_map().clone())

        per_split = [timed(lambda lo=lo, hi=hi: reduce(lo, hi), w.host) for lo, hi in splits]
        split_ms = max(per_split) * 1e3
        return {
            "analytics.kmeans_vector_ns_per_elem": (sum(per_split) / elems * 1e9, NS_ELEM),
            "engine.split_ms": (split_ms, MS),
            # A block returns when its slower worker does; everything
            # beyond that split's kernel is dispatch, state shipping and
            # packed returns.
            "engine.dispatch_overhead_ms": (block_ms - split_ms, MS),
        }

    def serial_baseline() -> dict:
        """The same problem with ``engine=serial``."""
        with KMeans(w.policy("serial"), dims=w.dims) as app:
            driver = TimeSharingDriver(
                sim, app, per_step=lambda _i, sched, _o: sched.reset())
            driver.run(3)
            steps = driver.run(30).steps
        return {"engine.serial_baseline_step_ms": (
            median([s.total for s in steps]) * 1e3, MS)}

    probe(table, map_kernel)
    probe(table, serial_baseline)
    return table


def gridagg_layers(w: SpmdGridAgg, snap: dict) -> dict:
    table: dict = {}
    ops, elems = w.ops_done, w.elements_per_op
    lead = w.lead_thread
    tracer = w.tracer
    collectives = ("gather", "bcast", "allgather", "allreduce", "reduce")
    per_op_comm = [sum(vals) for vals in zip(*(
        tracer.per_op(f"comm.{c}", lead) for c in collectives))]
    # Rank skew: how far apart the two ranks reach each step's first
    # collective — the time the earlier one waits for the other.
    firsts = []
    for thread in sorted(tracer.by_thread):
        seen, stamps = set(), []
        for span in tracer.spans(thread):
            if span.name.startswith("comm.") and span.name[5:] in collectives:
                root = id(span.root)
                if root not in seen:
                    seen.add(root)
                    stamps.append(span.start)
        firsts.append(stamps)
    skew = [abs(a - b) / w.host.index(min(a, b), max(a, b))
            for a, b in zip(*firsts)] if len(firsts) == 2 else [0.0]
    run_ms = op_ms(w, "scheduler.run")
    table.update({
        "sim.advance_ms": (op_ms(w, "sim.advance"), MS),
        "scheduler.run_ms": (run_ms, MS),
        "scheduler.peak_red_objects": (counter(snap, "run.peak_red_objects"), "count"),
        "scheduler.early_emissions_per_op": (
            counter(snap, "run.early_emissions") / ops, "count"),
        "engine.block_ms": (median(tracer.each("engine.block", lead)) * 1e3, MS),
        "comm.collective_ms": (median(per_op_comm) * 1e3, MS),
        "comm.rank_skew_ms": (median(skew) * 1e3, MS),
        "comm.bytes_per_op": (snap["comm_total_bytes"] / ops, "B"),
        "comm.calls_per_op": (snap["comm_total_calls"] / ops, "count"),
    })

    policy = w.policy()
    half = elems // w.ranks

    def local_map(comm):
        """One rank's local combination map of one step."""
        app = GridAggregation(policy, comm, grid_size=w.grid_size)
        app.set_global_combination(False)
        data = w.make_sim(comm).advance().copy()
        app.run(data, global_offset=comm.rank * half, total_len=elems)
        return app, data

    app, data = spmd_launch(w.ranks, local_map)[0]
    one_step = app.get_combination_map()
    probes: dict = {}

    def kernel() -> dict:
        return {"analytics.gridagg_batch_ns_per_elem": (
            batch_kernel_seconds(app, data, w.host) / len(data) * 1e9, NS_ELEM)}

    def local_combine() -> dict:
        # As in every step after reset(): the reduction map folds into
        # an empty combination map.
        seconds = timed(lambda: KeyedMap().merge_map(one_step, app.merge), w.host)
        probes["local_combine"] = seconds
        return {"maps.local_combine_ms": (seconds * 1e3, MS)}

    def wire() -> dict:
        fmt = policy.combine.wire_format
        payload = serialize_map(one_step, fmt)
        return {
            "serialization.serialize_ms": (
                timed(lambda: serialize_map(one_step, fmt), w.host) * 1e3, MS),
            "serialization.deserialize_ms": (
                timed(lambda: deserialize_map(payload), w.host) * 1e3, MS),
            "serialization.wire_bytes_per_key": (len(payload) / len(one_step), "B"),
        }

    def combine() -> dict:
        def body(comm):
            rank_app, _ = local_map(comm)
            local = rank_app.get_combination_map()
            return timed(lambda: global_combine(
                comm, local, rank_app.merge, combine=policy.combine),
                w.host if comm.rank == 0 else HostSpeed())

        seconds = spmd_launch(w.ranks, body)[0]
        probes["global_combine"] = seconds
        return {"serialization.global_combine_ms": (seconds * 1e3, MS)}

    for fn in (kernel, local_combine, wire, combine):
        probe(table, fn)
    kernel_ms = table.get("analytics.gridagg_batch_ns_per_elem", (0.0,))[0] * half / 1e6
    # The run span minus the map kernel and both combination probes:
    # accumulator seeding and the per-key object fold, mostly.
    table["scheduler.framework_ns_per_elem"] = (
        (run_ms - kernel_ms - 1e3 * (probes.get("local_combine", 0.0)
                                     + probes.get("global_combine", 0.0)))
        * 1e6 / half, NS_ELEM)
    return table


def intransit_layers(w: IntransitHistogram, snap: dict) -> dict:
    table: dict = {}
    ops, elems = w.ops_done, w.elements_per_op
    submits = w.tracer.each("elastic.submit")
    drains = w.tracer.each("elastic.drain")
    frames = counter(snap, "elastic.frames_forwarded")
    wait = snap["timers"].get("elastic.credit_wait_seconds", {"seconds": 0.0})
    submit_seconds = sum(p.ends[-1] - p.starts[0] for p in w.phases.values())
    table.update({
        "elastic.submit_ms": (median(submits) * 1e3, MS),
        "elastic.drain_ms": (median(drains) * 1e3, MS),
        "elastic.credit_wait_fraction": (wait["seconds"] / submit_seconds, "ratio"),
        "elastic.snapshots_per_1k_frames": (
            1e3 * counter(snap, "elastic.snapshots") / frames, "count"),
        "elastic.bytes_per_elem": (
            counter(snap, "elastic.bytes_forwarded") / (ops * elems), "B/elem"),
        "elastic.spawn_s": (w.setup_seconds["elastic.spawn_s"], "s"),
    })
    part = w.parts[0]

    def frame() -> dict:
        from repro.comm.tcp import pack_frame
        from repro.core.elastic import K_W_DATA

        payload = pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL)
        return {
            "elastic.encode_ms": (timed(lambda: pack_frame(
                K_W_DATA, -1, 0, 0,
                pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL)), w.host) * 1e3, MS),
            # 2 MiB payload, header and CRC: the framing cost alone.
            "comm.tcp_pack_frame_ms": (
                timed(lambda: pack_frame(K_W_DATA, -1, 0, 0, payload), w.host) * 1e3, MS),
        }

    def kernel() -> dict:
        with w.make_histogram(ExecutionPolicy(
                engine=EnginePolicy(map_path=map_path("batch")))) as app:
            app.run(part)
            return {"analytics.histogram_batch_ns_per_elem": (
                batch_kernel_seconds(app, part, w.host) / elems * 1e9, NS_ELEM)}

    probe(table, frame)
    probe(table, kernel)
    return table


def service_layers(w: ServiceMixed, snap: dict) -> dict:
    table: dict = {}
    jobs = w.ops_done
    t0, t_in, t_done, engine = (np.array(col) for col in zip(*w.job_spans))
    speed = np.array([w.host.index(a, b) for a, b in zip(t0, t_done)])
    submit, engine, latency = (
        x / speed for x in (t_in - t0, engine, t_done - t0))
    phase = w.phases["traced"]
    wall = phase.marks[-1][1] - phase.marks[0][1]
    seats_new = counter(snap, "service.seats.created")
    seats_old = counter(snap, "service.seats.reused")
    per_tenant = np.array([
        snap["timers"].get(f"service.tenant.t{t}.engine_seconds", {"seconds": 0.0})["seconds"]
        for t in range(w.tenants)])
    run_counters = [h.counters for h in w.handles if h.error is None]
    table.update({
        "service.submit_us": (float(np.median(submit)) * 1e6, US),
        # Everything between the submit call returning and the result
        # being seen that is not the job's own engine time: queue,
        # admission, DRR, seat and lease, and the completion notice.
        "service.queue_wait_ms": (
            float(np.median(latency - submit - engine)) * 1e3, MS),
        # Worker capacity not covered by any job's engine time.
        "service.worker_idle_fraction": (
            float(1.0 - (engine * speed).sum() / (w.workers * wall)), "ratio"),
        "service.engine_ms": (float(np.median(engine)) * 1e3, MS),
        "telemetry.snapshot_us": (snap["snapshot_seconds"] * 1e6, US),
        "service.shared_hit_rate": (snap["shared_hit_rate"], "ratio"),
        "service.seats_reused_fraction": (
            seats_old / max(1, seats_old + seats_new), "ratio"),
        "service.copied_bytes_per_job": (
            counter(snap, "engine.residency.shared_copied_bytes") / jobs, "B"),
        "service.register_step_ms": (
            w.setup_seconds["service.register_step_ms"] * 1e3, MS),
        # Jain's index over per-tenant engine seconds.
        "service.fairness_index": (
            float(per_tenant.sum() ** 2 / (len(per_tenant) * (per_tenant ** 2).sum())),
            "ratio"),
        "service.rejected_fraction": (w.rejected / jobs, "ratio"),
        "scheduler.peak_red_objects": (
            max(c.get("run.peak_red_objects", 0) for c in run_counters), "count"),
        "scheduler.early_emissions_per_op": (
            sum(c.get("run.early_emissions", 0) for c in run_counters)
            / len(run_counters), "count"),
    })
    # A job's latency splits into submit, queue wait and engine time by
    # construction (the queue wait is the remainder: the service exposes
    # no dispatch instant), so nothing is left to call unattributed.
    table["driver.unattributed_fraction"] = (0.0, "ratio")

    solo_ms: dict[str, float] = {}
    kernel_ms: dict[str, float] = {}

    def solo() -> dict:
        for name in w.mix:
            solo_ms[name] = timed(lambda name=name: w.solo(name), w.host, repeats=7) * 1e3
        return {f"analytics.solo_ms.{name}": (ms, MS) for name, ms in solo_ms.items()}

    def kernels() -> dict:
        """The same four jobs' batch kernels alone: the floor the
        scalar-path run sits above."""
        for name in w.mix:
            spec = get_workload(name)
            policy = ExecutionPolicy(
                engine=EnginePolicy(map_path=map_path("batch")),
                chunk_size=spec.chunk_size, num_iters=spec.num_iters)
            with spec.build(policy) as app:
                if spec.multi_key:
                    app.run2(w.data, np.full(len(w.data), np.nan))
                else:
                    app.run(w.data)
                kernel_ms[name] = batch_kernel_seconds(app, w.data, w.host) * 1e3
        return {}

    probe(table, solo)
    probe(table, kernels)
    if solo_ms:
        by_workload = {}
        for h, e in zip(w.handles[-len(engine):], engine):
            by_workload.setdefault(h.spec.workload, []).append(e * 1e3)
        overhead = [median(v) - solo_ms[k] for k, v in by_workload.items()]
        run_ms = sum(solo_ms.values()) / len(solo_ms)
        table.update({
            # Engine time of a job in the service minus the same job solo.
            "service.overhead_ms": (sum(overhead) / len(overhead), MS),
            "scheduler.run_ms": (run_ms, MS),
            "scheduler.framework_ns_per_elem": (
                (sum(solo_ms.values()) - sum(kernel_ms.values())) * 1e6
                / (len(solo_ms) * w.elements_per_op), NS_ELEM),
        })
    return table


LAYERS = {
    TimeshareKMeans: kmeans_layers,
    SpmdGridAgg: gridagg_layers,
    IntransitHistogram: intransit_layers,
    ServiceMixed: service_layers,
}


def per_layer(w: Workload, snap: dict, result: dict, worker_rss_mb: float) -> dict:
    """Every per-layer metric this workload's layers produce."""
    if w.tracer is not None:
        w.tracer.normalise(w.host)
    table = LAYERS[type(w)](w, snap)
    if worker_rss_mb:  # RUSAGE_CHILDREN after close(): 0 when it spawned none
        table["engine.worker_peak_rss_mb"] = (worker_rss_mb, "MB")
    table.setdefault("driver.unattributed_fraction", (
        w.tracer.unattributed_fraction(w.lead_thread), "ratio"))
    untraced, traced = (
        median(w.host.latencies(w.phases[p].starts, w.phases[p].ends))
        for p in ("timed", "traced"))
    table["driver.trace_overhead_fraction"] = (traced / untraced - 1.0, "ratio")
    table["driver.op_tail_ms"] = (result["info"]["op_tail_ms"], MS)
    table["driver.op_tail_percentile"] = (result["info"]["op_tail_percentile"], "%")
    table["host.speed_index"] = (result["info"]["host_speed_index"], "ratio")
    return table
