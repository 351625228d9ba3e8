"""Analytic cluster cost model.

Predicts in-situ run time at paper scale from (a) per-element kernel
costs *measured on this host by running this repository's code*
(:mod:`repro.perfmodel.calibrate`), (b) an alpha-beta interconnect model
over the byte volumes global combination actually serializes, and (c)
the memory-pressure model.  Used by the Figure 6-11 harnesses, whose
x-axes (node counts, Xeon Phi core splits, multi-GB time-steps) exceed
this machine.

The model makes no claim about absolute seconds on the paper's clusters;
it reproduces *shapes*: efficiency curves, sharing-mode crossovers, and
memory cliffs.  Every parameter is either measured here or stated in the
bench configuration (see EXPERIMENTS.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..core.space_sharing import CoreSplit
from .machine import CALIBRATION_CLOCK_GHZ, MachineSpec
from .memory import MemoryCrash, MemoryModel


@dataclass(frozen=True)
class AnalyticsModel:
    """Cost profile of one analytics application.

    Attributes
    ----------
    seconds_per_element:
        Calibration-host single-thread seconds per input element for one
        pass over the data.
    passes:
        Passes over each time-step's data (= ``num_iters`` for iterative
        applications; each pass ends in one global combination).
    sync_payload_bytes:
        Serialized combination-map bytes each rank contributes per global
        combination (measured by serializing the real map).
    state_bytes_fixed:
        Reduction/combination state independent of input size (e.g. a
        histogram's buckets).
    state_bytes_per_element:
        State that grows with per-node elements — the window applications
        *without* early emission hold one reduction object per element
        (paper Section 4.1); with early emission this is ~0.
    """

    name: str
    seconds_per_element: float
    passes: int = 1
    sync_payload_bytes: float = 0.0
    state_bytes_fixed: float = 0.0
    state_bytes_per_element: float = 0.0
    #: Thread-scaling Amdahl fraction for this application; ``None`` uses
    #: the machine's default.
    parallel_fraction: float | None = None
    #: Smooth saturation cap: ``speedup(t) = t / (1 + t / sat)``.  Models
    #: memory-bandwidth-bound kernels, which scale near-linearly at low
    #: thread counts and asymptote at ``sat`` — stream-bound scans
    #: (histogram, grid aggregation) saturate well before compute-bound
    #: window kernels do, the source of Fig. 8's 59%-vs-79% split.
    #: Takes precedence over ``parallel_fraction`` when set.
    saturation_speedup: float | None = None

    def with_early_emission(self, enabled: bool, obj_bytes: float) -> "AnalyticsModel":
        """Window-app variant toggle: per-element state appears when the
        trigger mechanism is disabled (Fig. 11's comparison)."""
        return replace(
            self, state_bytes_per_element=0.0 if enabled else obj_bytes
        )


@dataclass(frozen=True)
class SimulationModel:
    """Cost/memory profile of the upstream simulation at paper scale.

    ``memory_factor`` is the simulation's working set as a multiple of
    its per-step output bytes.  For the paper's codes this is far above
    our Python proxies' two or four arrays: real Heat3D at scale keeps
    double buffers plus MPI staging (the Fig. 9a crash at a 2 GB step on
    a 12 GB node implies ~5x), and real LULESH keeps ~40 element- and
    node-centred fields plus ghost zones while outputting one (the Fig.
    9b cliff at edge 233 implies ~100x).  The bench configs state the
    value used per figure.
    """

    name: str
    seconds_per_element: float
    memory_factor: float
    halo_bytes_per_step: float = 0.0


@dataclass(frozen=True)
class NodeWorkload:
    """Per-node per-step data volume."""

    elements_per_step: int
    num_steps: int
    bytes_per_element: int = 8

    @property
    def step_bytes(self) -> int:
        return self.elements_per_step * self.bytes_per_element

    @classmethod
    def from_total(
        cls, total_bytes: float, num_steps: int, nodes: int, bytes_per_element: int = 8
    ) -> "NodeWorkload":
        """Split a global dataset (e.g. the paper's 1 TB) evenly."""
        elements = int(total_bytes / bytes_per_element / num_steps / nodes)
        return cls(elements, num_steps, bytes_per_element)


@dataclass
class Prediction:
    """Modeled run time with its per-step breakdown (seconds)."""

    sim_seconds: float
    analytics_seconds: float
    sync_seconds: float
    memory_multiplier: float
    working_set_bytes: float
    num_steps: int
    mode: str
    crashed: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def step_seconds(self) -> float:
        if self.crashed:
            return math.inf
        return (
            self.sim_seconds + self.analytics_seconds
        ) * self.memory_multiplier + self.sync_seconds

    @property
    def total_seconds(self) -> float:
        return self.step_seconds * self.num_steps


def analytics_speedup(machine: MachineSpec, threads: int, app: AnalyticsModel) -> float:
    """Thread speedup of this application's analytics on this machine."""
    threads = min(threads, machine.cores_per_node)
    if app.saturation_speedup is not None:
        return threads / (1.0 + threads / app.saturation_speedup)
    fraction = (
        app.parallel_fraction
        if app.parallel_fraction is not None
        else machine.analytics_parallel_fraction
    )
    return machine.thread_speedup(threads, fraction)


def collective_seconds(
    machine: MachineSpec, nodes: int, payload_bytes: float, rounds: int = 2
) -> float:
    """Alpha-beta cost of one global combination across ``nodes``.

    ``rounds=2``: the gather to the master plus the broadcast back
    (Algorithm 1's combination + redistribution), each a
    ``ceil(log2(nodes))``-deep tree.
    """
    if nodes <= 1:
        return 0.0
    depth = math.ceil(math.log2(nodes))
    return rounds * depth * (
        machine.net_latency_s + payload_bytes / machine.net_bandwidth_bps
    )


# -- global-combination algorithm models --------------------------------
#
# Linear-in-keys costs for the two combine algorithms the runtime can
# switch between (paper Fig. 6's overhead experiment vs the Section 5.3
# hand-written-MPI shape).  Per-key constants are calibration-host scale
# (2.5 GHz reference clock), in the same spirit as the kernel costs
# above: the model reproduces the *crossover shape*, not absolute
# seconds.

#: Master-side seconds to deserialize + Python-merge one reduction
#: object on the gather path (pickle decode, dict probe, ``merge()``).
T_OBJ_GATHER = 3e-6
#: Per-key seconds of the contiguous elementwise reduce (ufunc over
#: packed records) on the allreduce path.
T_KEY_ALLREDUCE = 4e-8
#: Fixed per-rank setup of the allreduce path: the collective
#: eligibility vote, key-union agreement, and identity padding.  The
#: model's constant-size vote holds for ranks whose keys are contiguous
#: (they vote a ``(first, last)`` run); others vote their key array.
#: Ranks with disjoint, rank-ordered keys skip the padding and the reduce
#: (they allgather their own records and concatenate); the model still
#: charges them the padded path's cost.
ALLREDUCE_SETUP = 2e-4
#: Default serialized bytes per reduction object on the pickle wire.
OBJ_WIRE_BYTES = 96.0
#: Default bytes per key of a packed record row on the columnar wire.
REC_WIRE_BYTES = 24.0


def model_combine_gather(
    machine: MachineSpec,
    ranks: int,
    keys: int,
    obj_bytes: float = OBJ_WIRE_BYTES,
) -> float:
    """Modeled seconds of one ``gather`` global combination.

    The master receives every rank's serialized map (alpha-beta gather +
    broadcast back) and merges object by object in Python — the
    master-side term grows with ``(ranks - 1) * keys``, which is why
    gather loses to allreduce once maps are large (paper Fig. 6).
    """
    if ranks <= 1:
        return 0.0
    payload = keys * obj_bytes
    return (
        collective_seconds(machine, ranks, payload)
        + (ranks - 1) * keys * T_OBJ_GATHER
    )


def model_combine_allreduce(
    machine: MachineSpec,
    ranks: int,
    keys: int,
    rec_bytes: float = REC_WIRE_BYTES,
) -> float:
    """Modeled seconds of one ``allreduce`` global combination.

    Ranks agree on the key union, identity-pad packed records, and
    reduce the contiguous buffers elementwise — high fixed setup (the
    collective vote), tiny per-key cost (one ufunc lane per key).
    """
    if ranks <= 1:
        return 0.0
    depth = math.ceil(math.log2(ranks))
    payload = keys * rec_bytes
    return (
        ranks * ALLREDUCE_SETUP
        + collective_seconds(machine, ranks, 64.0)  # the eligibility vote
        + collective_seconds(machine, ranks, payload, rounds=1)
        + depth * keys * T_KEY_ALLREDUCE
    )


def combine_crossover_keys(
    machine: MachineSpec,
    ranks: int,
    *,
    obj_bytes: float = OBJ_WIRE_BYTES,
    rec_bytes: float = REC_WIRE_BYTES,
    max_keys: int = 1 << 20,
) -> int:
    """Smallest key count at which allreduce beats gather (``ranks`` > 1).

    Deterministic doubling-then-bisect scan of the two linear models —
    the calibrated decision boundary :class:`repro.core.autotune` uses
    both for launch-time advice and for the mid-run combine switch.
    Returns ``max_keys`` when gather wins everywhere below it.
    """
    if ranks <= 1:
        return max_keys

    def allreduce_wins(k: int) -> bool:
        return model_combine_allreduce(machine, ranks, k, rec_bytes) < (
            model_combine_gather(machine, ranks, k, obj_bytes)
        )

    hi = 1
    while hi < max_keys and not allreduce_wins(hi):
        hi *= 2
    if hi >= max_keys:
        return max_keys
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if allreduce_wins(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _working_set(
    workload: NodeWorkload,
    sim: SimulationModel,
    app: AnalyticsModel,
    extra_copies: float,
) -> float:
    return (
        sim.memory_factor * workload.step_bytes
        + app.state_bytes_fixed
        + app.state_bytes_per_element * workload.elements_per_step
        + extra_copies * workload.step_bytes
    )


def model_time_sharing(
    machine: MachineSpec,
    nodes: int,
    threads: int,
    workload: NodeWorkload,
    sim: SimulationModel,
    app: AnalyticsModel,
    *,
    copy_input: bool = False,
    memory: MemoryModel = MemoryModel(),
    calibration_clock_ghz: float = CALIBRATION_CLOCK_GHZ,
) -> Prediction:
    """Predict a time-sharing run: sim and analytics alternate on all cores."""
    scale = machine.core_seconds_scale(calibration_clock_ghz)
    elems = workload.elements_per_step
    t_sim = (
        sim.seconds_per_element * elems * scale
        / machine.thread_speedup(threads, machine.sim_parallel_fraction)
    )
    t_ana = (
        app.seconds_per_element * elems * scale * app.passes
        / analytics_speedup(machine, threads, app)
    )
    t_sync = app.passes * collective_seconds(machine, nodes, app.sync_payload_bytes)
    t_sync += _halo_seconds(machine, nodes, sim)
    if copy_input:
        # The extra-copy implementation pays a real memcpy per step.
        t_sync += workload.step_bytes / machine.copy_bandwidth_bps
    t_sync *= _imbalance(machine, nodes)
    t_sim *= _imbalance(machine, nodes)
    t_ana *= _imbalance(machine, nodes)
    working = _working_set(workload, sim, app, 1.0 if copy_input else 0.0)
    try:
        mult = memory.multiplier(int(working), machine.mem_bytes)
        crashed = False
    except MemoryCrash:
        mult = math.inf
        crashed = True
    return Prediction(
        sim_seconds=t_sim,
        analytics_seconds=t_ana,
        sync_seconds=t_sync,
        memory_multiplier=mult,
        working_set_bytes=working,
        num_steps=workload.num_steps,
        mode="time_sharing",
        crashed=crashed,
    )


def model_simulation_only(
    machine: MachineSpec,
    nodes: int,
    threads: int,
    workload: NodeWorkload,
    sim: SimulationModel,
    *,
    memory: MemoryModel = MemoryModel(),
    calibration_clock_ghz: float = CALIBRATION_CLOCK_GHZ,
) -> Prediction:
    """Pure-simulation baseline (Fig. 10's 'simulation-only' bar)."""
    no_analytics = AnalyticsModel("none", 0.0)
    pred = model_time_sharing(
        machine, nodes, threads, workload, sim, no_analytics,
        memory=memory, calibration_clock_ghz=calibration_clock_ghz,
    )
    pred.mode = "simulation_only"
    return pred


def model_space_sharing(
    machine: MachineSpec,
    nodes: int,
    split: CoreSplit,
    workload: NodeWorkload,
    sim: SimulationModel,
    app: AnalyticsModel,
    *,
    buffer_cells: int = 4,
    memory: MemoryModel = MemoryModel(),
    calibration_clock_ghz: float = CALIBRATION_CLOCK_GHZ,
) -> Prediction:
    """Predict a space-sharing run: the two core groups run concurrently.

    Steady-state pipeline: the per-step time is the slower of the two
    stages, *plus* the communication of both stages, which cannot overlap
    — the paper notes space sharing "can only execute the message passing
    in simulation and analytics sequentially, to avoid the potential data
    race in MPI" (Section 5.6).  The circular buffer's cells are extra
    step-sized copies in the working set.
    """
    if split.total > machine.cores_per_node:
        raise ValueError(
            f"core split {split.label} exceeds {machine.cores_per_node} cores"
        )
    scale = machine.core_seconds_scale(calibration_clock_ghz)
    elems = workload.elements_per_step
    t_sim = (
        sim.seconds_per_element * elems * scale
        / machine.thread_speedup(split.sim_threads, machine.sim_parallel_fraction)
    )
    t_ana = (
        app.seconds_per_element * elems * scale * app.passes
        / analytics_speedup(machine, split.analytics_threads, app)
    )
    # Unlike time sharing's read pointer, space sharing must copy every
    # time-step into a circular-buffer cell (paper Section 3.2) — the
    # producer stage pays one memcpy per step.
    t_sim += workload.step_bytes / machine.copy_bandwidth_bps
    t_sync = app.passes * collective_seconds(machine, nodes, app.sync_payload_bytes)
    t_sync += _halo_seconds(machine, nodes, sim)
    # Space sharing copies each step into the circular buffer; occupied
    # cells are bounded by how far the producer runs ahead.
    cells_in_flight = min(buffer_cells, max(1, math.ceil(t_ana / max(t_sim, 1e-12))))
    working = _working_set(workload, sim, app, float(cells_in_flight))
    try:
        mult = memory.multiplier(int(working), machine.mem_bytes)
        crashed = False
    except MemoryCrash:
        mult = math.inf
        crashed = True
    t_sim *= _imbalance(machine, nodes)
    t_ana *= _imbalance(machine, nodes)
    t_sync *= _imbalance(machine, nodes)
    overlapped = max(t_sim, t_ana)
    hidden = min(t_sim, t_ana)
    pred = Prediction(
        sim_seconds=overlapped,
        analytics_seconds=0.0,
        sync_seconds=t_sync,
        memory_multiplier=mult,
        working_set_bytes=working,
        num_steps=workload.num_steps,
        mode=f"space_sharing[{split.label}]",
        crashed=crashed,
    )
    pred.notes.update(
        stage_sim=t_sim, stage_analytics=t_ana, hidden_seconds=hidden,
        cells_in_flight=cells_in_flight,
    )
    return pred


def _imbalance(machine: MachineSpec, nodes: int) -> float:
    """Straggler amplification: a step ends when the slowest rank does."""
    if nodes <= 1:
        return 1.0
    return 1.0 + machine.imbalance_coeff * math.log2(nodes)


def _halo_seconds(machine: MachineSpec, nodes: int, sim: SimulationModel) -> float:
    """Per-step halo-exchange cost of the simulation itself."""
    if nodes <= 1 or sim.halo_bytes_per_step <= 0:
        return 0.0
    return 2.0 * machine.net_latency_s + sim.halo_bytes_per_step / machine.net_bandwidth_bps


def parallel_efficiency(
    base_nodes: int, base_total: float, nodes: int, total: float
) -> float:
    """Weak/strong efficiency vs. the smallest configuration measured."""
    if total <= 0:
        raise ValueError("total time must be positive")
    return (base_total * base_nodes) / (total * nodes)
