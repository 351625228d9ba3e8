"""Policy autotuning: the perfmodel → telemetry → config loop.

The paper's own measurements show the runtime's best configuration is
workload-dependent: Figure 6's overhead experiment and the Section 5.3
comparison flip winners between the per-object gather combine and the
contiguous allreduce as the combination map grows, and Figure 9's
copy/no-copy choice flips with data size.  SIM-SITU (PAPERS.md) argues
the general point — configuration exploration of in-situ workflows needs
a cost model connected to real measurements.  This repository has both
halves (:mod:`repro.perfmodel` predicts, the
:class:`~repro.telemetry.Recorder` measures); this module connects them
to the configuration they describe:

* :class:`PolicyAdvisor` — launch-time advice.  Given a workload
  description (element count, rank count, key estimate, schema shape),
  it queries :mod:`repro.perfmodel.costmodel`'s combine models and
  returns a complete :class:`~repro.core.policy.ExecutionPolicy`
  (exposed as ``ExecutionPolicy.auto(...)``).
* :class:`CombineSwitch` — mid-run adaptation.  Installed as a
  scheduler's ``policy_adaptor``, it watches the *observed* key count
  after every global combination and switches the combine algorithm
  when it crosses the calibrated gather/allreduce crossover.  The
  decision reads only post-combine state that is identical on every
  rank, so SPMD ranks switch in lockstep, and every switch is recorded
  in ``policy.*`` telemetry and in :attr:`CombineSwitch.history` —
  rerunning the same program replays the identical switch sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .policy import CombinePolicy, EnginePolicy, ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..perfmodel.machine import MachineSpec
    from ..telemetry import Recorder
    from .scheduler import Scheduler


def _default_machine() -> "MachineSpec":
    # Lazy: repro.perfmodel's package init imports the analytics package,
    # which imports repro.core — a module-level import here would close
    # that cycle while repro.core is still initializing.
    from ..perfmodel.machine import MULTICORE_CLUSTER

    return MULTICORE_CLUSTER

__all__ = ["CombineSwitch", "PolicyAdvisor", "PROCESS_ENGINE_MIN_ELEMENTS"]

#: Scalar-loop element count below which the process engine's dispatch
#: overhead (core publication, per-split serialization) outweighs
#: GIL-free execution — the advisor never picks ``process`` under it.
PROCESS_ENGINE_MIN_ELEMENTS = 100_000


@dataclass(frozen=True)
class Advice:
    """One launch-time decision with the model numbers behind it."""

    policy: ExecutionPolicy
    crossover_keys: int
    gather_seconds: float
    allreduce_seconds: float


class PolicyAdvisor:
    """Chooses engine/combine/wire knobs from the analytic cost model.

    Deterministic: the same hints against the same
    :class:`~repro.perfmodel.machine.MachineSpec` always yield the same
    policy, so an advised run is exactly reproducible.
    """

    def __init__(
        self,
        machine: "MachineSpec | None" = None,
        telemetry: "Recorder | None" = None,
    ):
        self.machine = machine if machine is not None else _default_machine()
        self.telemetry = telemetry

    def advise(
        self,
        *,
        elements: int = 0,
        ranks: int = 1,
        threads: int = 1,
        chunk_size: int = 1,
        num_iters: int = 1,
        key_estimate: int = 16,
        schema_mergeable: bool = False,
        has_batch_path: bool = False,
        extra_data: Any = None,
        block_size: int | None = None,
        **overrides: Any,
    ) -> ExecutionPolicy:
        """An :class:`~repro.core.policy.ExecutionPolicy` for the
        described workload.

        Parameters
        ----------
        elements:
            Per-rank elements per run (drives the engine choice).
        ranks:
            Communicator size the job will run under.
        threads:
            Worker budget per rank (e.g. the simulation's thread count
            in time-sharing mode).
        key_estimate:
            Expected combination-map key count (drives the combine
            algorithm via the gather/allreduce crossover).
        schema_mergeable:
            Whether the reduction objects declare a columnar
            :class:`~repro.core.red_obj.Field` schema (drives the wire
            format; the runtime falls back transparently if a hint is
            optimistic).
        has_batch_path:
            Whether the application implements the batch-map path
            (``make_accumulator`` / ``batch_reduce``); when it does the
            advisor treats the map loop as numpy-bound when choosing
            the engine.  The map path itself stays ``auto``, so an
            optimistic hint falls back to the scalar loop.
        overrides:
            Passed through to the policy verbatim (``copy_input``,
            ``fault``, ``buffer_capacity``, ...).
        """
        return self.advise_with_detail(
            elements=elements, ranks=ranks, threads=threads,
            chunk_size=chunk_size, num_iters=num_iters,
            key_estimate=key_estimate, schema_mergeable=schema_mergeable,
            has_batch_path=has_batch_path, extra_data=extra_data,
            block_size=block_size, **overrides,
        ).policy

    def advise_with_detail(
        self,
        *,
        elements: int = 0,
        ranks: int = 1,
        threads: int = 1,
        chunk_size: int = 1,
        num_iters: int = 1,
        key_estimate: int = 16,
        schema_mergeable: bool = False,
        has_batch_path: bool = False,
        extra_data: Any = None,
        block_size: int | None = None,
        **overrides: Any,
    ) -> Advice:
        """:meth:`advise` plus the cost-model numbers behind the choice."""
        from ..perfmodel.costmodel import (
            combine_crossover_keys,
            model_combine_allreduce,
            model_combine_gather,
        )

        # Engine: a batch kernel makes the serial/thread loop
        # numpy-bound, so process pools only pay off on large scalar
        # loops where shipping splits beats holding the GIL.
        if threads > 1:
            backend = "thread"
            if (
                not has_batch_path
                and elements // max(chunk_size, 1) >= PROCESS_ENGINE_MIN_ELEMENTS
            ):
                backend = "process"
        else:
            backend = "serial"
        num_threads = max(int(threads), 1)

        # Combine algorithm: calibrated gather/allreduce crossover
        # (paper Fig. 6 / Section 5.3).  Allreduce needs a fully
        # ufunc-mergeable schema; without one the runtime would fall
        # back collectively anyway, so the advisor does not bother.
        crossover = combine_crossover_keys(self.machine, ranks)
        t_gather = model_combine_gather(self.machine, ranks, key_estimate)
        t_allreduce = model_combine_allreduce(self.machine, ranks, key_estimate)
        if ranks >= 2 and schema_mergeable and key_estimate >= crossover:
            algorithm = "allreduce"
        else:
            algorithm = "gather"
        wire = "columnar" if schema_mergeable else "pickle"

        policy = ExecutionPolicy(
            engine=EnginePolicy(backend=backend, num_threads=num_threads),
            combine=CombinePolicy(algorithm=algorithm, wire_format=wire),
            chunk_size=chunk_size,
            num_iters=num_iters,
            block_size=block_size,
            extra_data=extra_data,
            **overrides,
        )
        if self.telemetry is not None:
            self.telemetry.inc("policy.advice")
            self.telemetry.inc(f"policy.advice.engine.{backend}")
            self.telemetry.inc(f"policy.advice.algo.{algorithm}")
            self.telemetry.inc(f"policy.advice.wire.{wire}")
            self.telemetry.set_gauge("policy.crossover_keys", crossover)
        return Advice(
            policy=policy,
            crossover_keys=crossover,
            gather_seconds=t_gather,
            allreduce_seconds=t_allreduce,
        )


@dataclass
class CombineSwitch:
    """Mid-run combine-algorithm adaptation on the observed key count.

    Installed as ``scheduler.policy_adaptor``; the scheduler calls
    :meth:`observe` after ``post_combine`` of every iteration.  When the
    *measured* combination-map size crosses the calibrated crossover,
    the scheduler's policy is replaced (policies are immutable — the
    switch builds a new one with :meth:`ExecutionPolicy.evolve`) and the
    next iteration's global combination runs the other algorithm.

    Determinism: the decision reads the post-combine map length — a
    value global combination has already made identical on every rank —
    plus constants, so all SPMD ranks flip together, and replaying the
    run replays the same :attr:`history`.
    """

    machine: "MachineSpec" = field(default_factory=_default_machine)
    #: Decision boundary override; ``None`` derives it from the machine
    #: and the live rank count via ``combine_crossover_keys``.
    crossover_keys: int | None = None
    #: ``(iteration, observed_keys, from_algorithm, to_algorithm)`` per
    #: switch, in firing order.
    history: list[tuple[int, int, str, str]] = field(default_factory=list)

    def crossover_for(self, ranks: int) -> int:
        if self.crossover_keys is not None:
            return int(self.crossover_keys)
        from ..perfmodel.costmodel import combine_crossover_keys

        return combine_crossover_keys(self.machine, ranks)

    def observe(self, scheduler: "Scheduler", iteration: int) -> None:
        """One post-combine observation; may replace ``scheduler.policy``."""
        ranks = scheduler.comm.size
        if ranks < 2:
            return
        keys = len(scheduler.combination_map_)
        crossover = self.crossover_for(ranks)
        current = scheduler.policy.combine.algorithm
        if current not in ("gather", "allreduce"):
            return  # never second-guess an explicit tree choice
        target = "allreduce" if keys >= crossover else "gather"
        scheduler.telemetry.set_gauge("policy.observed_keys", keys)
        scheduler.telemetry.set_gauge("policy.crossover_keys", crossover)
        if target == current:
            return
        scheduler.policy = scheduler.policy.evolve(
            combine=CombinePolicy(
                algorithm=target,
                wire_format=scheduler.policy.combine.wire_format,
            )
        )
        self.history.append((iteration, keys, current, target))
        scheduler.telemetry.inc("policy.switches")
        scheduler.telemetry.inc(f"policy.switch.{current}_to_{target}")
