"""Launch-time policy advice.

:class:`PolicyAdvisor` turns a workload description (element count,
thread budget, schema shape) into a complete
:class:`~repro.core.policy.ExecutionPolicy` (exposed as
``ExecutionPolicy.auto(...)``): it picks the engine and the wire format.
It picks no combine algorithm — a map whose schema merges columnar is
always combined by the key vote's contiguous allreduce, and every other
map takes the paper's gather.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .policy import CombinePolicy, EnginePolicy, ExecutionPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..telemetry import Recorder

__all__ = ["PolicyAdvisor", "PROCESS_ENGINE_MIN_ELEMENTS"]

#: Scalar-loop element count below which the process engine's dispatch
#: overhead (core publication, per-split serialization) outweighs
#: GIL-free execution — the advisor never picks ``process`` under it.
PROCESS_ENGINE_MIN_ELEMENTS = 100_000


class PolicyAdvisor:
    """Chooses the engine and wire knobs for a described workload.

    Deterministic: the same hints always yield the same policy, so an
    advised run is exactly reproducible.
    """

    def __init__(self, telemetry: "Recorder | None" = None):
        self.telemetry = telemetry

    def advise(
        self,
        *,
        elements: int = 0,
        threads: int = 1,
        chunk_size: int = 1,
        num_iters: int = 1,
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
        threads:
            Worker budget per rank (e.g. the simulation's thread count
            in time-sharing mode).
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
        wire = "columnar" if schema_mergeable else "pickle"

        policy = ExecutionPolicy(
            engine=EnginePolicy(backend=backend, num_threads=max(int(threads), 1)),
            combine=CombinePolicy(wire_format=wire),
            chunk_size=chunk_size,
            num_iters=num_iters,
            block_size=block_size,
            extra_data=extra_data,
            **overrides,
        )
        if self.telemetry is not None:
            self.telemetry.inc("policy.advice")
            self.telemetry.inc(f"policy.advice.engine.{backend}")
            self.telemetry.inc(f"policy.advice.wire.{wire}")
        return policy
