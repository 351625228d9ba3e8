"""Layered runtime configuration policies.

The runtime's configuration surface is a composition of small
per-concern policy objects rather than one flat knob bag:

* :class:`EnginePolicy` — *where* the intra-rank reduction runs: the
  execution backend, its worker count, and the map path.
* :class:`CombinePolicy` — *how* global combination moves and merges
  maps that the key vote cannot combine: the fallback algorithm and the
  wire format.
* :class:`ExecutionPolicy` — the complete runtime configuration: the
  two policies above, a :class:`~repro.faults.FaultPolicy`, and the
  iteration/block shape.

Every policy owns its own ``validate()`` / ``fingerprint()``; validity
rules live here and **only** here — the conformance matrix
(:mod:`repro.verify.matrix`) lowers onto these objects, so a knob value
rejected anywhere is rejected everywhere with the same message.

Fingerprints are flat ``key=value`` comma token strings using the same
vocabulary as the conformance matrix (``engine=``, ``threads=``,
``wire=``, ``algo=``, ``map=``, ``fault=``, ...), and
``ExecutionPolicy.parse(policy.fingerprint())`` round-trips exactly
(``extra_data`` is the one field a fingerprint cannot carry — it is an
arbitrary application object and is excluded by contract).

:meth:`ExecutionPolicy.auto` asks
:class:`repro.core.autotune.PolicyAdvisor` to choose the engine and the
wire format for a described workload instead of the user hand-picking
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..faults import FaultPolicy

__all__ = [
    "COMBINE_ALGORITHMS",
    "ENGINE_BACKENDS",
    "MAP_PATHS",
    "WIRE_FORMATS",
    "CombinePolicy",
    "EnginePolicy",
    "ExecutionPolicy",
    "fault_fingerprint",
    "parse_fault",
]

#: Execution backends accepted by :attr:`EnginePolicy.backend`.
ENGINE_BACKENDS = ("serial", "thread", "process")
#: Map-phase execution paths (:attr:`EnginePolicy.map_path`).
MAP_PATHS = ("auto", "scalar", "batch")
#: Global-combination algorithms for maps the key vote cannot combine.
COMBINE_ALGORITHMS = ("gather", "tree")
#: Map wire formats (the single source; ``repro.core.serialization``
#: imports this constant).
WIRE_FORMATS = ("pickle", "columnar")


# ----------------------------------------------------------------------
# Fault-policy fingerprints
# ----------------------------------------------------------------------
_FAULT_DEFAULT = FaultPolicy()


def fault_fingerprint(policy: FaultPolicy) -> str:
    """Compact text form of a :class:`~repro.faults.FaultPolicy`.

    ``mode`` alone when every knob is default, else
    ``mode:attempts=N:backoff=F:deadline=F`` with default-valued parts
    omitted; floats are written exactly (``repr``), so ``parse_fault``
    round-trips it.
    """
    parts = [policy.mode]
    if policy.max_attempts != _FAULT_DEFAULT.max_attempts:
        parts.append(f"attempts={policy.max_attempts}")
    if policy.backoff != _FAULT_DEFAULT.backoff:
        parts.append(f"backoff={policy.backoff!r}")
    if policy.task_deadline is not None:
        parts.append(f"deadline={policy.task_deadline!r}")
    return ":".join(parts)


def parse_fault(token: str) -> FaultPolicy:
    """Inverse of :func:`fault_fingerprint`."""
    head, *rest = token.strip().split(":")
    kwargs: dict[str, Any] = {}
    names = {
        "attempts": ("max_attempts", int),
        "backoff": ("backoff", float),
        "deadline": ("task_deadline", float),
    }
    for part in rest:
        key, _, value = part.partition("=")
        if key not in names:
            raise ValueError(f"unknown fault-policy knob {key!r} in {token!r}")
        name, cast = names[key]
        kwargs[name] = cast(value)
    return FaultPolicy(mode=head, **kwargs)


# ----------------------------------------------------------------------
# Per-concern policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EnginePolicy:
    """Where the intra-rank reduction runs.

    Parameters
    ----------
    backend:
        ``"serial"`` (in-order loop, deterministic — the default),
        ``"thread"`` (persistent thread pool), or ``"process"``
        (owned worker processes over resident shared-memory input).
    num_threads:
        Threads in the team — the reduction phase's split count (the
        process engine's calling thread is thread 0 and owns
        ``num_threads - 1`` worker processes).
    map_path:
        Which map-phase implementation reduces a split: ``"auto"``
        (the default — the application's batch kernel when it has one
        that still describes it, else the scalar loop), ``"scalar"``
        (the paper's per-chunk ``gen_key``/``accumulate`` loop), or
        ``"batch"`` (the application's ``batch_reduce`` scatter kernels
        over a preallocated
        :class:`~repro.core.batch.ColumnarAccumulator` — zero
        per-element emission).  Forcing ``"batch"`` on an application
        without a kernel raises at run time with the subclass named.
    """

    backend: str = "serial"
    num_threads: int = 1
    map_path: str = "auto"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` on any out-of-domain knob."""
        if self.backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"engine must be one of {ENGINE_BACKENDS}, got {self.backend!r}"
            )
        if self.num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {self.num_threads}")
        if self.map_path not in MAP_PATHS:
            raise ValueError(
                f"map_path must be one of {MAP_PATHS}, got {self.map_path!r}"
            )

    def fingerprint(self) -> str:
        return f"engine={self.backend},threads={self.num_threads},map={self.map_path}"


@dataclass(frozen=True)
class CombinePolicy:
    """How global combination moves and merges combination maps.

    A map whose every field declares a columnar merge is always combined
    by the key vote's contiguous allreduce
    (:func:`~repro.core.serialization.global_combine`); these knobs
    shape the combine of every other map.

    Parameters
    ----------
    algorithm:
        ``"gather"`` (merge-on-master) or ``"tree"`` (binomial reduce).
    wire_format:
        ``"pickle"`` (per-object payloads, the paper's design point) or
        ``"columnar"`` (contiguous keys + records arrays with per-field
        ufunc merges; schemaless maps fall back to pickle).
    """

    algorithm: str = "gather"
    wire_format: str = "pickle"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ValueError` on any out-of-domain knob."""
        if self.algorithm not in COMBINE_ALGORITHMS:
            raise ValueError(
                f"combine_algorithm must be one of {COMBINE_ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        if self.wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"wire_format must be one of {WIRE_FORMATS}, "
                f"got {self.wire_format!r}"
            )

    def fingerprint(self) -> str:
        return f"algo={self.algorithm},wire={self.wire_format}"


@dataclass(frozen=True)
class ExecutionPolicy:
    """The complete runtime configuration, composed of layered policies.

    The scheduler, the execution engines, the combine paths, and the
    in-situ drivers all consume this object (``Scheduler(policy)``).
    ``engine.num_threads``, ``chunk_size``, ``extra_data`` and
    ``num_iters`` are the four scheduler arguments of the paper's Table 1.

    Parameters
    ----------
    fault:
        Reaction to a dead or hung process-engine worker: a
        :class:`~repro.faults.FaultPolicy` or its mode name.
    chunk_size:
        Elements per unit chunk — often the analytics' feature-vector
        length (1 for histogram, ``dims`` for k-means).
    num_iters:
        Iterations of an iterative analytics (k-means, regression).
    block_size:
        Elements per scheduler block, a whole number of chunks; ``None``
        is one block per partition.
    extra_data:
        Handed to ``process_extra_data`` (e.g. initial centroids).
    buffer_capacity:
        Cells in the space-sharing circular buffer (paper Figure 4).
    copy_input:
        Time sharing: copy the simulation output before analytics rather
        than read it in place.  Exists only for Figure 9's comparison.
    disable_early_emission:
        Ignore reduction-object triggers, holding every object until
        combination.  Exists only for Figure 11's comparison.
    """

    engine: EnginePolicy = field(default_factory=EnginePolicy)
    combine: CombinePolicy = field(default_factory=CombinePolicy)
    fault: FaultPolicy = field(default_factory=FaultPolicy)
    chunk_size: int = 1
    num_iters: int = 1
    block_size: int | None = None
    extra_data: Any = None
    buffer_capacity: int = 4
    copy_input: bool = False
    disable_early_emission: bool = False

    def __post_init__(self) -> None:
        # Without these, ``engine="thread"`` dies in validate() with an
        # AttributeError that names neither the field nor the fix.
        if not isinstance(self.engine, EnginePolicy):
            raise TypeError(
                "engine must be an EnginePolicy, e.g. EnginePolicy(backend='thread'); "
                f"got {type(self.engine).__name__}"
            )
        if not isinstance(self.combine, CombinePolicy):
            raise TypeError(
                "combine must be a CombinePolicy, e.g. "
                f"CombinePolicy(algorithm='tree'); got {type(self.combine).__name__}"
            )
        # Normalize the fault field (a mode string is accepted sugar) so
        # two equal policies compare equal however they were spelled.
        object.__setattr__(self, "fault", FaultPolicy.parse(self.fault))
        self.validate()

    # -- validation (the single source of the runtime's validity rules)
    def validate(self) -> None:
        """Raise :class:`ValueError` on any out-of-domain knob, at any layer."""
        self.engine.validate()
        self.combine.validate()
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.num_iters < 1:
            raise ValueError(f"num_iters must be >= 1, got {self.num_iters}")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1 or None, got {self.block_size}"
            )
        if self.block_size is not None and self.block_size % self.chunk_size:
            # Blocks are cut at raw element counts: a ragged one would
            # split a chunk (a k-means point) between two blocks.
            raise ValueError(
                f"block_size={self.block_size} is not a whole number of "
                f"chunk_size={self.chunk_size} chunks"
            )
        if self.buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be >= 1, got {self.buffer_capacity}"
            )

    # -- fingerprint / parse -------------------------------------------
    def fingerprint(self) -> str:
        """Flat ``key=value`` token string; ``parse`` round-trips it.

        ``extra_data`` is excluded by contract (an arbitrary application
        object has no canonical text form); every other field is
        carried.
        """
        return ",".join((
            self.engine.fingerprint(),
            self.combine.fingerprint(),
            f"fault={fault_fingerprint(self.fault)}",
            f"chunk={self.chunk_size}",
            f"iters={self.num_iters}",
            f"block={self.block_size if self.block_size is not None else 0}",
            f"capacity={self.buffer_capacity}",
            f"copy={int(self.copy_input)}",
            f"hold={int(self.disable_early_emission)}",
        ))

    @classmethod
    def parse(cls, text: str) -> "ExecutionPolicy":
        """Inverse of :meth:`fingerprint`.

        The text may come from outside the program (``conform --policy``,
        a ``JobSpec``): an unknown axis, a repeated axis, and a boolean
        that is not ``0``/``1``/``true``/``false`` are all rejected.
        """
        engine: dict[str, Any] = {}
        combine: dict[str, Any] = {}
        top: dict[str, Any] = {}
        casts = {
            "engine": (engine, "backend", str),
            "threads": (engine, "num_threads", int),
            "map": (engine, "map_path", str),
            "algo": (combine, "algorithm", str),
            "wire": (combine, "wire_format", str),
            "fault": (top, "fault", parse_fault),
            "chunk": (top, "chunk_size", int),
            "iters": (top, "num_iters", int),
            "block": (top, "block_size", lambda v: int(v) or None),
            "capacity": (top, "buffer_capacity", int),
            "copy": (top, "copy_input", _parse_bool),
            "hold": (top, "disable_early_emission", _parse_bool),
        }
        for token in text.replace(";", ",").split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition("=")
            key = key.strip()
            if key not in casts:
                raise ValueError(f"unknown policy axis {key!r} in {text!r}")
            table, name, cast = casts[key]
            if name in table:
                raise ValueError(f"policy axis {key!r} given twice in {text!r}")
            try:
                table[name] = cast(value.strip())
            except ValueError as exc:
                raise ValueError(
                    f"bad value for policy axis {key!r} in {text!r}: {exc}"
                ) from None
        return cls(
            engine=EnginePolicy(**engine),
            combine=CombinePolicy(**combine),
            **top,
        )

    # -- construction helpers ------------------------------------------
    @classmethod
    def auto(cls, **hints: Any) -> "ExecutionPolicy":
        """Let the advisor pick the engine and wire knobs.

        Delegates to :class:`repro.core.autotune.PolicyAdvisor` — see
        its ``advise()`` for the accepted workload hints (``elements``,
        ``threads``, ``schema_mergeable``, ``has_batch_path``, ...).
        """
        from .autotune import PolicyAdvisor  # deferred: autotune imports this module

        telemetry = hints.pop("telemetry", None)
        return PolicyAdvisor(telemetry=telemetry).advise(**hints)

    def evolve(self, **changes: Any) -> "ExecutionPolicy":
        """A copy with ``changes`` applied (validated on construction)."""
        return replace(self, **changes)


def _parse_bool(value: str) -> bool:
    if value in ("1", "True", "true"):
        return True
    if value in ("0", "False", "false"):
        return False
    raise ValueError(f"expected 0, 1, true or false, got {value!r}")
