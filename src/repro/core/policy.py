"""Layered runtime configuration policies.

The runtime's configuration surface is a composition of small
per-concern policy objects rather than one flat knob bag:

* :class:`EnginePolicy` — *where* the intra-rank reduction runs: the
  execution backend, its worker count, and the process engine's
  input-residency mode.
* :class:`CombinePolicy` — *how* global combination moves and merges
  maps: the combination algorithm and the wire format.
* :class:`ExecutionPolicy` — the complete runtime configuration: an
  engine policy, a combine policy, a
  :class:`~repro.faults.FaultPolicy`, and the iteration/block shape
  (chunk size, iterations, block size, the space-sharing buffer
  capacity, and the paper's Fig-9/Fig-11 comparison toggles).

Every policy owns its own ``validate()`` / ``fingerprint()`` /
``parse()``; validity rules live here and **only** here — the
:class:`~repro.core.sched_args.SchedArgs` facade and the conformance
matrix (:mod:`repro.verify.matrix`) both lower onto these objects, so
a knob value rejected anywhere is rejected everywhere with the same
message.

Fingerprints are flat ``key=value`` comma token strings using the same
vocabulary as the conformance matrix (``engine=``, ``threads=``,
``wire=``, ``algo=``, ``residency=``, ``fault=``, ...), and
``ExecutionPolicy.parse(policy.fingerprint())`` round-trips exactly
(``extra_data`` is the one field a fingerprint cannot carry — it is an
arbitrary application object and is excluded by contract).

:meth:`ExecutionPolicy.auto` closes the perfmodel→telemetry→config
loop: it asks :class:`repro.core.autotune.PolicyAdvisor` — backed by
:mod:`repro.perfmodel.costmodel` — to choose the engine, combine
algorithm, and wire format for a described workload instead of the user
hand-picking them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Any

from ..faults import FaultPolicy

__all__ = [
    "COMBINE_ALGORITHMS",
    "ENGINE_BACKENDS",
    "MAP_PATHS",
    "RESIDENCY_MODES",
    "WIRE_FORMATS",
    "CombinePolicy",
    "EnginePolicy",
    "ExecutionPolicy",
    "fault_fingerprint",
    "parse_fault",
    "reset_warn_once",
    "warn_once",
]

#: Execution backends accepted by :attr:`EnginePolicy.backend`.
ENGINE_BACKENDS = ("serial", "thread", "process")
#: Process-engine input-residency modes.
RESIDENCY_MODES = ("auto", "off")
#: Map-phase execution paths (:attr:`EnginePolicy.map_path`).
MAP_PATHS = ("auto", "scalar", "batch")
#: Global-combination algorithms.
COMBINE_ALGORITHMS = ("gather", "tree", "allreduce")
#: Map wire formats (the single source; ``repro.core.serialization``
#: imports this constant).
WIRE_FORMATS = ("pickle", "columnar")


# ----------------------------------------------------------------------
# Once-per-process deprecation warnings
# ----------------------------------------------------------------------
_WARNED: set[str] = set()


def warn_once(
    key: str,
    message: str,
    category: type[Warning] = DeprecationWarning,
    stacklevel: int = 3,
) -> None:
    """Emit ``message`` at most once per process per ``key``.

    Deprecations on hot construction paths (``SchedArgs`` is built once
    per config in a thousand-config conformance run) must not spam; one
    process-lifetime warning is enough to steer a migration.
    """
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, category, stacklevel=stacklevel)


def reset_warn_once() -> None:
    """Forget which once-per-process warnings already fired (test hook)."""
    _WARNED.clear()


# ----------------------------------------------------------------------
# Fault-policy fingerprints
# ----------------------------------------------------------------------
_FAULT_DEFAULT = FaultPolicy()


def fault_fingerprint(policy: FaultPolicy) -> str:
    """Compact text form of a :class:`~repro.faults.FaultPolicy`.

    ``mode`` alone when every knob is default, else
    ``mode:attempts=N:backoff=F:factor=F:deadline=F`` with
    default-valued parts omitted.  ``parse_fault`` round-trips it.
    """
    parts = [policy.mode]
    if policy.max_attempts != _FAULT_DEFAULT.max_attempts:
        parts.append(f"attempts={policy.max_attempts}")
    if policy.backoff != _FAULT_DEFAULT.backoff:
        parts.append(f"backoff={policy.backoff:g}")
    if policy.backoff_factor != _FAULT_DEFAULT.backoff_factor:
        parts.append(f"factor={policy.backoff_factor:g}")
    if policy.backoff_cap != _FAULT_DEFAULT.backoff_cap:
        parts.append(f"cap={policy.backoff_cap:g}")
    if policy.backoff_jitter != _FAULT_DEFAULT.backoff_jitter:
        parts.append(f"jitter={policy.backoff_jitter:g}")
    if policy.backoff_seed != _FAULT_DEFAULT.backoff_seed:
        parts.append(f"bseed={policy.backoff_seed}")
    if policy.task_deadline is not None:
        parts.append(f"deadline={policy.task_deadline:g}")
    return ":".join(parts)


def parse_fault(token: str) -> FaultPolicy:
    """Inverse of :func:`fault_fingerprint`."""
    head, *rest = token.strip().split(":")
    kwargs: dict[str, Any] = {}
    names = {
        "attempts": ("max_attempts", int),
        "backoff": ("backoff", float),
        "factor": ("backoff_factor", float),
        "cap": ("backoff_cap", float),
        "jitter": ("backoff_jitter", float),
        "bseed": ("backoff_seed", int),
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
        (persistent process pool over shared-memory input).
    num_threads:
        Workers per pool — the reduction phase's split count.
    residency:
        Process-engine input residency: ``"auto"`` keeps partition
        segments resident across runs; ``"off"`` restores
        segment-per-run.
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
    residency: str = "auto"
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
        if self.residency not in RESIDENCY_MODES:
            raise ValueError(
                f"residency must be 'auto' or 'off', got {self.residency!r}"
            )
        if self.map_path not in MAP_PATHS:
            raise ValueError(
                f"map_path must be one of {MAP_PATHS}, got {self.map_path!r}"
            )

    def fingerprint(self) -> str:
        return (
            f"engine={self.backend},threads={self.num_threads},"
            f"residency={self.residency},map={self.map_path}"
        )

    @classmethod
    def parse(cls, text: str) -> "EnginePolicy":
        kwargs = _tokens(text, {
            "engine": ("backend", str),
            "threads": ("num_threads", int),
            "residency": ("residency", str),
            "map": ("map_path", str),
        })
        return cls(**kwargs)


@dataclass(frozen=True)
class CombinePolicy:
    """How global combination moves and merges combination maps.

    Parameters
    ----------
    algorithm:
        ``"gather"`` (merge-on-master), ``"tree"`` (binomial reduce), or
        ``"allreduce"`` (contiguous elementwise reduce of packed
        records; falls back to gather when the schema is ineligible).
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
                f"combine_algorithm must be 'gather', 'tree', or 'allreduce', "
                f"got {self.algorithm!r}"
            )
        if self.wire_format not in WIRE_FORMATS:
            raise ValueError(
                f"wire_format must be 'pickle' or 'columnar', "
                f"got {self.wire_format!r}"
            )

    def fingerprint(self) -> str:
        return f"algo={self.algorithm},wire={self.wire_format}"

    @classmethod
    def parse(cls, text: str) -> "CombinePolicy":
        kwargs = _tokens(text, {
            "algo": ("algorithm", str),
            "wire": ("wire_format", str),
        })
        return cls(**kwargs)


@dataclass(frozen=True)
class ExecutionPolicy:
    """The complete runtime configuration, composed of layered policies.

    The scheduler, the execution engines, the combine paths, and the
    in-situ drivers all consume this object (``Scheduler(policy)``);
    :class:`~repro.core.sched_args.SchedArgs` remains as a thin facade
    that lowers onto it.

    Flat read-only views (``num_threads``, ``wire_format``,
    ``resolved_engine``, ...) mirror the facade's attribute names so
    code written against ``SchedArgs`` reads a policy unchanged.
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
        # Normalize the fault field (a mode string is accepted sugar) so
        # two equal policies compare equal however they were spelled.
        object.__setattr__(self, "fault", FaultPolicy.parse(self.fault))
        self.validate()

    # -- validation (the single source of the runtime's validity rules)
    def validate(self) -> None:
        """Raise :class:`ValueError` on any out-of-domain knob, at any layer."""
        self.engine.validate()
        self.combine.validate()
        FaultPolicy.parse(self.fault)  # raises on an unknown mode
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.num_iters < 1:
            raise ValueError(f"num_iters must be >= 1, got {self.num_iters}")
        if self.block_size is not None and self.block_size < 1:
            raise ValueError(
                f"block_size must be >= 1 or None, got {self.block_size}"
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
            f"fault={fault_fingerprint(FaultPolicy.parse(self.fault))}",
            f"chunk={self.chunk_size}",
            f"iters={self.num_iters}",
            f"block={self.block_size if self.block_size is not None else 0}",
            f"capacity={self.buffer_capacity}",
            f"copy={int(self.copy_input)}",
            f"hold={int(self.disable_early_emission)}",
        ))

    @classmethod
    def parse(cls, text: str) -> "ExecutionPolicy":
        """Inverse of :meth:`fingerprint` (unknown keys are rejected)."""
        engine: dict[str, Any] = {}
        combine: dict[str, Any] = {}
        top: dict[str, Any] = {}
        casts = {
            "engine": (engine, "backend", str),
            "threads": (engine, "num_threads", int),
            "residency": (engine, "residency", str),
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
            table[name] = cast(value.strip())
        return cls(
            engine=EnginePolicy(**engine),
            combine=CombinePolicy(**combine),
            **top,
        )

    # -- construction helpers ------------------------------------------
    @classmethod
    def coerce(cls, value: "ExecutionPolicy | Any") -> "ExecutionPolicy":
        """An :class:`ExecutionPolicy` from a policy or anything that
        lowers to one (``SchedArgs`` exposes ``to_policy()``)."""
        if isinstance(value, cls):
            return value
        to_policy = getattr(value, "to_policy", None)
        if to_policy is not None:
            return to_policy()
        raise TypeError(
            "expected an ExecutionPolicy or an object with to_policy() "
            f"(e.g. SchedArgs), got {type(value).__name__}"
        )

    @classmethod
    def auto(cls, **hints: Any) -> "ExecutionPolicy":
        """Let the cost model pick the engine / combine / wire knobs.

        Delegates to :class:`repro.core.autotune.PolicyAdvisor` — see
        its ``advise()`` for the accepted workload hints (``elements``,
        ``ranks``, ``threads``, ``key_estimate``, ``schema_mergeable``,
        ``has_batch_path``, ...).
        """
        from .autotune import PolicyAdvisor  # deferred: autotune imports perfmodel

        telemetry = hints.pop("telemetry", None)
        machine = hints.pop("machine", None)
        return PolicyAdvisor(machine=machine, telemetry=telemetry).advise(**hints)

    def evolve(self, **changes: Any) -> "ExecutionPolicy":
        """A copy with ``changes`` applied (validated on construction)."""
        return replace(self, **changes)

    # -- flat compatibility views (the SchedArgs vocabulary) -----------
    @property
    def num_threads(self) -> int:
        return self.engine.num_threads

    @property
    def residency(self) -> str:
        return self.engine.residency

    @property
    def map_path(self) -> str:
        return self.engine.map_path

    @property
    def resolved_engine(self) -> str:
        """The effective backend name (facade-compatible spelling)."""
        return self.engine.backend

    @property
    def combine_algorithm(self) -> str:
        return self.combine.algorithm

    @property
    def wire_format(self) -> str:
        return self.combine.wire_format

    @property
    def fault_policy(self) -> FaultPolicy:
        return self.fault

    @property
    def resolved_fault_policy(self) -> FaultPolicy:
        """The effective fault policy (facade-compatible spelling)."""
        return FaultPolicy.parse(self.fault)

    def to_policy(self) -> "ExecutionPolicy":
        """Self (so ``coerce`` treats policies and facades uniformly)."""
        return self


def _parse_bool(value: str) -> bool:
    return value not in ("0", "False", "false")


def _tokens(text: str, casts: dict) -> dict:
    """Parse a ``key=value`` comma token string through a cast table."""
    kwargs: dict[str, Any] = {}
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        key, _, value = token.partition("=")
        key = key.strip()
        if key not in casts:
            raise ValueError(f"unknown policy axis {key!r} in {text!r}")
        name, cast = casts[key]
        kwargs[name] = cast(value.strip())
    return kwargs
