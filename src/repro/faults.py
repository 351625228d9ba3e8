"""Deterministic seeded fault injection and recovery policies.

Smart's value proposition is co-locating analytics with a long-running
simulation; a wedged collective, a dead worker, or a torn checkpoint
costs hours of simulation time.  This module provides the chaos side of
that bargain: a :class:`FaultPlan` is a *seeded, deterministic* schedule
of faults that threads into three runtime layers via injection hooks —

* **comm** — :class:`~repro.comm.sim.SimCluster` consults the plan on
  every communication call: messages can be delayed or dropped, and a
  rank can be crashed at a chosen call index (raising
  :class:`InjectedRankCrash`, which propagates exactly like a real rank
  death: peers observe :class:`~repro.comm.errors.CommAborted`).
* **engine** — :class:`~repro.core.engine.process.ProcessEngine`
  consults the plan per dispatched split task: the worker executing the
  task can be killed (``os._exit``) or hung (a long sleep).  The
  engine's dispatch loop sees a real death the same way (the worker's
  process sentinel) and replaces that one worker; the replacement holds
  no state from before the fault and is sent the scheduler core afresh
  (counted in ``engine.residency.invalidations``).
* **storage** — :func:`~repro.core.checkpoint.save_checkpoint` consults
  the plan after each atomic write: the file can be truncated or have a
  seeded bit flipped, exercising CRC verification and rotation fallback.

With no plan installed every hook is a no-op on the fast path (a single
``is None`` check), so healthy runs pay nothing.

Recovery behaviour is selected independently of the plan by
:class:`FaultPolicy` (``ExecutionPolicy(fault=...)`` /
``supervised_launch(policy=...)``):

* ``fail_fast`` — today's behaviour and the default: the first failure
  aborts the job (``SpmdError`` / ``CommAborted`` /
  :class:`EngineFaultError`).
* ``retry`` — exponential backoff and replay: the process engine
  replaces the lost worker and the scheduler replays the current
  iteration from the last consistent combination map (safe because the
  combination map is only mutated *after* every block of an iteration
  completes); ``supervised_launch`` relaunches the whole SPMD job.
  Because reduction is deterministic, results are bit-exact with the
  fault-free run.
* ``degrade`` — drop the failed worker's/rank's contribution for that
  iteration, record the drop in ``faults.*`` telemetry, and continue.
"""

from __future__ import annotations

import re
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Layers a :class:`FaultSpec` may target.
FAULT_LAYERS = ("comm", "engine", "storage", "network")

#: Fault kinds per layer.
FAULT_KINDS = {
    "comm": ("delay", "drop", "crash"),
    "engine": ("kill", "hang"),
    "storage": ("truncate", "bitflip"),
    # Wire-level faults threaded through the TCP backend and the elastic
    # staging tier: a closed connection, a per-frame latency injection,
    # a CRC-detectable corruption, and a timed network partition.
    "network": ("disconnect", "slowlink", "truncate", "partition"),
}

#: Policy modes accepted by :class:`FaultPolicy` / ``ExecutionPolicy(fault=...)``.
POLICY_MODES = ("fail_fast", "retry", "degrade")


class FaultError(RuntimeError):
    """Base class for fault-subsystem errors."""


class EngineFaultError(FaultError):
    """An execution-engine worker died or hung mid-run.

    Raised by the process engine after it has already replaced the
    worker, so the scheduler may replay the current iteration
    (``fault=retry``) or propagate (``fail_fast``).
    """


class InjectedRankCrash(FaultError):
    """A :class:`FaultPlan` crashed this rank (simulated process death)."""

    def __init__(self, rank: int, call_index: int, op: str):
        self.rank = rank
        self.call_index = call_index
        self.op = op
        #: Surfaced by :class:`~repro.comm.errors.SpmdError` messages.
        self.fault_context = f"injected crash: rank {rank}, comm call {call_index} ({op})"
        super().__init__(self.fault_context)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Parameters
    ----------
    layer:
        ``"comm"``, ``"engine"``, or ``"storage"``.
    kind:
        comm: ``"delay"`` / ``"drop"`` / ``"crash"``; engine: ``"kill"``
        / ``"hang"``; storage: ``"truncate"`` / ``"bitflip"``.
    at_call:
        The first call index at which the fault may fire (it fires on
        the first matching call with index >= ``at_call``, up to
        ``times`` times).  Comm calls are counted per rank; engine task
        dispatches and checkpoint saves are counted globally.
        Deterministic given the program, so a seeded plan reproduces the
        identical failure every run — and because indices keep counting
        across retries, ``times > 1`` models a fault that strikes the
        relaunched job again.
    target:
        Restrict the fault to one rank (comm layer).  ``None`` matches
        any rank.
    op:
        Restrict a comm fault to one operation name (``"send"``,
        ``"recv"``, ``"barrier"``, ...).  ``None`` matches any.
    times:
        How many times the spec may fire (across all matching sites).
        The default 1 makes retry-based recovery converge: the replayed
        iteration runs clean.
    seconds:
        Duration for ``delay`` and ``hang`` faults.
    """

    layer: str
    kind: str
    at_call: int = 0
    target: int | None = None
    op: str | None = None
    times: int = 1
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.layer not in FAULT_LAYERS:
            raise ValueError(f"layer must be one of {FAULT_LAYERS}, got {self.layer!r}")
        if self.kind not in FAULT_KINDS[self.layer]:
            raise ValueError(
                f"kind for layer {self.layer!r} must be one of "
                f"{FAULT_KINDS[self.layer]}, got {self.kind!r}"
            )
        if self.at_call < 0:
            raise ValueError(f"at_call must be >= 0, got {self.at_call}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")

    def to_token(self) -> str:
        """Compact text form: ``layer:kind[@at_call][*times][~seconds][#target][/op]``.

        Default-valued parts are omitted; ``FaultSpec.parse`` round-trips
        the result.  Used in conformance fingerprints and repro lines.
        """
        token = f"{self.layer}:{self.kind}"
        if self.at_call:
            token += f"@{self.at_call}"
        if self.times != 1:
            token += f"*{self.times}"
        if self.seconds != 0.05:
            token += f"~{self.seconds:g}"
        if self.target is not None:
            token += f"#{self.target}"
        if self.op is not None:
            token += f"/{self.op}"
        return token

    @classmethod
    def parse(cls, token: str) -> "FaultSpec":
        """Inverse of :meth:`to_token`."""
        match = _TOKEN_RE.match(token.strip())
        if match is None:
            raise ValueError(
                f"bad fault token {token!r}; expected "
                "layer:kind[@at_call][*times][~seconds][#target][/op]")
        groups = match.groupdict()
        kwargs: dict[str, Any] = {
            "layer": groups["layer"], "kind": groups["kind"]}
        if groups["at_call"] is not None:
            kwargs["at_call"] = int(groups["at_call"])
        if groups["times"] is not None:
            kwargs["times"] = int(groups["times"])
        if groups["seconds"] is not None:
            kwargs["seconds"] = float(groups["seconds"])
        if groups["target"] is not None:
            kwargs["target"] = int(groups["target"])
        if groups["op"] is not None:
            kwargs["op"] = groups["op"]
        return cls(**kwargs)


_TOKEN_RE = re.compile(
    r"^(?P<layer>[a-z]+):(?P<kind>[a-z]+)"
    r"(?:@(?P<at_call>\d+))?"
    r"(?:\*(?P<times>\d+))?"
    r"(?:~(?P<seconds>[0-9.eE+-]+))?"
    r"(?:#(?P<target>\d+))?"
    r"(?:/(?P<op>[a-z_]+))?$"
)


@dataclass(frozen=True)
class Injection:
    """Record of one fired fault (the plan's audit log entry)."""

    layer: str
    kind: str
    site: Any
    call_index: int
    op: str | None = None


class FaultPlan:
    """A deterministic, seeded schedule of faults.

    Thread-safe: SPMD ranks are threads and consult the plan
    concurrently.  Call-index counters are kept *per site* (per rank for
    the comm layer), so a spec's ``at_call`` refers to a deterministic
    point in that site's call sequence regardless of thread interleaving.

    The ``seed`` drives every random draw the plan ever makes (currently
    the bit position of storage ``bitflip`` faults), so a plan with the
    same specs and seed injects byte-identical corruption every run.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = (), seed: int = 0):
        self.specs = list(specs)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        self._counters: dict[Any, int] = defaultdict(int)
        self._fired: dict[int, int] = defaultdict(int)
        #: Audit log of every injection, in firing order.
        self.injections: list[Injection] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({len(self.specs)} specs, seed={self.seed}, fired={len(self.injections)})"

    def _fire(self, layer: str, site: Any, *, target: int | None, op: str | None) -> FaultSpec | None:
        with self._lock:
            index = self._counters[(layer, site)]
            self._counters[(layer, site)] = index + 1
            for i, spec in enumerate(self.specs):
                if spec.layer != layer:
                    continue
                if spec.target is not None and spec.target != target:
                    continue
                if spec.op is not None and spec.op != op:
                    continue
                if index < spec.at_call:
                    continue
                if self._fired[i] >= spec.times:
                    continue
                self._fired[i] += 1
                self.injections.append(Injection(layer, spec.kind, site, index, op))
                return spec
        return None

    # -- layer hooks (each is a no-op returning None unless a spec matches)
    def comm_fault(self, rank: int, op: str) -> FaultSpec | None:
        """Consulted by :class:`~repro.comm.sim.SimComm` on every call."""
        return self._fire("comm", rank, target=rank, op=op)

    def engine_fault(self) -> FaultSpec | None:
        """Consulted by the process engine per dispatched split task."""
        return self._fire("engine", "tasks", target=None, op=None)

    def storage_fault(self) -> FaultSpec | None:
        """Consulted by ``save_checkpoint`` per save call."""
        return self._fire("storage", "saves", target=None, op=None)

    def network_fault(self, rank: int, op: str) -> FaultSpec | None:
        """Consulted per frame event.

        Call sites: the TCP router consults it with ``op="forward"`` per
        routed data frame; elastic staging workers consult it with
        ``op="frame"`` per received partition.  Counters are per rank /
        worker id, so ``at_call`` addresses a deterministic point in
        that peer's frame sequence.
        """
        return self._fire("network", rank, target=rank, op=op)

    def charge(self, n: int, *, target: int | None = None) -> int:
        """Pre-mark ``n`` firings against matching specs, in spec order.

        Recovery replay support: when a supervised site is respawned
        after an injected death, it re-parses the plan fingerprint with
        fresh counters — charging its prior firings first keeps the
        plan's per-site fault budget global across incarnations, so a
        replay does not re-suffer a fault it already paid for.  Returns
        the number of firings actually charged (capped by each matching
        spec's remaining ``times``).
        """
        charged = 0
        with self._lock:
            for i, spec in enumerate(self.specs):
                if charged >= n:
                    break
                if (target is not None and spec.target is not None
                        and spec.target != target):
                    continue
                take = min(n - charged, spec.times - self._fired[i])
                if take > 0:
                    self._fired[i] += take
                    charged += take
        return charged

    def call_count(self, layer: str, site: Any) -> int:
        """How many calls the plan has observed at ``(layer, site)``."""
        with self._lock:
            return self._counters.get((layer, site), 0)

    def fingerprint(self) -> str:
        """Seed-pinned text form, ``seed=S;token,token,...`` — stable
        across runs, embeddable in conformance repro lines."""
        tokens = ",".join(spec.to_token() for spec in self.specs)
        return f"seed={self.seed};{tokens}"

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`fingerprint` (the seed part is optional)."""
        seed = 0
        body = text.strip()
        if body.startswith("seed="):
            head, _, body = body.partition(";")
            seed = int(head[len("seed="):])
        specs = [FaultSpec.parse(token)
                 for token in body.split(",") if token.strip()]
        return cls(specs, seed=seed)

    def injected(self, layer: str | None = None) -> int:
        """Number of faults fired so far (optionally for one layer)."""
        with self._lock:
            if layer is None:
                return len(self.injections)
            return sum(1 for inj in self.injections if inj.layer == layer)

    def corrupt(self, data: bytes, kind: str, *, protect: int = 0) -> bytes:
        """Apply a storage corruption to ``data`` (seeded, deterministic).

        ``protect`` marks a prefix (the checkpoint header) that bit-flips
        avoid, so corruption lands in the CRC-protected payload.
        """
        if kind == "truncate":
            return data[: max(protect, len(data) // 2)]
        if kind == "bitflip":
            if len(data) <= protect:
                return data
            pos = int(self.rng.integers(protect, len(data)))
            bit = int(self.rng.integers(0, 8))
            flipped = bytearray(data)
            flipped[pos] ^= 1 << bit
            return bytes(flipped)
        raise ValueError(f"unknown storage corruption {kind!r}")


def _mix64(*parts: int) -> int:
    """splitmix64-style avalanche over the concatenated inputs."""
    mask = (1 << 64) - 1
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = (x + (int(part) & mask) + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        x ^= x >> 31
    return x


def seeded_backoff(
    attempt: int,
    *,
    base: float,
    factor: float = 2.0,
    cap: float = float("inf"),
    jitter: float = 0.0,
    seed: int = 0,
) -> float:
    """Backoff seconds before retry ``attempt`` (1-based), deterministic.

    Capped exponential (``min(base * factor**(attempt-1), cap)``) with
    seeded jitter: the delay is scaled by a factor in ``[1-jitter,
    1+jitter)`` drawn from a pure integer mix of ``(seed, attempt)`` —
    no global RNG state, so the same seed replays the exact same
    schedule.  Used by :meth:`FaultPolicy.backoff_for` and the TCP
    backend's connect/send retry, so every retry loop in the system
    shares one backoff law.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    delay = min(base * factor ** (attempt - 1), cap)
    if jitter:
        unit = (_mix64(seed, attempt) & 0xFFFFFF) / float(1 << 24)  # [0, 1)
        delay *= 1.0 + jitter * (2.0 * unit - 1.0)
    return max(delay, 0.0)


@dataclass(frozen=True)
class FaultPolicy:
    """How the runtime reacts to a detected fault.

    Construct via the classmethods (``FaultPolicy.retry(...)``) or pass
    the mode name as a string wherever a policy is accepted
    (``ExecutionPolicy(fault="retry")``).
    """

    mode: str = "fail_fast"
    #: Total attempts for ``retry`` (the first run counts as attempt 1).
    max_attempts: int = 3
    #: Base backoff in seconds before the first retry.
    backoff: float = 0.05
    #: Multiplier applied per subsequent retry (exponential backoff).
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff delay (seconds).
    backoff_cap: float = 2.0
    #: Jitter fraction in ``[0, 1]``: each delay is scaled by a
    #: seed-deterministic factor in ``[1-jitter, 1+jitter)``.  0 (the
    #: default) keeps the schedule exactly exponential.
    backoff_jitter: float = 0.0
    #: Seed for the jitter draws (pure function of ``(seed, attempt)``).
    backoff_seed: int = 0
    #: Seconds the process engine waits for *any* in-flight task to
    #: reply before it declares the busy workers hung.  ``None``
    #: disables hang detection.
    task_deadline: float | None = None
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(f"mode must be one of {POLICY_MODES}, got {self.mode!r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_cap < 0:
            raise ValueError(f"backoff_cap must be >= 0, got {self.backoff_cap}")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError(f"task_deadline must be positive, got {self.task_deadline}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def fail_fast(cls) -> "FaultPolicy":
        return cls(mode="fail_fast")

    @classmethod
    def retry(
        cls,
        max_attempts: int = 3,
        backoff: float = 0.05,
        backoff_factor: float = 2.0,
        task_deadline: float | None = None,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.0,
        backoff_seed: int = 0,
    ) -> "FaultPolicy":
        return cls(
            mode="retry",
            max_attempts=max_attempts,
            backoff=backoff,
            backoff_factor=backoff_factor,
            backoff_cap=backoff_cap,
            backoff_jitter=backoff_jitter,
            backoff_seed=backoff_seed,
            task_deadline=task_deadline,
        )

    @classmethod
    def degrade(cls, task_deadline: float | None = None) -> "FaultPolicy":
        return cls(mode="degrade", task_deadline=task_deadline)

    @classmethod
    def parse(cls, value: "FaultPolicy | str") -> "FaultPolicy":
        """Coerce a policy or mode name into a :class:`FaultPolicy`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            if value not in POLICY_MODES:
                raise ValueError(
                    f"fault_policy must be one of {POLICY_MODES} or a FaultPolicy, "
                    f"got {value!r}"
                )
            return cls(mode=value)
        raise TypeError(f"fault_policy must be a str or FaultPolicy, got {type(value).__name__}")

    def backoff_for(self, attempt: int) -> float:
        """Backoff seconds before retry number ``attempt`` (1-based).

        Capped exponential with seed-deterministic jitter (see
        :func:`seeded_backoff`); the schedule is a pure function of the
        policy fields, so recovery runs replay identically.
        """
        return seeded_backoff(
            max(attempt, 1),
            base=self.backoff,
            factor=self.backoff_factor,
            cap=self.backoff_cap,
            jitter=self.backoff_jitter,
            seed=self.backoff_seed,
        )


__all__ = [
    "FAULT_KINDS",
    "FAULT_LAYERS",
    "POLICY_MODES",
    "EngineFaultError",
    "FaultError",
    "FaultPlan",
    "FaultPolicy",
    "FaultSpec",
    "Injection",
    "InjectedRankCrash",
    "seeded_backoff",
]
