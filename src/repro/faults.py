"""Deterministic seeded fault injection and recovery policies.

Smart's value proposition is co-locating analytics with a long-running
simulation; a wedged collective, a dead worker, or a torn checkpoint
costs hours of simulation time.  This module provides the chaos side of
that bargain: a :class:`FaultPlan` is a *seeded, deterministic* schedule
of faults that threads into three runtime layers via injection hooks —

* **comm** — SPMD ranks (sim threads or process ranks) consult the plan
  on every communication call: messages can be delayed or dropped, and
  a rank can be crashed at a chosen call index (raising
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
* ``retry`` — back off and run the failed step again: the process
  engine replaces the lost worker and the scheduler replays the current
  iteration from the last consistent combination map (safe because the
  combination map is only mutated *after* every block of an iteration
  completes); ``supervised_launch`` relaunches the whole SPMD job; the
  staging tier respawns the worker and replays its log.  All three take
  each retry through :meth:`FaultPolicy.retry_step`, so they report it
  under the same names (``faults.retries``, ``faults.backoff_seconds``)
  and wait ``backoff``, doubled per retry up to 2 s.  Because reduction
  is deterministic, results are bit-exact with the fault-free run.
* ``degrade`` — drop the failed worker's/rank's contribution for that
  iteration, record the drop in ``faults.*`` telemetry, and continue.
"""

from __future__ import annotations

import re
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from .telemetry import Recorder

#: Layers a :class:`FaultSpec` may target.
FAULT_LAYERS = ("comm", "engine", "storage", "network")

#: Fault kinds per layer.
FAULT_KINDS = {
    "comm": ("delay", "drop", "crash"),
    "engine": ("kill", "hang"),
    "storage": ("truncate", "bitflip"),
    # Link faults on process ranks (per message sent) and the elastic
    # staging tier (per partition received): a lost peer, a per-message
    # latency, a detectable corruption, and a timed network partition.
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

    def __reduce__(self):
        # Rebuilt from its fields (its ``args`` hold only the message), so
        # it crosses from a process rank with its type and context intact.
        return type(self), (self.rank, self.call_index, self.op), self.__dict__


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

    Thread-safe: sim ranks are threads and consult the plan
    concurrently.  Call-index counters are kept *per site* (per rank for
    the comm layer), so a spec's ``at_call`` refers to a deterministic
    point in that site's call sequence regardless of thread interleaving.
    Process ranks consult a fork's copy and report back through
    :meth:`mark` / :meth:`since` / :meth:`merge`.

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
        """Consulted by every SPMD rank's communicator on every call."""
        return self._fire("comm", rank, target=rank, op=op)

    def comm_call(self, rank: int, op: str) -> bool:
        """Apply the comm fault due at this call of ``rank``'s, where the
        call is made: sleep a ``delay``, raise a ``crash`` as
        :class:`InjectedRankCrash`; True when the call's message is to
        be dropped (``send`` honours it)."""
        spec = self.comm_fault(rank, op)
        if spec is None:
            return False
        if spec.kind == "delay":
            time.sleep(spec.seconds)
        elif spec.kind == "crash":
            raise InjectedRankCrash(rank, self.call_count("comm", rank) - 1, op)
        return spec.kind == "drop"

    def engine_fault(self) -> FaultSpec | None:
        """Consulted by the process engine per dispatched split task."""
        return self._fire("engine", "tasks", target=None, op=None)

    def storage_fault(self) -> FaultSpec | None:
        """Consulted by ``save_checkpoint`` per save call."""
        return self._fire("storage", "saves", target=None, op=None)

    def network_fault(self, rank: int, op: str) -> FaultSpec | None:
        """Consulted per message event.

        Call sites: process ranks consult it with ``op="send"`` per
        message they send; elastic staging workers consult it with
        ``op="frame"`` per received partition.  Counters are per rank /
        worker id, so ``at_call`` addresses a deterministic point in
        that peer's message sequence.
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

    def mark(self) -> tuple:
        """The plan's counts now, for :meth:`since`."""
        with self._lock:
            return dict(self._counters), dict(self._fired), len(self.injections)

    def since(self, mark: tuple) -> tuple:
        """What the plan recorded after ``mark``: counter and firing
        increments and the new injections, as :meth:`merge` takes them.
        A process rank consults its fork's copy of the plan and reports
        this to the launching plan."""
        counters, fired, seen = mark
        with self._lock:
            return ({site: n - counters.get(site, 0) for site, n in self._counters.items()
                     if n != counters.get(site, 0)},
                    {i: n - fired.get(i, 0) for i, n in self._fired.items()
                     if n != fired.get(i, 0)},
                    self.injections[seen:])

    def merge(self, changes: tuple) -> None:
        """Add another copy's :meth:`since` to this plan."""
        counters, fired, injections = changes
        with self._lock:
            for site, n in counters.items():
                self._counters[site] += n
            for i, n in fired.items():
                self._fired[i] += n
            self.injections.extend(injections)

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
    #: Seconds before the first retry; each later retry waits twice as
    #: long as the one before, up to 2 seconds.
    backoff: float = 0.05
    #: Seconds the process engine waits for *any* in-flight task to
    #: reply before it declares the busy workers hung.  ``None``
    #: disables hang detection.
    task_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise ValueError(f"mode must be one of {POLICY_MODES}, got {self.mode!r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError(f"task_deadline must be positive, got {self.task_deadline}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def fail_fast(cls) -> "FaultPolicy":
        return cls(mode="fail_fast")

    @classmethod
    def retry(cls, max_attempts: int = 3, backoff: float = 0.05,
              task_deadline: float | None = None) -> "FaultPolicy":
        return cls(mode="retry", max_attempts=max_attempts, backoff=backoff,
                   task_deadline=task_deadline)

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
        """Seconds before retry number ``attempt`` (1-based)."""
        return min(self.backoff * 2.0 ** (attempt - 1), 2.0)

    def retry_step(self, attempt: int, telemetry: Recorder | None = None) -> bool:
        """Whether a site whose attempt ``attempt`` (1-based) failed may run
        it again.  If so, count ``faults.retries``, record the backoff in
        ``faults.backoff_seconds`` and sleep it; if not, the site raises
        its own error.  The scheduler, ``supervised_launch`` and the
        staging tier all retry through here."""
        if self.mode != "retry" or attempt >= self.max_attempts:
            return False
        delay = self.backoff_for(attempt)
        if telemetry is not None:
            telemetry.inc("faults.retries")
            telemetry.add_time("faults.backoff_seconds", delay)
        time.sleep(delay)
        return True


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
]
