"""Configuration matrix for differential conformance runs.

A :class:`Config` names one point in the runtime's configuration space.
Its axes split into two groups:

* **structure axes** (workload, threads, block size, rank count, data
  seed) legitimately change how float summation is grouped, so
  candidate and oracle must agree on them;
* **transparent axes** (engine, wire format, combine algorithm,
  fault plan, driver, map path) are the paper's
  "transparent to the analytics programmer" claim — flipping any of
  them must leave the final combination map bit-identical.

``oracle_of`` resets the transparent axes to the reference execution
(serial engine, pickle wire, gather combine, no faults, direct driver,
the scalar ``gen_key``/``accumulate`` loop).
``build_matrix`` enumerates the valid space and prunes it with greedy
pairwise covering so every pair of axis values involving a transparent
axis appears in at least one config.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from ..core.policy import (
    COMBINE_ALGORITHMS,
    ENGINE_BACKENDS,
    MAP_PATHS,
    WIRE_FORMATS,
    CombinePolicy,
    EnginePolicy,
    ExecutionPolicy,
)
from .workloads import get_workload, workload_names

__all__ = [
    "Config",
    "STRUCTURE_AXES",
    "TRANSPARENT_AXES",
    "axis_values",
    "enumerate_configs",
    "pairwise_prune",
    "build_matrix",
]

# Axes whose value must match between candidate and oracle.
STRUCTURE_AXES = (
    "workload", "num_threads", "block_size", "ranks", "seed",
)
# Axes the runtime promises are invisible in the result.  ``map_path``
# is transparent with one declared exception: a workload may carry a
# positive ``batch_ulp`` bound for known vector-math drift (np.exp vs
# math.exp, pairwise vs sequential sums), which the differ applies only
# when the candidate ran the workload's batch kernel.
TRANSPARENT_AXES = (
    "engine", "wire_format", "combine_algorithm", "fault",
    "driver", "map_path", "comm", "sharing",
)

_ORACLE_VALUES = {
    "engine": "serial",
    "wire_format": "pickle",
    "combine_algorithm": "gather",
    "fault": "none",
    "driver": "direct",
    # The paper's Algorithm-2 loop is the reference every kernel is
    # diffed against.
    "map_path": "scalar",
    "comm": "inproc",
    "sharing": "solo",
}

# Short keys used in fingerprints / --config tokens.
_SHORT = {
    "workload": "workload",
    "engine": "engine",
    "wire_format": "wire",
    "combine_algorithm": "algo",
    "fault": "fault",
    "driver": "driver",
    "map_path": "map",
    "comm": "comm",
    "sharing": "sharing",
    "num_threads": "threads",
    "block_size": "block",
    "ranks": "ranks",
    "seed": "seed",
}
_LONG = {v: k for k, v in _SHORT.items()}
_INT_AXES = {"num_threads", "block_size", "ranks", "seed"}

DEFAULT_SEED = 2015


@dataclass(frozen=True)
class Config:
    """One point in the engine × wire × fault × driver space."""

    workload: str
    engine: str = "serial"
    wire_format: str = "pickle"
    combine_algorithm: str = "gather"
    fault: str = "none"
    driver: str = "direct"
    map_path: str = "auto"
    comm: str = "inproc"
    #: ``solo`` runs the workload alone; ``shared`` submits it as N
    #: concurrent tenant jobs over one resident step through
    #: :class:`repro.service.AnalyticsService` and compares the first
    #: job's result (after asserting all N agree and exactly one shm
    #: segment was resident) against the solo oracle.
    sharing: str = "solo"
    num_threads: int = 1
    block_size: int = 0  # 0 = whole partition in one block
    ranks: int = 1
    seed: int = DEFAULT_SEED

    def fingerprint(self) -> str:
        return ",".join(
            f"{short}={getattr(self, axis)}" for axis, short in _SHORT.items())

    @classmethod
    def parse(cls, text: str) -> "Config":
        kwargs: dict = {}
        for token in text.replace(";", ",").split(","):
            token = token.strip()
            if not token:
                continue
            key, _, value = token.partition("=")
            key = key.strip()
            axis = _LONG.get(key, key)
            if axis not in _SHORT:
                raise ValueError(f"unknown config axis {key!r} in {text!r}")
            if axis in _INT_AXES:
                kwargs[axis] = int(value)
            else:
                kwargs[axis] = value.strip()
        if "workload" not in kwargs:
            raise ValueError(f"config token must name a workload: {text!r}")
        return cls(**kwargs)

    def oracle_of(self) -> "Config":
        """The reference execution sharing this config's structure axes."""
        return dataclasses.replace(self, **_ORACLE_VALUES)

    def execution_policy(self, fault_policy: str = "fail_fast") -> ExecutionPolicy:
        """Lower this config's runtime axes to an
        :class:`~repro.core.policy.ExecutionPolicy`.

        The fault *plan* (engine-kill, comm-delay) is injected by the
        oracle runner, not the policy; ``fault_policy`` names the
        scheduler's recovery mode for it.  Block sizes are rounded down
        to the workload's chunk multiple exactly as the runner rounds
        them, so the policy fingerprint names the run actually executed.
        """
        w = get_workload(self.workload)
        block = self.block_size or None
        if block is not None:
            block = max(w.chunk_size, block - block % w.chunk_size)
        return ExecutionPolicy(
            engine=EnginePolicy(
                backend=self.engine,
                num_threads=self.num_threads,
                map_path=self.map_path,
            ),
            combine=CombinePolicy(
                algorithm=self.combine_algorithm,
                wire_format=self.wire_format,
            ),
            fault=fault_policy,
            chunk_size=w.chunk_size,
            num_iters=w.num_iters,
            block_size=block,
        )

    def policy_fingerprint(self, fault_policy: str = "fail_fast") -> str:
        """The :meth:`ExecutionPolicy.fingerprint` of this config's run."""
        return self.execution_policy(fault_policy).fingerprint()

    def validate(self) -> None:
        """Raise ``ValueError`` on any out-of-domain axis value.

        Delegates to the policy layer — the same ``validate()`` that
        rejects a bad :class:`~repro.core.ExecutionPolicy`, so the matrix and
        the runtime cannot drift on what a legal configuration is.
        """
        self.execution_policy()
        if self.fault not in axis_values()["fault"]:
            raise ValueError(
                f"fault must be one of {axis_values()['fault']}, "
                f"got {self.fault!r}"
            )
        if self.driver not in axis_values()["driver"]:
            raise ValueError(
                f"driver must be one of {axis_values()['driver']}, "
                f"got {self.driver!r}"
            )
        if self.comm not in axis_values()["comm"]:
            raise ValueError(
                f"comm must be one of {axis_values()['comm']}, "
                f"got {self.comm!r}"
            )
        if self.sharing not in axis_values()["sharing"]:
            raise ValueError(
                f"sharing must be one of {axis_values()['sharing']}, "
                f"got {self.sharing!r}"
            )

    @property
    def is_oracle(self) -> bool:
        return all(getattr(self, a) == v for a, v in _ORACLE_VALUES.items())

    def structure_key(self) -> tuple:
        return tuple(getattr(self, a) for a in STRUCTURE_AXES)


def axis_values(smoke: bool = True) -> dict[str, tuple]:
    """Candidate values per axis (``workload`` is supplied separately)."""
    return {
        # Runtime axes come from the policy layer's single source of
        # truth; adding a backend there grows the matrix automatically.
        "engine": ENGINE_BACKENDS,
        "wire_format": WIRE_FORMATS,
        "combine_algorithm": COMBINE_ALGORITHMS,
        "fault": ("none", "engine-kill", "comm-delay"),
        # One run over the whole array, or the same array fed step by
        # step through the space-sharing circular buffer.
        "driver": ("direct", "space"),
        # Transport under the SPMD ranks: in-process mailboxes (the sim
        # backend / LocalComm) or rank processes over a pipe mesh.  The
        # transport is transparent: pickled messages must reproduce the
        # in-process result bit-exactly.
        "comm": ("inproc", "process"),
        # Multi-tenant shared-read residency: N concurrent service jobs
        # over one resident step must reproduce the solo run bit-exactly.
        "sharing": ("solo", "shared"),
        # "auto" and "batch" run the same kernel wherever one exists;
        # the full matrix's explicit "batch" only documents that forcing
        # the default is a no-op.
        "map_path": ("auto", "scalar") if smoke else MAP_PATHS,
        "num_threads": (1, 3) if smoke else (1, 2, 3),
        "block_size": (0, 256),
        "ranks": (1, 2) if smoke else (1, 2, 3),
    }


def is_valid(config: Config, smoke: bool = True) -> bool:
    """Structural validity of an axis combination.

    Rank counts stay ≤ 3 on purpose: at 4+ ranks the binomial-tree
    combine changes the rank-merge grouping (``(r0⊕r1)⊕(r2⊕r3)`` vs the
    gather left fold) and bit-equality across combine algorithms is no
    longer a runtime promise.  The tree only combines maps the key vote
    cannot, so the grouping applies to those maps alone.
    """
    w = get_workload(config.workload)
    if config.map_path == "batch" and not w.has_batch_path:
        return False
    if config.driver == "space" and not (w.steps_ok and config.ranks == 1):
        return False
    if config.fault == "engine-kill" and not (
        config.engine == "process"
        and config.ranks == 1
        and config.num_threads >= 2
    ):
        return False
    if config.fault == "comm-delay" and config.ranks < 2:
        return False
    if config.combine_algorithm != "gather" and config.ranks < 2:
        return False
    if config.comm == "process" and config.driver != "direct":
        # The space-sharing driver is single-rank in-process by
        # construction.  Rank processes each own their engine's pool:
        # the paper's MPI ranks x OpenMP team.
        return False
    if config.sharing == "shared":
        # The service front-end is single-rank, direct-driver, in-proc
        # by construction (jobs are dispatched onto local engines); the
        # fault axes have their own dedicated configs.
        if (config.ranks != 1 or config.driver != "direct"
                or config.comm != "inproc" or config.fault != "none"):
            return False
        if smoke and config.engine == "process":
            # N concurrent process pools are too heavy for smoke runs.
            return False
    if smoke and config.ranks > 1 and config.engine == "process":
        # Process pools per simulated rank are heavyweight; the full
        # matrix covers this corner, the smoke matrix skips it.
        return False
    return True


def enumerate_configs(
    workloads: tuple[str, ...] | None = None,
    *,
    smoke: bool = True,
    seed: int = DEFAULT_SEED,
) -> list[Config]:
    names = tuple(workloads) if workloads else workload_names()
    values = axis_values(smoke)
    axes = tuple(values)
    configs = []
    for name in names:
        for combo in itertools.product(*(values[a] for a in axes)):
            cfg = Config(workload=name, seed=seed,
                         **dict(zip(axes, combo)))
            if is_valid(cfg, smoke=smoke):
                configs.append(cfg)
    return configs


def _pair_axes() -> list[tuple[str, str]]:
    """Axis pairs the covering array must hit.

    Structure × structure pairs are deliberately excluded: they do not
    test transparency (both sides of the diff share them) and each new
    structure combination costs an extra oracle run.
    """
    axes = ("workload",) + TRANSPARENT_AXES + (
        "num_threads", "block_size", "ranks",
    )
    pairs = []
    for a, b in itertools.combinations(axes, 2):
        structural = (a in STRUCTURE_AXES and b in STRUCTURE_AXES)
        if structural and "workload" not in (a, b):
            continue
        pairs.append((a, b))
    return pairs


def pairwise_prune(configs: list[Config]) -> list[Config]:
    """Greedy pairwise covering: keep a small subset of ``configs`` that
    still exhibits every achievable (axis=value, axis=value) pair for
    the tracked axis pairs.  Deterministic: ties break on fingerprint
    order."""
    if not configs:
        return []
    pair_axes = _pair_axes()
    ordered = sorted(configs, key=lambda c: c.fingerprint())

    def pairs_of(cfg: Config) -> frozenset:
        return frozenset(
            (a, getattr(cfg, a), b, getattr(cfg, b)) for a, b in pair_axes
        )

    remaining = [(cfg, pairs_of(cfg)) for cfg in ordered]
    uncovered = set().union(*(p for _, p in remaining))
    chosen: list[Config] = []
    while uncovered:
        best_idx, best_gain = -1, -1
        for idx, (_, pairs) in enumerate(remaining):
            gain = len(pairs & uncovered)
            if gain > best_gain:
                best_idx, best_gain = idx, gain
        if best_gain <= 0:
            break
        cfg, pairs = remaining.pop(best_idx)
        chosen.append(cfg)
        uncovered -= pairs
    return chosen


def build_matrix(
    workloads: tuple[str, ...] | None = None,
    *,
    smoke: bool = True,
    seed: int = DEFAULT_SEED,
    max_configs: int | None = None,
    min_configs: int = 20,
) -> list[Config]:
    """The pruned conformance matrix for the given workloads.

    Smoke matrices are padded to ``min_configs`` with per-engine × wire
    diagonal configs so the acceptance gate (≥ 20 configs, all three
    engines, both wire formats) holds even if the covering array is
    smaller.  ``max_configs`` truncates the greedy order, which
    front-loads coverage diversity.
    """
    names = tuple(workloads) if workloads else workload_names()
    chosen = pairwise_prune(enumerate_configs(names, smoke=smoke, seed=seed))
    if smoke:
        seen = set(chosen)
        values = axis_values(smoke)
        pads = itertools.product(
            names, values["engine"], values["wire_format"], (2, 1, 3))
        for name, engine, wire, threads in pads:
            if len(chosen) >= min_configs:
                break
            cfg = Config(workload=name, engine=engine, wire_format=wire,
                         num_threads=threads, seed=seed)
            if is_valid(cfg, smoke=smoke) and cfg not in seen:
                seen.add(cfg)
                chosen.append(cfg)
        # The smoke gate also requires >= 2 sharing=shared configs among
        # the first min_configs, so every smoke invocation exercises the
        # multi-tenant shared-residency path against the solo oracle.
        # (Runs before the process promotion below: both front-insert, and
        # 2 + 2 promoted configs stay well inside min_configs.)
        head_shared = [c for c in chosen[:min_configs]
                       if c.sharing == "shared"]
        if len(head_shared) < 2:
            for engine, threads in (("serial", 1), ("thread", 3)):
                if len(head_shared) >= 2:
                    break
                pad = Config(workload=names[0], sharing="shared",
                             engine=engine, num_threads=threads, seed=seed)
                if not is_valid(pad, smoke=smoke):
                    continue
                if pad in chosen:
                    chosen.remove(pad)
                chosen.insert(0, pad)
                head_shared.append(pad)
        # The smoke gate requires >= 2 comm=process configs among the
        # first min_configs, so every smoke invocation exercises rank
        # processes.  Promote-or-pad deterministically at the front
        # (front insertion survives any max_configs truncation).
        head_process = [c for c in chosen[:min_configs] if c.comm == "process"]
        if len(head_process) < 2:
            for ranks in (1, 2):
                if len(head_process) >= 2:
                    break
                pad = Config(workload=names[0], comm="process", ranks=ranks,
                             seed=seed)
                if not is_valid(pad, smoke=smoke):
                    continue
                if pad in chosen:
                    chosen.remove(pad)
                chosen.insert(0, pad)
                head_process.append(pad)
    if max_configs is not None:
        chosen = chosen[:max_configs]
    return chosen
