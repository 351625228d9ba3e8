"""SPMD launch: run a function once per rank, MPI-style.

``spmd_launch(n, fn)`` is the moral equivalent of ``mpiexec -n N``: it runs
``fn(comm, ...)`` on N rank threads over a fresh :class:`SimCluster` (or,
with ``comm_backend="process"``, on N forked rank processes over a pipe
mesh), joins them, and returns the per-rank results in rank order.  A
failure on any rank aborts the job (peers blocked in communication raise
:class:`~repro.comm.errors.CommAborted`) and surfaces as a single
:class:`~repro.comm.errors.SpmdError` carrying every rank's exception.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import CommAborted, SpmdError
from .interface import Communicator
from .local import LocalComm
from .process import run_ranks
from .profiler import TrafficProfiler
from .sim import DEFAULT_TIMEOUT, SimCluster

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultPlan, FaultPolicy
    from ..telemetry import Recorder

RankFn = Callable[..., Any]


def spmd_launch(
    n_ranks: int,
    fn: RankFn,
    args_per_rank: Sequence[tuple] | None = None,
    profiler: TrafficProfiler | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    deadline: float | None = None,
    fault_plan: "FaultPlan | None" = None,
    interleave=None,
    comm_backend: str = "sim",
) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``n_ranks`` SPMD ranks; return rank results.

    Parameters
    ----------
    n_ranks:
        Number of ranks.  On ``"sim"``, ``1`` short-circuits to an
        in-thread :class:`LocalComm` run (no thread spawn), which keeps
        single-rank benchmarks free of threading overhead.
    fn:
        The SPMD body.  Receives the rank's :class:`Communicator` as its
        first argument.
    args_per_rank:
        Optional per-rank positional arguments, ``args_per_rank[rank]``.
        When omitted every rank receives only the communicator.
    profiler:
        Optional shared traffic profiler (rank processes record into
        their own and the launch merges them into it).
    timeout:
        Collective timeout in seconds (deadlock detection).
    deadline:
        Optional per-call deadline (see :class:`~repro.comm.sim.SimCluster`):
        a blocked ``recv`` or collective raises
        :class:`~repro.comm.errors.CommTimeoutError` past it.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` installed on the
        ranks' communication hooks (no-op when ``None``).  Rank
        processes consult their fork's copy, and the launch merges
        their firings back into it.
    interleave:
        Optional :class:`~repro.comm.sim.InterleaveSchedule` installed
        on the cluster: deterministic seeded jitter before every
        communication call (the conformance fuzzer's hook).  Ignored
        for single-rank runs and on ``"process"``.
    comm_backend:
        ``"sim"`` (default) runs ranks as threads over a
        :class:`~repro.comm.sim.SimCluster`; ``"process"`` forks one
        process per rank over a pipe mesh
        (:func:`~repro.comm.process.run_ranks`), including for
        ``n_ranks == 1`` (no :class:`LocalComm` short-circuit).

    Raises
    ------
    SpmdError
        If any rank raises.  ``CommAborted`` secondary failures on peer
        ranks are suppressed in favour of the originating exception(s).
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if args_per_rank is not None and len(args_per_rank) != n_ranks:
        raise ValueError(
            f"args_per_rank has {len(args_per_rank)} entries for {n_ranks} ranks"
        )
    if comm_backend not in ("sim", "process"):
        raise ValueError(f"unknown comm_backend {comm_backend!r} (want 'sim' or 'process')")

    if comm_backend == "process":
        results, failures = run_ranks(n_ranks, fn, args_per_rank, profiler,
                                      timeout, deadline, fault_plan)
    elif n_ranks == 1:
        comm: Communicator = LocalComm(profiler=profiler)
        args = args_per_rank[0] if args_per_rank else ()
        return [fn(comm, *args)]
    else:
        results, failures = _run_threads(n_ranks, fn, args_per_rank, SimCluster(
            n_ranks, profiler=profiler, timeout=timeout, deadline=deadline,
            fault_plan=fault_plan, interleave=interleave))
    if failures:
        primary = {
            rank: exc
            for rank, exc in failures.items()
            if not isinstance(exc, CommAborted)
        }
        raise SpmdError(primary or failures)
    return results


def _run_threads(n_ranks: int, fn: RankFn, args_per_rank: Sequence[tuple] | None,
                 cluster: SimCluster) -> tuple[list[Any], dict[int, BaseException]]:
    results: list[Any] = [None] * n_ranks
    failures: dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def body(rank: int) -> None:
        rank_comm = cluster.comm(rank)
        args = args_per_rank[rank] if args_per_rank else ()
        try:
            results[rank] = fn(rank_comm, *args)
        except BaseException as exc:  # noqa: BLE001 - must not lose rank errors
            with failures_lock:
                failures[rank] = exc
            cluster.abort(
                f"rank {rank} raised {type(exc).__name__}: {exc}",
                origin_rank=rank,
                origin_exc_type=type(exc).__name__,
            )

    threads = [
        threading.Thread(target=body, args=(r,), name=f"spmd-rank-{r}", daemon=True)
        for r in range(n_ranks)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results, failures


def supervised_launch(
    n_ranks: int,
    fn: RankFn,
    args_per_rank: Sequence[tuple] | None = None,
    *,
    policy: "FaultPolicy | str | None" = None,
    telemetry: "Recorder | None" = None,
    profiler: TrafficProfiler | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    deadline: float | None = None,
    fault_plan: "FaultPlan | None" = None,
) -> list[Any]:
    """:func:`spmd_launch` under a recovery policy (worker supervision).

    ``fn`` must be re-invocable from scratch (build all per-rank state
    inside it) — SPMD recovery is whole-job: a failed launch is either
    relaunched identically (``retry``, with exponential backoff; because
    reduction is deterministic and one-shot fault specs do not re-fire,
    the retried run reproduces the fault-free results bit-exactly) or
    relaunched with the failed ranks' partitions dropped (``degrade``,
    recording ``faults.ranks_dropped``).  ``fail_fast`` (the default) is
    plain :func:`spmd_launch`.

    Every detection/recovery is surfaced on ``telemetry`` (when given):
    ``faults.launch_failures``, ``faults.retries``,
    ``faults.ranks_dropped`` counters and the ``faults.recovery_seconds``
    and ``faults.backoff_seconds`` timers (failure detection to
    successful relaunch, and the backoff slept before each retry — see
    :meth:`~repro.faults.FaultPolicy.retry_step`).

    Returns the per-rank results of the first successful launch (under
    ``degrade``, results of the surviving ranks in their original rank
    order).
    """
    from ..faults import FaultPolicy

    policy = FaultPolicy.parse(policy) if policy is not None else FaultPolicy.fail_fast()

    def launch(ranks: int, rank_args: Sequence[tuple] | None) -> list[Any]:
        return spmd_launch(
            ranks,
            fn,
            rank_args,
            profiler=profiler,
            timeout=timeout,
            deadline=deadline,
            fault_plan=fault_plan,
        )

    if policy.mode == "fail_fast":
        return launch(n_ranks, args_per_rank)

    ranks = n_ranks
    rank_args = list(args_per_rank) if args_per_rank is not None else None
    recovering_since: float | None = None
    for attempt in itertools.count(1):
        try:
            results = launch(ranks, rank_args)
            if recovering_since is not None and telemetry is not None:
                # Recovery latency: failure detection to healthy completion.
                telemetry.add_time(
                    "faults.recovery_seconds", time.perf_counter() - recovering_since
                )
            return results
        except SpmdError as err:
            if recovering_since is None:
                recovering_since = time.perf_counter()
            if telemetry is not None:
                telemetry.inc("faults.launch_failures")
            if policy.mode == "retry":
                if not policy.retry_step(attempt, telemetry):
                    raise
                continue
            # degrade: drop the failed ranks' partitions and relaunch (a
            # further failure degrades again; ranks strictly decrease, so
            # this terminates).
            failed = sorted(err.failures)
            survivors = [r for r in range(ranks) if r not in failed]
            if not survivors:
                raise
            if telemetry is not None:
                telemetry.inc("faults.ranks_dropped", len(failed))
            if rank_args is not None:
                rank_args = [rank_args[r] for r in survivors]
            ranks = len(survivors)
