"""Communicator contract, parameterized over every backend.

One suite, three implementations: the same SPMD bodies run over
``LocalComm`` (single rank), ``SimCluster`` threads, and rank processes
over a pipe mesh (``comm_backend="process"``), and must observe
identical semantics — calls, faults and traffic accounting included.
That equivalence is what lets the conformance matrix treat ``comm`` as
a transparent axis.
"""

import os
import threading

import numpy as np
import pytest

from repro.comm import (
    CommAborted,
    CommError,
    CommTimeoutError,
    FrameCorruptionError,
    InvalidRankError,
    LocalComm,
    RankMismatchError,
    SpmdError,
    TrafficProfiler,
    spmd_launch,
)
from repro.faults import FaultPlan, FaultSpec, InjectedRankCrash

# Budget for jobs that should complete nearly instantly; an order of
# magnitude of headroom over the slowest observed run.
FAST_JOB_TIMEOUT = 30.0

# Time a deliberately wedged receive waits before its deadline fires.
STALL_TIMEOUT = 2.0

#: (backend, n_ranks) cells: local is single-rank by definition; the
#: SPMD backends run the same bodies at 1 and several ranks.
CELLS = [
    ("local", 1),
    ("sim", 1),
    ("sim", 4),
    ("process", 1),
    ("process", 3),
]


def _rank_0_calls(own, others):
    """A 3-rank body: rank 0 calls ``own(c)``, every other rank ``others(c)``."""
    return lambda c: own(c) if c.rank == 0 else others(c)


#: Mismatched programs: (rank 0's call, the other call, the 3-rank body).
MISMATCHES = {
    "bcast_vs_gather": ("bcast", "gather", _rank_0_calls(
        lambda c: c.bcast("x"), lambda c: c.gather("y"))),
    "barrier_vs_allgather": ("barrier", "allgather", _rank_0_calls(
        lambda c: c.barrier(), lambda c: c.allgather(1))),
    "bcast_vs_allgather": ("bcast", "allgather", _rank_0_calls(
        lambda c: c.bcast("x"), lambda c: c.allgather(1))),
}


def launch(backend, n, fn, **kw):
    if backend == "local":
        assert n == 1
        return [fn(LocalComm())]
    kw.setdefault("timeout", FAST_JOB_TIMEOUT)
    return spmd_launch(n, fn, comm_backend=backend, **kw)


@pytest.mark.parametrize("backend,n", CELLS)
class TestContract:
    def test_rank_and_size(self, backend, n):
        results = launch(backend, n, lambda c: (c.rank, c.size, c.is_master))
        assert results == [(r, n, r == 0) for r in range(n)]

    def test_self_send_recv(self, backend, n):
        def body(c):
            c.send({"rank": c.rank}, dest=c.rank, tag=5)
            return c.recv(source=c.rank, tag=5)

        assert launch(backend, n, body) == [{"rank": r} for r in range(n)]

    def test_ring_sendrecv(self, backend, n):
        """Every rank sends right, then receives from the left: the halo
        exchange's pattern, which only buffered sends keep from deadlock."""

        def body(c):
            c.send(c.rank * 10, dest=(c.rank + 1) % c.size, tag=2)
            return c.recv(source=(c.rank - 1) % c.size, tag=2)

        results = launch(backend, n, body)
        assert results == [((r - 1) % n) * 10 for r in range(n)]

    def test_pending_messages_arrive_in_send_order(self, backend, n):
        """Several messages pending on one (source, tag) are received FIFO."""

        def body(c):
            for i in range(5):
                c.send((c.rank, i), dest=(c.rank + 1) % c.size, tag=3)
            return [c.recv(source=(c.rank - 1) % c.size, tag=3) for _ in range(5)]

        results = launch(backend, n, body)
        assert results == [[((r - 1) % n, i) for i in range(5)] for r in range(n)]

    def test_tag_isolation(self, backend, n):
        """Messages on different tags do not overtake each other."""

        def body(c):
            c.send("a", dest=c.rank, tag=1)
            c.send("b", dest=c.rank, tag=2)
            return (c.recv(source=c.rank, tag=2), c.recv(source=c.rank, tag=1))

        assert launch(backend, n, body) == [("b", "a")] * n

    def test_sent_objects_are_private_copies(self, backend, n):
        """Mutating an object after send must not affect the receiver."""

        def body(c):
            arr = np.zeros(3)
            c.send(arr, dest=c.rank, tag=7)
            arr += 99
            return float(c.recv(source=c.rank, tag=7).sum())

        assert launch(backend, n, body) == [0.0] * n

    def test_barrier(self, backend, n):
        assert launch(backend, n, lambda c: c.barrier()) == [None] * n

    def test_bcast(self, backend, n):
        def body(c):
            return c.bcast({"v": 7} if c.is_master else None)

        assert launch(backend, n, body) == [{"v": 7}] * n

    def test_gather_rank_order(self, backend, n):
        results = launch(backend, n, lambda c: c.gather(c.rank * 10))
        assert results[0] == [r * 10 for r in range(n)]
        assert all(r is None for r in results[1:])

    def test_allgather(self, backend, n):
        results = launch(backend, n, lambda c: c.allgather(c.rank))
        assert results == [list(range(n))] * n

    def test_reduce_and_allreduce(self, backend, n):
        def body(c):
            total = c.allreduce(c.rank + 1)
            rooted = c.reduce(c.rank + 1)
            return total, rooted

        results = launch(backend, n, body)
        expect = n * (n + 1) // 2
        assert [t for t, _ in results] == [expect] * n
        assert results[0][1] == expect
        assert all(r is None for _, r in results[1:])

    def test_allreduce_max(self, backend, n):
        results = launch(backend, n, lambda c: c.allreduce(c.rank, op=max))
        assert results == [n - 1] * n

    def test_buffer_allreduce(self, backend, n):
        def body(c):
            send = np.full(4, float(c.rank + 1))
            recv = np.empty(4)
            c.Allreduce(send, recv)
            return recv.tolist()

        expect = [float(n * (n + 1) // 2)] * 4
        assert launch(backend, n, body) == [expect] * n

    def test_invalid_rank_raises(self, backend, n):
        def body(c):
            try:
                c.send("x", dest=c.size)
            except InvalidRankError:
                return "raised"
            return "accepted"

        assert launch(backend, n, body) == ["raised"] * n


@pytest.mark.parametrize("backend", ["sim", "process"])
class TestSpmdOnly:
    """Contracts that need real peers (size > 1 SPMD backends only)."""

    def test_p2p_between_ranks(self, backend):
        def body(c):
            if c.rank == 0:
                c.send([1, 2, 3], dest=1, tag=11)
                return None
            return c.recv(source=0, tag=11)

        assert launch(backend, 2, body) == [None, [1, 2, 3]]

    def test_deadline_error_is_structured(self, backend):
        """A starved recv raises CommTimeoutError with source / tag /
        deadline_seconds attributes; so does a starved collective."""

        def body(c):
            if c.rank == 0:
                c.recv(source=1, tag=9)  # nobody sends

        with pytest.raises(SpmdError) as exc_info:
            launch(backend, 2, body, deadline=0.3, timeout=STALL_TIMEOUT)
        failure = exc_info.value.first_failure
        assert isinstance(failure, CommTimeoutError)
        assert failure.source == 1
        assert failure.tag == 9
        assert failure.deadline_seconds == pytest.approx(0.3)

        def lonely_barrier(c):
            if c.rank == 0:
                c.barrier()  # rank 1 returns without entering it

        with pytest.raises(SpmdError) as exc_info:
            launch(backend, 2, lonely_barrier, deadline=0.3, timeout=STALL_TIMEOUT)
        failure = exc_info.value.first_failure
        assert isinstance(failure, CommTimeoutError)
        assert failure.deadline_seconds == pytest.approx(0.3)

    @pytest.mark.parametrize("program", sorted(MISMATCHES))
    def test_mismatched_collectives_raise(self, backend, program):
        """Ranks that call different collectives fail with a
        RankMismatchError naming both calls, not a hang or a wrong value."""
        first, second, body = MISMATCHES[program]
        with pytest.raises(SpmdError) as exc_info:
            launch(backend, 3, body, timeout=STALL_TIMEOUT)
        failure = exc_info.value.first_failure
        assert isinstance(failure, RankMismatchError)
        assert repr(first) in str(failure) and repr(second) in str(failure)

    def test_abort_carries_origin(self, backend):
        """Peers blocked when a rank dies abort, and the launch error
        points at the rank that failed first, with its exception."""

        def body(c):
            if c.rank == 1:
                raise ValueError("injected failure")
            c.recv(source=1, tag=0)

        with pytest.raises(SpmdError) as exc_info:
            launch(backend, 2, body)
        assert exc_info.value.first_rank == 1
        assert isinstance(exc_info.value.first_failure, ValueError)
        assert list(exc_info.value.failures) == [1]

    def test_comm_crash_reads_the_same_in_the_parent(self, backend):
        """comm:crash kills the same rank at the same call, and the
        launching plan counts the firing whichever process it was in."""
        plan = FaultPlan([FaultSpec("comm", "crash", at_call=0, target=1)], seed=7)
        with pytest.raises(SpmdError) as exc_info:
            launch(backend, 2, lambda c: c.allreduce(c.rank), fault_plan=plan,
                   timeout=STALL_TIMEOUT)
        failure = exc_info.value.first_failure
        assert isinstance(failure, InjectedRankCrash)
        assert (failure.rank, failure.call_index, failure.op) == (1, 0, "allgather")
        assert plan.injected("comm") == 1

    def test_many_parallel_streams(self, backend):
        """Concurrent streams from several threads of one rank, one tag
        each, do not corrupt each other."""

        def body(c):
            out = {}
            errs = []

            def pump(tag):
                try:
                    peer = 1 - c.rank
                    for i in range(20):
                        c.send(np.arange(i + 1), dest=peer, tag=tag)
                    got = [c.recv(source=peer, tag=tag) for _ in range(20)]
                    out[tag] = sum(int(a.sum()) for a in got)
                except Exception as exc:  # pragma: no cover - failure detail
                    errs.append(exc)

            threads = [threading.Thread(target=pump, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errs
            return out

        results = launch(backend, 2, body)
        expect = sum(i * (i + 1) // 2 for i in range(20))
        for per_rank in results:
            assert per_rank == {t: expect for t in range(4)}

    def test_two_way_8mib_exchange(self, backend):
        """Two ranks send each other 8 MiB at once, twice the pipe's
        buffer: buffered sends must not deadlock."""

        def body(c):
            mine = np.full(1 << 20, float(c.rank + 1))  # 8 MiB of float64
            peer = 1 - c.rank
            c.send(mine, dest=peer)
            swapped = c.recv(source=peer)
            exchanged = c.allgather(mine)
            return float(swapped[-1]), float(exchanged[peer][0]), swapped.nbytes

        assert launch(backend, 2, body) == [(2.0, 2.0, 8 << 20), (1.0, 1.0, 8 << 20)]


def _every_call(c):
    """One of every communicator call, at 3 ranks."""
    c.barrier()
    c.bcast({"v": 1} if c.is_master else None)
    c.gather(c.rank)
    c.allgather(np.arange(c.rank + 1))
    c.reduce(c.rank)
    c.allreduce(c.rank)
    recv = np.empty(2)
    c.Allreduce(np.ones(2), recv)
    c.send(c.rank, dest=(c.rank + 1) % c.size)
    c.recv(source=(c.rank - 1) % c.size)
    c.send("x", dest=c.rank, tag=3)
    assert c.recv(source=c.rank, tag=3) == "x"
    c.barrier()
    return float(recv.sum())


def test_sim_and_process_see_the_same_calls():
    """Per rank, the fault plan counts the same calls on both backends,
    and the profiler records the same ops and bytes: a FaultSpec(at_call=k)
    hits the same call on either."""
    seen = {}
    for backend in ("sim", "process"):
        plan, profiler = FaultPlan(), TrafficProfiler()
        results = spmd_launch(3, _every_call, profiler=profiler, fault_plan=plan,
                              timeout=FAST_JOB_TIMEOUT, comm_backend=backend)
        assert results == [6.0] * 3
        seen[backend] = ([plan.call_count("comm", r) for r in range(3)],
                         profiler.snapshot())
    assert seen["sim"] == seen["process"]


class SawAbort(Exception):
    """A peer's CommAborted, re-raised so the launch error reports it."""


def test_a_dead_process_rank_aborts_its_peers():
    """A rank process that dies (no exception, no reply) is reported with
    its exit code, and its peer's receive aborts at once on the EOF."""

    def body(c):
        if c.rank == 1:
            os._exit(3)
        try:
            return c.recv(source=1, tag=0)
        except CommAborted as exc:
            raise SawAbort(f"origin rank {exc.origin_rank}") from None

    with pytest.raises(SpmdError) as exc_info:
        launch("process", 2, body)
    failures = exc_info.value.failures
    assert "exit code 3" in str(failures[1])
    assert isinstance(failures[0], SawAbort) and "origin rank 1" in str(failures[0])


class TestProcessMessages:
    """Process ranks move a message as the owned-worker runtime does
    (``repro.core.worker``): a small pickle, then each array's bytes
    written from where they lie and read into fresh writable memory."""

    def test_an_array_crosses_out_of_band_into_fresh_writable_memory(self):
        big = np.arange(1 << 18, dtype=np.float64)  # 2 MiB

        def body(c):
            if c.rank == 0:
                writes, real = [], os.writev

                def writev(fd, buffers):
                    moved = real(fd, buffers)
                    writes.append((list(buffers), moved))
                    return moved

                os.writev = writev  # this rank process's own
                try:
                    c.send(big, dest=1, tag=5)
                finally:
                    os.writev = real
                c.recv(source=1, tag=6)
                in_place = any(np.shares_memory(np.frombuffer(buf, np.uint8), big)
                               for buffers, _ in writes for buf in buffers)
                return sum(moved for _, moved in writes) - big.nbytes, in_place
            got = c.recv(source=0, tag=5)
            c.send(b"", dest=0, tag=6)
            c.send(got, dest=1, tag=7)  # a self-send: pickled in-band, a copy
            own = c.recv(source=1, tag=7)
            return (np.array_equal(got, big), got.flags.writeable, got.flags.aligned,
                    np.array_equal(own, big), own.flags.writeable, np.shares_memory(own, got))

        (header, in_place), received = launch("process", 2, body)
        assert header < 1024 and in_place
        assert received == (True, True, True, True, True, False)

    def test_a_rank_killed_mid_buffer_aborts_its_peer(self):
        """Rank 1 dies half-way through writing a 2 MiB message: rank 0's
        receive aborts on the EOF, naming rank 1, instead of waiting."""

        def body(c):
            if c.rank == 1:
                real = os.writev

                def half(fd, buffers):
                    stream = b"".join(buffers)
                    real(fd, [stream[: len(stream) // 2]])
                    os._exit(3)

                os.writev = half
                c.send(np.zeros(1 << 18), dest=0, tag=0)
            try:
                return c.recv(source=1, tag=0)
            except CommAborted as exc:
                raise SawAbort(f"origin rank {exc.origin_rank}") from None

        with pytest.raises(SpmdError) as exc_info:
            launch("process", 2, body)
        failures = exc_info.value.failures
        assert "exit code 3" in str(failures[1])
        assert isinstance(failures[0], SawAbort) and "origin rank 1" in str(failures[0])


class TestProcessNetworkFaults:
    """Each ``network`` fault kind on process ranks, applied per message
    sent (``network_fault(rank, op="send")``)."""

    def test_truncate_raises_frame_corruption(self):
        plan = FaultPlan([FaultSpec("network", "truncate", target=0, op="send")], seed=7)

        def body(c):
            if c.rank == 0:
                c.send("garbled in transit", dest=1, tag=1)
                return None
            return c.recv(source=0, tag=1)

        with pytest.raises(SpmdError) as exc_info:
            launch("process", 2, body, fault_plan=plan, timeout=STALL_TIMEOUT)
        failure = exc_info.value.first_failure
        assert isinstance(failure, FrameCorruptionError)
        assert "rank 0" in str(failure) and "tag 1" in str(failure)
        assert plan.injected("network") == 1

    def test_disconnect_aborts_peers_and_the_retry_is_exact(self):
        """The disconnected rank fails with a CommError, its peer aborts at
        once, and a relaunch on the same plan (the spec has fired) returns
        the fault-free result bit-exactly."""
        plan = FaultPlan([FaultSpec("network", "disconnect", at_call=1, target=1,
                                    op="send")], seed=7)

        def body(c):
            try:
                return [c.allreduce(np.full(3, c.rank + k / 3)) for k in range(4)]
            except CommAborted as exc:
                raise SawAbort(f"origin rank {exc.origin_rank}") from None

        with pytest.raises(SpmdError) as exc_info:
            launch("process", 2, body, fault_plan=plan)
        failures = exc_info.value.failures
        assert type(failures[1]) is CommError
        assert "injected network disconnect" in str(failures[1])
        assert isinstance(failures[0], SawAbort) and "origin rank 1" in str(failures[0])
        assert plan.injected("network") == 1

        retried = launch("process", 2, body, fault_plan=plan)
        clean = launch("sim", 2, body)
        for got, want in zip(retried, clean):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert plan.injected("network") == 1

    @pytest.mark.parametrize("kind", ["slowlink", "partition"])
    def test_slow_or_partitioned_link_delivers(self, kind):
        plan = FaultPlan([FaultSpec("network", kind, target=0, op="send",
                                    seconds=0.05)], seed=7)

        def body(c):
            if c.rank == 0:
                c.send("slow boat", dest=1, tag=2)
                return None
            return c.recv(source=0, tag=2)

        assert launch("process", 2, body, fault_plan=plan) == [None, "slow boat"]
        assert plan.injected("network") == 1


@pytest.mark.parametrize("name", ["split_comm", "GroupComm", "Request"])
def test_removed_names_stay_removed(name):
    with pytest.raises(ImportError):
        exec(f"from repro.comm import {name}")


def test_one_communicator_with_only_the_calls_smart_makes():
    """Every backend subclasses Communicator directly and takes every call
    from it; no MPI call the runtime never makes came back as an alias."""
    from repro.comm import Communicator, ProcessComm, SimComm

    calls = ("send", "recv", "barrier", "bcast", "gather", "allgather",
             "reduce", "allreduce", "Allreduce")
    for cls in (LocalComm, SimComm, ProcessComm):
        assert cls.__bases__ == (Communicator,)
        assert not set(vars(cls)) & set(calls), cls
    comm = LocalComm()
    for name in ("isend", "irecv", "sendrecv", "scatter", "alltoall", "Bcast", "dup"):
        assert not hasattr(comm, name), name
