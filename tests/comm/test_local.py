"""LocalComm: single-rank communicator semantics."""

import numpy as np
import pytest

from repro.comm import CommError, InvalidRankError, LocalComm, TrafficProfiler


@pytest.fixture
def comm():
    return LocalComm()


class TestIdentity:
    def test_rank_is_zero(self, comm):
        assert comm.rank == 0

    def test_size_is_one(self, comm):
        assert comm.size == 1

    def test_is_master(self, comm):
        assert comm.is_master


class TestCollectives:
    def test_bcast_returns_object(self, comm):
        assert comm.bcast({"a": 1}) == {"a": 1}

    def test_gather_wraps_in_list(self, comm):
        assert comm.gather(42) == [42]

    def test_allgather(self, comm):
        assert comm.allgather("x") == ["x"]

    def test_reduce(self, comm):
        assert comm.reduce(5) == 5

    def test_allreduce(self, comm):
        assert comm.allreduce(5, op=max) == 5

    def test_barrier_is_noop(self, comm):
        comm.barrier()  # must not raise or block

    def test_Allreduce_numpy(self, comm):
        send = np.arange(4.0)
        recv = np.empty(4)
        comm.Allreduce(send, recv)
        assert np.array_equal(recv, send)

    def test_Allreduce_shape_mismatch(self, comm):
        with pytest.raises(ValueError):
            comm.Allreduce(np.zeros(3), np.zeros(4))

    def test_invalid_root(self, comm):
        with pytest.raises(InvalidRankError):
            comm.bcast(1, root=3)


class TestPointToPoint:
    def test_self_send_recv_fifo(self, comm):
        comm.send("first", dest=0, tag=3)
        comm.send("second", dest=0, tag=3)
        assert comm.recv(0, tag=3) == "first"
        assert comm.recv(0, tag=3) == "second"

    def test_tags_are_independent(self, comm):
        comm.send(1, dest=0, tag=1)
        comm.send(2, dest=0, tag=2)
        assert comm.recv(0, tag=2) == 2
        assert comm.recv(0, tag=1) == 1

    def test_send_copies_payload(self, comm):
        payload = np.zeros(3)
        comm.send(payload, dest=0)
        payload[:] = 99.0
        assert np.array_equal(comm.recv(0), np.zeros(3))

    def test_recv_without_send_raises_not_hangs(self, comm):
        with pytest.raises(CommError, match="deadlock"):
            comm.recv(0, tag=9)

    def test_invalid_dest(self, comm):
        with pytest.raises(InvalidRankError):
            comm.send(1, dest=1)


class TestProfilerIntegration:
    def test_profiler_counts_operations(self):
        prof = TrafficProfiler()
        comm = LocalComm(profiler=prof)
        comm.bcast(np.zeros(10))
        comm.gather(1)
        comm.barrier()
        snapshot = prof.snapshot()
        assert snapshot["bcast"][0] == 1
        assert snapshot["bcast"][1] == 80
        assert snapshot["gather"][0] == 1
        assert snapshot["barrier"] == (1, 0)
