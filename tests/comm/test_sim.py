"""SimCluster / SimComm: threaded SPMD collectives and point-to-point."""

import numpy as np
import pytest

from repro.comm import SimCluster, SpmdError, spmd_launch

SIZES = [2, 3, 5, 8]


def launch(n, fn, **kw):
    return spmd_launch(n, fn, timeout=30, **kw)


class TestCollectives:
    @pytest.mark.parametrize("n", SIZES)
    def test_allreduce_sum(self, n):
        results = launch(n, lambda c: c.allreduce(c.rank + 1))
        assert results == [n * (n + 1) // 2] * n

    @pytest.mark.parametrize("n", SIZES)
    def test_allreduce_max(self, n):
        results = launch(n, lambda c: c.allreduce(c.rank, op=max))
        assert results == [n - 1] * n

    @pytest.mark.parametrize("n", SIZES)
    def test_gather_rank_order(self, n):
        def body(c):
            return c.gather(c.rank * 10)

        results = launch(n, body)
        assert results[0] == [r * 10 for r in range(n)]
        assert all(r is None for r in results[1:])

    def test_gather_to_nonzero_root(self):
        def body(c):
            return c.gather(c.rank, root=2)

        results = launch(4, body)
        assert results[2] == [0, 1, 2, 3]
        assert results[0] is None

    @pytest.mark.parametrize("n", SIZES)
    def test_bcast_from_master(self, n):
        def body(c):
            return c.bcast({"v": 7} if c.is_master else None)

        assert launch(n, body) == [{"v": 7}] * n

    def test_bcast_receivers_get_private_copies(self):
        def body(c):
            arr = c.bcast(np.zeros(3) if c.is_master else None)
            arr += c.rank  # mutate the received buffer
            c.barrier()
            return float(arr.sum())

        results = launch(3, body)
        assert results == [0.0, 3.0, 6.0]

    def test_allgather_numpy_payloads(self):
        def body(c):
            parts = c.allgather(np.full(2, float(c.rank)))
            return np.concatenate(parts)

        results = launch(3, body)
        expected = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        for r in results:
            assert np.array_equal(r, expected)

    def test_Allreduce_buffers(self):
        def body(c):
            recv = np.empty(4)
            c.Allreduce(np.full(4, float(c.rank + 1)), recv)
            return recv

        for r in launch(4, body):
            assert np.allclose(r, 10.0)

    def test_reduce_custom_op(self):
        def body(c):
            return c.reduce([c.rank], op=lambda a, b: a + b)

        results = launch(3, body)
        assert results[0] == [0, 1, 2]


class TestPointToPoint:
    def test_ring_exchange(self):
        def body(c):
            c.send(c.rank, dest=(c.rank + 1) % c.size, tag=5)
            return c.recv(source=(c.rank - 1) % c.size, tag=5)

        assert launch(4, body) == [3, 0, 1, 2]

    def test_message_order_preserved_per_tag(self):
        def body(c):
            if c.rank == 0:
                for i in range(5):
                    c.send(i, dest=1, tag=2)
                return None
            return [c.recv(0, tag=2) for _ in range(5)]

        assert launch(2, body)[1] == [0, 1, 2, 3, 4]

    def test_tags_demultiplex(self):
        def body(c):
            if c.rank == 0:
                c.send("a", dest=1, tag=1)
                c.send("b", dest=1, tag=2)
                return None
            # Receive in the opposite order of sending.
            return (c.recv(0, tag=2), c.recv(0, tag=1))

        assert launch(2, body)[1] == ("b", "a")

    def test_send_isolates_payload(self):
        dtype = np.dtype([("total", "f8"), ("count", "i8")])

        def body(c):
            if c.rank == 0:
                arr, inner, table = np.zeros(3), [1], {"k": 1}
                c.send(arr, dest=1)
                # Mutable parts of a tuple are copied; immutable leaves
                # (a structured dtype, a class) pass through as they are.
                c.send((arr, inner, table, dtype, SimCluster, 7), dest=1)
                arr[:] = -1.0
                inner.append(2)
                table["k"] = 2
                c.barrier()
                return None
            got = c.recv(0), c.recv(0)
            c.barrier()
            return got

        plain, (arr, inner, table, got_dtype, cls, seven) = launch(2, body)[1]
        assert np.array_equal(plain, np.zeros(3))
        assert np.array_equal(arr, np.zeros(3))
        assert inner == [1] and table == {"k": 1} and seven == 7
        assert got_dtype is dtype and cls is SimCluster


class TestFailureHandling:
    def test_exception_on_one_rank_propagates(self):
        def body(c):
            if c.rank == 1:
                raise RuntimeError("rank 1 died")
            c.barrier()

        with pytest.raises(SpmdError) as exc_info:
            launch(3, body)
        assert 1 in exc_info.value.failures
        assert "rank 1 died" in str(exc_info.value)

    def test_peers_blocked_in_recv_are_released(self):
        def body(c):
            if c.rank == 0:
                raise ValueError("no sender")
            return c.recv(0)

        with pytest.raises(SpmdError) as exc_info:
            launch(2, body)
        assert 0 in exc_info.value.failures

    def test_mismatched_collectives_abort(self):
        def body(c):
            if c.rank == 0:
                return c.bcast("x")
            return c.gather("y")

        with pytest.raises(SpmdError):
            launch(2, body)

    def test_results_in_rank_order_on_success(self):
        assert launch(5, lambda c: c.rank) == [0, 1, 2, 3, 4]


class TestClusterBasics:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimCluster(0)

    def test_comm_out_of_range(self):
        cluster = SimCluster(2)
        with pytest.raises(ValueError):
            cluster.comm(2)

    def test_comms_returns_all_ranks(self):
        cluster = SimCluster(3)
        assert [c.rank for c in cluster.comms()] == [0, 1, 2]
        assert all(c.size == 3 for c in cluster.comms())
