"""TCP backend specifics: framing, faults, liveness, self-healing.

The backend-agnostic semantics live in ``test_contract.py``; this file
covers what only a real wire exhibits — CRC-checked frames, injected
network faults, heartbeat liveness, reconnect-and-replay, and the
structured error context carried out of a dead or slow link.
"""

import socket
import threading
import time
import zlib

import numpy as np
import pytest

from repro.comm import (
    CommAborted,
    CommTimeoutError,
    FrameCorruptionError,
    SpmdError,
    TcpCluster,
    spmd_launch,
)
from repro.comm.tcp import (
    HEADER,
    K_DATA,
    K_HELLO,
    MAGIC,
    frame_header,
    pack_frame,
    recv_frame,
    write_frame,
)
from repro.faults import FaultPlan, FaultSpec, seeded_backoff

# Time a deliberately wedged receive waits before its deadline fires.
STALL_TIMEOUT = 2.0

# Budget for jobs that should complete nearly instantly.
FAST_JOB_TIMEOUT = 30.0

# Ceiling for one fault-recovery cycle (reconnect + replay) in tests.
RECOVERY_TIMEOUT = 10.0


def launch(n, fn, **kw):
    kw.setdefault("timeout", FAST_JOB_TIMEOUT)
    return spmd_launch(n, fn, comm_backend="tcp", **kw)


class TestFraming:
    def test_frame_roundtrip(self):
        frame = pack_frame(K_DATA, 1, 2, 42, b"payload-bytes")
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            kind, source, dest, tag, payload, crc_ok = recv_frame(b)
        finally:
            a.close()
            b.close()
        assert (kind, source, dest, tag) == (K_DATA, 1, 2, 42)
        assert payload == b"payload-bytes"
        assert crc_ok

    def test_corrupt_payload_fails_crc(self):
        frame = bytearray(pack_frame(K_DATA, 0, 1, 0, b"abcdef"))
        frame[-1] ^= 0xFF  # flip one payload byte past the header
        a, b = socket.socketpair()
        try:
            a.sendall(bytes(frame))
            *_head, payload, crc_ok = recv_frame(b)
        finally:
            a.close()
            b.close()
        assert not crc_ok

    def test_bad_magic_raises(self):
        frame = pack_frame(K_DATA, 0, 1, 0, b"x")
        frame = b"ZZ" + frame[len(MAGIC):]
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            with pytest.raises(FrameCorruptionError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_header_carries_crc32(self):
        payload = b"check me"
        frame = pack_frame(K_DATA, 3, 4, 9, payload)
        *_fields, length, crc = HEADER.unpack(frame[: HEADER.size])
        assert length == len(payload)
        assert crc == zlib.crc32(payload)


class _CountingSocket:
    """A socket whose ``sendmsg`` calls are counted (``write_frame`` uses
    nothing else of it)."""

    def __init__(self, sock):
        self.sock = sock
        self.calls = 0

    def sendmsg(self, buffers):
        self.calls += 1
        return self.sock.sendmsg(buffers)


class _TrickleSocket(_CountingSocket):
    """Accepts at most ``limit`` bytes per ``sendmsg``: every partial-send
    shape (mid-header, mid-buffer, across buffers) occurs."""

    limit = 7

    def sendmsg(self, buffers):
        self.calls += 1
        return self.sock.send(b"".join(buffers)[: self.limit])


class TestFrameWriter:
    """``write_frame`` puts exactly ``pack_frame``'s bytes on the wire,
    from however many buffers, however the kernel takes them."""

    @pytest.mark.parametrize(
        "buffers",
        [
            [b"one buffer"],
            [b"he", bytearray(b"llo"), b"", memoryview(b", wor"),
             np.frombuffer(b"ld", dtype=np.uint8)],
            [],
        ],
        ids=["single", "multi", "empty"],
    )
    @pytest.mark.parametrize("wrap", [_CountingSocket, _TrickleSocket])
    def test_wire_bytes_equal_pack_frame(self, buffers, wrap):
        want = pack_frame(K_DATA, 5, 6, 77, b"".join(bytes(b) for b in buffers))
        a, b = socket.socketpair()
        try:
            out = wrap(a)
            write_frame(out, frame_header(K_DATA, 5, 6, 77, *buffers), *buffers)
            a.close()
            got = b""
            while chunk := b.recv(1 << 16):
                got += chunk
        finally:
            a.close()
            b.close()
        assert got == want
        if wrap is _TrickleSocket:
            assert out.calls == -(-len(want) // _TrickleSocket.limit)

    def test_large_frame_survives_partial_sends(self):
        """4 MiB through a small send buffer: the kernel takes the frame
        in many pieces and the reader still sees it whole, CRC good."""
        payload = np.random.default_rng(7).bytes(4 << 20)
        a, b = socket.socketpair()
        received = []
        reader = threading.Thread(target=lambda: received.append(recv_frame(b)))
        try:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            a.settimeout(FAST_JOB_TIMEOUT)  # as an endpoint's socket has
            reader.start()
            out = _CountingSocket(a)
            half = len(payload) // 2
            write_frame(out, frame_header(K_DATA, 1, 2, 3, payload[:half], payload[half:]),
                        payload[:half], payload[half:])
            reader.join(FAST_JOB_TIMEOUT)
            assert not reader.is_alive()
        finally:
            a.close()
            b.close()
        assert out.calls > 1, "the send buffer was meant to force partial sends"
        kind, source, dest, tag, got, crc_ok = received[0]
        assert (kind, source, dest, tag) == (K_DATA, 1, 2, 3)
        assert crc_ok and got == payload

    def test_empty_payload_roundtrip(self):
        a, b = socket.socketpair()
        try:
            write_frame(a, frame_header(K_HELLO, 3, -1, 0))
            kind, source, dest, tag, payload, crc_ok = recv_frame(b)
        finally:
            a.close()
            b.close()
        assert (kind, source, dest, tag) == (K_HELLO, 3, -1, 0)
        assert payload == b"" and crc_ok

    def test_corrupt_flag_trips_the_receivers_crc(self):
        """The explicit mismatch flag (router ``truncate``, worker
        snapshot corruption): payload intact, ``crc_ok`` false."""
        a, b = socket.socketpair()
        try:
            write_frame(a, frame_header(K_DATA, 0, 1, 0, b"abc", b"def", corrupt=True),
                        b"abc", b"def")
            *_head, payload, crc_ok = recv_frame(b)
        finally:
            a.close()
            b.close()
        assert payload == b"abcdef" and not crc_ok


class TestDeadlineAndAbort:
    def test_deadline_error_is_structured(self):
        """A starved recv raises CommTimeoutError with source / tag /
        deadline_seconds attributes (satellite S1)."""

        def body(c):
            if c.rank == 0:
                c.recv(source=1, tag=9)  # nobody sends

        with pytest.raises(SpmdError) as exc_info:
            launch(2, body, deadline=0.3, timeout=STALL_TIMEOUT)
        failure = exc_info.value.first_failure
        assert isinstance(failure, CommTimeoutError)
        assert failure.source == 1
        assert failure.tag == 9
        assert failure.deadline_seconds == pytest.approx(0.3)

    def test_abort_carries_origin(self):
        """Peers blocked when a rank dies learn who killed the job and
        with what (satellite S2)."""

        def body(c):
            if c.rank == 1:
                raise ValueError("injected failure")
            c.recv(source=1, tag=0)

        with pytest.raises(SpmdError) as exc_info:
            launch(2, body)
        assert exc_info.value.first_rank == 1
        assert isinstance(exc_info.value.first_failure, ValueError)

    def test_abort_origin_attrs_on_cluster(self):
        with TcpCluster(2) as cluster:
            comm = cluster.comm(0)
            cluster.abort("boom", origin_rank=1, origin_exc_type="ValueError")
            with pytest.raises(CommAborted) as exc_info:
                comm.recv(source=1, tag=0)
        assert exc_info.value.origin_rank == 1
        assert exc_info.value.origin_exc_type == "ValueError"


class TestNetworkFaults:
    def test_disconnect_heals_without_data_loss(self):
        """An injected router-side disconnect severs rank 1's socket; the
        endpoint reconnects with seeded backoff and the pending traffic
        flushes — the job still completes with the right answer."""
        plan = FaultPlan(
            [FaultSpec("network", "disconnect", at_call=1, target=1, op="forward")],
            seed=7,
        )

        def body(c):
            acc = 0
            for round_ in range(4):
                acc += c.allreduce(c.rank + round_)
            return acc

        results = launch(2, body, fault_plan=plan, timeout=RECOVERY_TIMEOUT)
        expect = sum((0 + r) + (1 + r) for r in range(4))
        assert results == [expect, expect]
        assert plan.injected("network") == 1

    def test_truncate_surfaces_as_frame_corruption(self):
        plan = FaultPlan(
            [FaultSpec("network", "truncate", at_call=0, target=0, op="forward")],
            seed=7,
        )

        def body(c):
            if c.rank == 0:
                c.send("garbled in transit", dest=1, tag=1)
                return None
            return c.recv(source=0, tag=1)

        with pytest.raises(SpmdError) as exc_info:
            launch(2, body, fault_plan=plan, timeout=STALL_TIMEOUT)
        assert isinstance(exc_info.value.first_failure, FrameCorruptionError)

    def test_slowlink_delays_but_delivers(self):
        plan = FaultPlan(
            [FaultSpec("network", "slowlink", at_call=0, target=0,
                       seconds=0.3, op="forward")],
            seed=7,
        )

        def body(c):
            if c.rank == 0:
                c.send("slow boat", dest=1, tag=2)
                return None
            t0 = time.perf_counter()
            got = c.recv(source=0, tag=2)
            return got, time.perf_counter() - t0

        results = launch(2, body, fault_plan=plan)
        got, elapsed = results[1]
        assert got == "slow boat"
        assert elapsed >= 0.25

    def test_partition_heals_after_window(self):
        plan = FaultPlan(
            [FaultSpec("network", "partition", at_call=1, target=0,
                       seconds=0.3, op="forward")],
            seed=7,
        )

        def body(c):
            return [c.allreduce(c.rank) for _ in range(3)]

        results = launch(2, body, fault_plan=plan, timeout=RECOVERY_TIMEOUT)
        assert results == [[1, 1, 1], [1, 1, 1]]

    def test_comm_crash_parity_with_sim(self):
        """comm:crash kills the same rank at the same call index on both
        backends — the plan grammar is backend-transparent."""
        def body(c):
            return c.allreduce(c.rank)

        for backend in ("sim", "tcp"):
            plan = FaultPlan(
                [FaultSpec("comm", "crash", at_call=0, target=1)], seed=7
            )
            with pytest.raises(SpmdError):
                spmd_launch(2, body, comm_backend=backend, fault_plan=plan,
                            timeout=STALL_TIMEOUT)
            assert plan.injected("comm") == 1


class TestLiveness:
    def test_heartbeats_reach_router(self):
        with TcpCluster(2, heartbeat_interval=0.05) as cluster:
            comms = cluster.comms()  # connect both endpoints
            deadline = time.monotonic() + FAST_JOB_TIMEOUT
            while not all(cluster.router.alive(r, within=0.5) for r in (0, 1)):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert comms[0].rank == 0  # endpoints usable while probed

    def test_last_seen_advances(self):
        with TcpCluster(1, heartbeat_interval=0.05) as cluster:
            cluster.comm(0)
            deadline = time.monotonic() + FAST_JOB_TIMEOUT
            first = None
            while first is None:
                first = cluster.router.last_seen(0)
                assert time.monotonic() < deadline
                time.sleep(0.01)
            while (cluster.router.last_seen(0) or 0) <= first:
                assert time.monotonic() < deadline
                time.sleep(0.01)


class TestBackoff:
    def test_seeded_backoff_is_deterministic(self):
        a = [seeded_backoff(i, base=0.02, cap=0.5, jitter=0.25, seed=3)
             for i in range(1, 6)]
        b = [seeded_backoff(i, base=0.02, cap=0.5, jitter=0.25, seed=3)
             for i in range(1, 6)]
        assert a == b

    def test_backoff_caps(self):
        delays = [seeded_backoff(i, base=0.02, cap=0.1, jitter=0.0, seed=0)
                  for i in range(1, 12)]
        assert max(delays) <= 0.1
        assert delays[0] == pytest.approx(0.02)


class TestConcurrency:
    def test_many_parallel_streams(self):
        """Per-destination write locks and per-(source, tag) mailboxes
        keep concurrent streams from corrupting each other."""

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

        results = launch(2, body)
        expect = sum(i * (i + 1) // 2 for i in range(20))
        for per_rank in results:
            assert per_rank == {t: expect for t in range(4)}
