"""Fault injection in the comm layer: crashes, drops, delays, deadlines."""

import pickle

import numpy as np
import pytest

from repro.comm import (
    CommAborted,
    CommTimeoutError,
    SpmdError,
    spmd_launch,
    supervised_launch,
)
from repro.faults import (
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    InjectedRankCrash,
)
from repro.telemetry import Recorder


def crash_plan(rank=1, at_call=0, op=None):
    return FaultPlan([FaultSpec("comm", "crash", at_call=at_call, target=rank, op=op)])


class TestInjectedCrash:
    def test_crash_surfaces_as_spmd_error_with_cause(self):
        """Satellite: SpmdError chains the first failing rank's exception
        and carries its fault context in the message."""

        def body(comm):
            comm.barrier()
            return comm.rank

        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(3, body, timeout=2.0, fault_plan=crash_plan(rank=1))
        err = exc_info.value
        assert err.first_rank == 1
        assert isinstance(err.first_failure, InjectedRankCrash)
        assert err.__cause__ is err.first_failure
        assert "injected crash" in str(err)
        assert "rank 1" in str(err)

    def test_peers_blocked_in_recv_observe_comm_aborted(self):
        """Satellite: a rank dying while peers sit in the mailbox path
        must propagate CommAborted, not hang."""
        observed = {}

        def body(comm):
            if comm.rank == 0:
                try:
                    comm.recv(source=1, tag=7)  # blocks until rank 1 dies
                except CommAborted as exc:
                    observed["rank0"] = type(exc).__name__
                    raise
            else:
                comm.barrier()  # rank 1 crashes here (its first comm call)

        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(2, body, timeout=5.0, fault_plan=crash_plan(rank=1))
        assert observed["rank0"] == "CommAborted"
        # the CommAborted secondary is suppressed in favour of the crash
        assert isinstance(exc_info.value.failures[1], InjectedRankCrash)

    def test_peer_send_then_block_observes_abort(self):
        """A sender whose matching receiver dies still terminates: its
        next blocking call raises CommAborted."""

        def body(comm):
            if comm.rank == 0:
                comm.send(np.arange(4), dest=1, tag=3)  # buffered, succeeds
                comm.recv(source=1, tag=4)  # blocks; rank 1 is gone
            else:
                comm.barrier()

        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(2, body, timeout=5.0, fault_plan=crash_plan(rank=1))
        assert isinstance(exc_info.value.failures[1], InjectedRankCrash)

    def test_crash_targets_specific_op(self):
        def body(comm):
            comm.barrier()
            total = comm.allreduce(comm.rank)
            return total

        plan = FaultPlan([FaultSpec("comm", "crash", at_call=0, target=0, op="barrier")])
        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(2, body, timeout=2.0, fault_plan=plan)
        assert exc_info.value.first_failure.op == "barrier"


    def test_crash_survives_a_pickle_round_trip(self):
        """A crash raised in a rank process reaches the parent whole."""
        crash = InjectedRankCrash(1, 3, "send")
        crash.add_note("worker traceback: ...")
        back = pickle.loads(pickle.dumps(crash))
        assert type(back) is InjectedRankCrash
        assert (back.rank, back.call_index, back.op) == (1, 3, "send")
        assert back.fault_context == crash.fault_context
        assert str(back) == str(crash)
        assert back.__notes__ == crash.__notes__


class TestDelayAndDrop:
    def test_delay_preserves_results(self):
        plan = FaultPlan([FaultSpec("comm", "delay", at_call=0, target=0, seconds=0.05)])
        results = spmd_launch(2, lambda c: c.allreduce(1), timeout=5.0, fault_plan=plan)
        assert results == [2, 2]
        assert plan.injected("comm") == 1

    def test_dropped_send_times_out_receiver(self):
        def body(comm):
            if comm.rank == 0:
                comm.send(123, dest=1, tag=5)
                return None
            return comm.recv(source=0, tag=5)

        plan = FaultPlan([FaultSpec("comm", "drop", at_call=0, target=0, op="send")])
        with pytest.raises(SpmdError):
            spmd_launch(2, body, timeout=0.3, fault_plan=plan)
        assert plan.injected("comm") == 1


class TestCallDeadlines:
    def test_blocked_recv_raises_comm_timeout(self):
        def body(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=1)  # nobody sends
            # rank 1 returns immediately

        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(2, body, timeout=30.0, deadline=0.2)
        assert isinstance(exc_info.value.failures[0], CommTimeoutError)
        assert "deadline" in str(exc_info.value.failures[0])

    def test_blocked_collective_raises_comm_timeout(self):
        def body(comm):
            if comm.rank == 0:
                comm.barrier()  # rank 1 never joins

        with pytest.raises(SpmdError) as exc_info:
            spmd_launch(2, body, timeout=30.0, deadline=0.2)
        assert isinstance(exc_info.value.failures[0], CommTimeoutError)

    def test_fast_job_unaffected_by_deadline(self):
        results = spmd_launch(3, lambda c: c.allreduce(1), deadline=5.0)
        assert results == [3, 3, 3]


class TestSupervisedLaunch:
    @staticmethod
    def _sum_rank(comm, value):
        comm.barrier()
        return comm.allreduce(value)

    def test_retry_reproduces_fault_free_results(self):
        telemetry = Recorder()
        clean = spmd_launch(3, self._sum_rank, [(1,), (2,), (3,)])
        retried = supervised_launch(
            3,
            self._sum_rank,
            [(1,), (2,), (3,)],
            policy=FaultPolicy.retry(backoff=0.01),
            telemetry=telemetry,
            fault_plan=crash_plan(rank=1),
        )
        assert retried == clean
        counters = telemetry.snapshot()["counters"]
        assert counters["faults.launch_failures"] == 1
        assert counters["faults.retries"] == 1
        assert "faults.recovery_seconds" in telemetry.snapshot()["timers"]

    def test_retry_exhaustion_reraises(self):
        # times=3 out-lives max_attempts=2, so the launch never goes clean
        plan = FaultPlan([FaultSpec("comm", "crash", at_call=0, target=1, times=3)])
        with pytest.raises(SpmdError):
            supervised_launch(
                2,
                self._sum_rank,
                [(1,), (2,)],
                policy=FaultPolicy.retry(max_attempts=2, backoff=0.01),
                fault_plan=plan,
            )

    def test_degrade_drops_failed_rank(self):
        telemetry = Recorder()
        results = supervised_launch(
            3,
            self._sum_rank,
            [(1,), (2,), (4,)],
            policy="degrade",
            telemetry=telemetry,
            fault_plan=crash_plan(rank=1),
        )
        # rank 1's contribution (2) is gone; survivors re-sum to 5
        assert results == [5, 5]
        assert telemetry.snapshot()["counters"]["faults.ranks_dropped"] == 1

    def test_fail_fast_is_plain_launch(self):
        with pytest.raises(SpmdError):
            supervised_launch(
                2, self._sum_rank, [(1,), (2,)], fault_plan=crash_plan(rank=1)
            )


class TestFaultPlanDeterminism:
    def test_same_seed_same_injections(self):
        def run_once():
            plan = crash_plan(rank=1, at_call=3)
            with pytest.raises(SpmdError):
                spmd_launch(
                    2,
                    lambda c: [c.allreduce(c.rank) for _ in range(5)],
                    timeout=2.0,
                    fault_plan=plan,
                )
            return [(i.layer, i.kind, i.site, i.call_index) for i in plan.injections]

        assert run_once() == run_once()

    def test_corrupt_is_seeded(self):
        data = bytes(range(256)) * 8
        a = FaultPlan(seed=11).corrupt(data, "bitflip", protect=16)
        b = FaultPlan(seed=11).corrupt(data, "bitflip", protect=16)
        c = FaultPlan(seed=12).corrupt(data, "bitflip", protect=16)
        assert a == b
        assert a != data and a[:16] == data[:16]
        assert c != a  # different seed flips a different bit (overwhelmingly)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("comm", "kill")  # kill is an engine kind
        with pytest.raises(ValueError):
            FaultSpec("bogus", "crash")
        with pytest.raises(ValueError):
            FaultSpec("comm", "crash", at_call=-1)

    def test_policy_parse(self):
        assert FaultPolicy.parse("retry").mode == "retry"
        assert FaultPolicy.parse(FaultPolicy.degrade()).mode == "degrade"
        with pytest.raises(ValueError):
            FaultPolicy.parse("never_fail")
        with pytest.raises(TypeError):
            FaultPolicy.parse(42)


class TestBackoff:
    def test_backoff_caps(self):
        policy = FaultPolicy.retry(backoff=0.02)
        delays = [policy.backoff_for(i) for i in range(1, 12)]
        assert max(delays) == 2.0
        assert delays[:3] == [0.02, 0.04, 0.08]