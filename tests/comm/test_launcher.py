"""spmd_launch behaviour."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.analytics.histogram import Histogram
from repro.comm import Communicator, LocalComm, SimComm, SpmdError, spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


class TestLaunch:
    def test_single_rank_uses_local_comm(self):
        [comm_type] = spmd_launch(1, lambda c: type(c))
        assert comm_type is LocalComm

    def test_multi_rank_uses_sim_comm(self):
        types = spmd_launch(2, lambda c: type(c), timeout=30)
        assert types == [SimComm, SimComm]

    def test_first_argument_is_communicator(self):
        results = spmd_launch(2, lambda c: isinstance(c, Communicator), timeout=30)
        assert results == [True, True]

    def test_args_per_rank(self):
        results = spmd_launch(
            3, lambda c, x, y: (c.rank, x + y),
            args_per_rank=[(1, 2), (3, 4), (5, 6)],
            timeout=30,
        )
        assert results == [(0, 3), (1, 7), (2, 11)]

    def test_args_per_rank_length_checked(self):
        with pytest.raises(ValueError):
            spmd_launch(3, lambda c: None, args_per_rank=[()])

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            spmd_launch(0, lambda c: None)

    def test_single_rank_exception_propagates_directly(self):
        # No SpmdError wrapping for the in-thread single-rank path.
        with pytest.raises(ZeroDivisionError):
            spmd_launch(1, lambda c: 1 / 0)

    def test_single_rank_args(self):
        assert spmd_launch(1, lambda c, v: v * 2, args_per_rank=[(21,)]) == [42]


def _rank_with_team(comm, pid_file):
    """Each rank runs a 2-thread process engine; rank 0 then exits
    abruptly with its scheduler still open."""
    sched = Histogram(ExecutionPolicy(engine=EnginePolicy(backend="process", num_threads=2)),
                      comm, lo=0.0, hi=1.0, num_buckets=4)
    sched.set_global_combination(False)
    with sched:
        sched.run(np.linspace(0.0, 1.0, 64))
        if comm.rank == 0:
            [worker] = multiprocessing.active_children()
            pid_file.write_text(str(worker.pid))
            os._exit(7)
    return comm.rank


def _gone_or_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestRanksWithTeams:
    def test_rank_death_takes_its_engine_workers(self, tmp_path):
        """Process ranks each own an engine pool (MPI ranks x an OpenMP
        team); a rank that dies abruptly leaves no live engine worker."""
        pid_file = tmp_path / "worker.pid"
        with pytest.raises(SpmdError) as err:
            spmd_launch(2, _rank_with_team, [(pid_file,)] * 2,
                        comm_backend="process", timeout=30)
        assert list(err.value.failures) == [0]
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 5.0
        while not _gone_or_zombie(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _gone_or_zombie(pid)
