"""Fuzz the collective layer: random operation sequences, executed SPMD.

Every rank runs the same randomly generated program of collectives; the
substrate must neither deadlock nor disagree across ranks.  On sim ranks
this checks ``Communicator``'s collectives: rooted fan-in/fan-out and the
direct exchange, all on one tag, must not cross messages between calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import spmd_launch

OPS = ["barrier", "bcast", "gather", "allgather", "allreduce"]

programs = st.lists(st.sampled_from(OPS), min_size=1, max_size=8)


def execute(comm, program):
    """Run one program; return a digest every rank can be compared on."""
    digest = []
    for op in program:
        if op == "barrier":
            comm.barrier()
            digest.append("b")
        elif op == "bcast":
            digest.append(comm.bcast(comm.rank if comm.is_master else None))
        elif op == "gather":
            gathered = comm.gather(comm.rank)
            digest.append(tuple(gathered) if gathered is not None else None)
        elif op == "allgather":
            digest.append(tuple(comm.allgather(comm.rank * 3)))
        elif op == "allreduce":
            digest.append(comm.allreduce(comm.rank + 1))
    return digest


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=4), program=programs)
def test_random_collective_programs_terminate_and_agree(n, program):
    results = spmd_launch(n, execute, args_per_rank=[(program,)] * n, timeout=30)
    # Rank-symmetric entries must agree everywhere.
    for step, op in enumerate(program):
        values = [r[step] for r in results]
        if op == "gather":
            non_null = [v for v in values if v is not None]
            assert len(non_null) == 1
            assert non_null[0] == tuple(range(n))
        else:
            assert all(v == values[0] for v in values), (op, values)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    payload_seed=st.integers(min_value=0, max_value=2**16),
)
def test_numpy_payloads_round_collectives(n, payload_seed):
    rng = np.random.default_rng(payload_seed)
    payloads = [rng.normal(size=3) for _ in range(n)]

    def body(comm):
        got = comm.allgather(payloads[comm.rank])
        total = comm.allreduce(payloads[comm.rank])
        return got, total

    expected_total = sum(payloads[1:], payloads[0].copy())
    for got, total in spmd_launch(n, body, timeout=30):
        for r in range(n):
            assert np.array_equal(got[r], payloads[r])
        assert np.allclose(total, expected_total)
