"""The shared-memory leak check (``tests/shm.py``) tells the code under
test's segments from other processes': every leak of this test process or
of a child it forked still fails it, a live stranger's segment does not."""

import multiprocessing
import os
import secrets
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

import pytest

from repro.core.worker import create_segment, unlink_segment
from tests.shm import own_segments

pytestmark = pytest.mark.skipif(
    not (Path("/dev/shm").is_dir() and Path("/proc/self/stat").exists()),
    reason="needs /dev/shm and /proc")


def test_a_segment_left_by_create_segment_is_a_leak():
    before = own_segments()
    segment = create_segment(64)
    try:
        assert own_segments() - before == {segment.name}
    finally:
        unlink_segment(segment)
    assert own_segments() == before


def _leave_a_segment(conn) -> None:
    conn.send(create_segment(64).name)
    os._exit(0)  # no unlink, no cleanup


def test_a_segment_left_by_a_forked_child_that_exited_is_a_leak():
    resource_tracker.ensure_running()  # the child registers with this one
    before = own_segments()
    ours, theirs = multiprocessing.Pipe()
    child = multiprocessing.get_context("fork").Process(target=_leave_a_segment,
                                                        args=(theirs,))
    child.start()
    name = None
    try:
        name = ours.recv()
        child.join(timeout=30)
        assert child.exitcode == 0
        assert own_segments() - before == {name}
    finally:
        ours.close()
        theirs.close()
        if name is not None:
            unlink_segment(shared_memory.SharedMemory(name=name))
    assert own_segments() == before


def test_a_live_process_outside_this_tree_owns_its_segments():
    """A segment named for this process's parent (alive, and no
    descendant of this process) is the parent's to clean up."""
    name = f"smart_{os.getppid()}_{secrets.token_hex(4)}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=64)
    try:
        assert (Path("/dev/shm") / name).exists()
        assert name not in own_segments()
    finally:
        unlink_segment(segment)
