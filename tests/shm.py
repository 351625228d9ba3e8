"""The one shared-memory leak check: which ``/dev/shm`` entries are this
test process's to clean up.

Tests run beside other users of ``/dev/shm`` (a benchmark, another test
run), so a leak check compares only the segments the code under test can
have made: every ``psm_*`` segment (``multiprocessing``'s own names), and
every ``smart_<pid>_*`` one whose ``<pid>`` is this process, one of its
live descendants, or a process that no longer exists (whoever made it is
gone, so nobody else will unlink it).  A live process outside this
process's tree owns its own segments.
"""

from __future__ import annotations

import os
from pathlib import Path

SHM = Path("/dev/shm")
PROC = Path("/proc")


def _parent(pid: int) -> int | None:
    """``pid``'s parent, or ``None`` once ``pid`` no longer exists."""
    try:
        return int((PROC / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def _ours(pid: int, me: int) -> bool:
    """True if ``pid`` is ``me``, a live descendant of ``me``, or gone."""
    first = True
    while pid != me:
        parent = _parent(pid)
        if parent is None:
            return first  # gone itself: nobody else will unlink what it left
        if parent <= 1:
            return False  # the root, reached without passing through ``me``
        pid, first = parent, False
    return True


def own_segments() -> set[str]:
    """The framework's ``/dev/shm`` segments this test process answers for."""
    if not SHM.is_dir():
        return set()
    me, owned = os.getpid(), set()
    for path in SHM.iterdir():
        name = path.name
        if name.startswith("psm_"):
            owned.add(name)
        elif name.startswith("smart"):
            pid = name.split("_")[1] if name.count("_") >= 2 else ""
            if not pid.isdigit() or _ours(int(pid), me):
                owned.add(name)
    return owned
