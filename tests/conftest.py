"""Shared test fixtures and helpers."""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import threading
import time
from pathlib import Path

import numpy as np
import pytest


def _sockets() -> set[str]:
    """This process's open sockets (worker pipes included), by inode."""
    links = set()
    fds = Path("/proc/self/fd")
    for fd in os.listdir(fds) if fds.is_dir() else ():
        try:
            links.add(os.readlink(fds / fd))
        except OSError:  # closed since the listing
            pass
    return {link for link in links if link.startswith("socket:")}


def _resources() -> tuple[set, set, set, set]:
    """This process's children, the framework's shared-memory segments,
    the live non-daemon threads and the open sockets."""
    shm = Path("/dev/shm")
    segments = {p.name for p in shm.iterdir() if p.name.startswith(("psm_", "smart"))} \
        if shm.is_dir() else set()
    threads = {t for t in threading.enumerate() if t.is_alive() and not t.daemon}
    return set(multiprocessing.active_children()), segments, threads, _sockets()


@pytest.fixture(autouse=True)
def leaves_no_resources():
    """Every test leaves no new child process, ``/dev/shm`` segment, live
    non-daemon thread or open socket behind.  Processes, threads and
    sockets being torn down get a grace period to finish."""
    before = _resources()
    yield
    deadline = time.monotonic() + 10.0
    while True:
        leaked = [now - then for now, then in zip(_resources(), before)]
        if not any(leaked) or time.monotonic() > deadline:
            break
        gc.collect()  # a dropped, unclosed pool halts when collected
        time.sleep(0.05)
    children, segments, threads, sockets = leaked
    assert not children, f"child processes left running: {children}"
    assert not segments, f"shared-memory segments left behind: {sorted(segments)}"
    assert not threads, f"non-daemon threads left running: {threads}"
    assert not sockets, f"sockets left open: {sorted(sockets)}"


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; per-test reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def sent(monkeypatch):
    """Every task message the process engine writes to a worker pipe, as
    ``(worker, message bytes, decoded session parts)`` in send order."""
    from repro.core import worker as runtime

    log = []
    real_send = runtime.Worker.send

    def send(worker, message, buffers=()):
        if message:  # b"" is the stop message
            log.append((worker, message, pickle.loads(message)[0]))
        return real_send(worker, message, buffers)

    monkeypatch.setattr(runtime.Worker, "send", send)
    return log


def split_rows(flat: np.ndarray, row_len: int, size: int, rank: int) -> np.ndarray:
    """Partition a flat array of ``row_len``-element records across ranks.

    Mirrors how an in-situ partition holds whole records: the split is
    row-aligned so no record straddles ranks.
    """
    rows = np.asarray(flat).reshape(-1, row_len)
    return np.array_split(rows, size)[rank].reshape(-1)


def rank_offset(n_total: int, size: int, rank: int) -> int:
    """Global element offset of ``rank``'s partition under array_split."""
    sizes = [len(part) for part in np.array_split(np.empty(n_total), size)]
    return sum(sizes[:rank])
