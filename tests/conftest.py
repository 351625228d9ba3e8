"""Shared test fixtures and helpers."""

from __future__ import annotations

import pickle

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG; per-test reproducibility."""
    return np.random.default_rng(12345)


@pytest.fixture
def sent(monkeypatch):
    """Every task message the process engine writes to a worker pipe, as
    ``(worker, message bytes, decoded session parts)`` in send order."""
    from repro.core.engine import process as process_engine

    log = []
    real_send = process_engine._Worker.send

    def send(worker, message):
        if message:  # b"" is the stop message
            log.append((worker, message, pickle.loads(message)[0]))
        real_send(worker, message)

    monkeypatch.setattr(process_engine._Worker, "send", send)
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
