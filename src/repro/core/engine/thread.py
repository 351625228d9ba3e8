"""Persistent-thread engine: one pool per scheduler lifetime.

The seed implementation tore down and rebuilt a ``ThreadPoolExecutor``
for every block — thread spawn/join on the hot path of every time-step.
This engine creates the pool once in :meth:`start` and reuses it across
blocks, iterations, and runs (the ``engine.pools_created`` telemetry
counter stays at 1), the intra-rank analogue of the paper's persistent
OpenMP thread team.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from ..chunk import Split
from ..maps import KeyedMap
from .base import ExecutionEngine, join_keys


class ThreadEngine(ExecutionEngine):
    """Reduce splits on a persistent thread pool.

    Each split writes only its own thread-private reduction map
    (``red_maps[split.thread_id]``), so no locking is needed beyond the
    telemetry recorder's.  Python threads still share the GIL; the win
    is real for the batch kernels (numpy releases the GIL) and for
    eliminating per-block executor churn on the scalar path.
    """

    name = "thread"

    def __init__(self, num_workers, telemetry):
        super().__init__(num_workers, telemetry)
        self._pool: ThreadPoolExecutor | None = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_workers, thread_name_prefix="smart-engine"
            )
            self.telemetry.inc("engine.pools_created")

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - interpreter-exit safety net
        self.shutdown()

    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> np.ndarray:
        splits = list(splits)
        if len(splits) <= 1 or self.num_workers <= 1:
            # Nothing to parallelize; skip the dispatch overhead.
            return super().map_splits(splits, red_maps)
        assert self._pool is not None, "map_splits before start()"
        futures = [
            self._pool.submit(self._reduce, split, red_maps[split.thread_id]) for split in splits
        ]
        return join_keys([future.result() for future in futures])
