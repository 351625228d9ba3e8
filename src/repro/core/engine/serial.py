"""Serial engine: the deterministic in-order reduction path."""

from __future__ import annotations

from typing import Iterable

from ..chunk import Split
from ..maps import KeyedMap
from .base import ExecutionEngine


class SerialEngine(ExecutionEngine):
    """Reduce splits sequentially on the calling thread.

    The reference backend: deterministic split order, no pool, no
    synchronization — appropriate on single-core hosts and the baseline
    every other engine is checked against for bit-identical results.
    The reduction reads the caller's array through the read pointer:
    nothing is copied.
    """

    name = "serial"
    deterministic = True

    def map_splits(self, splits: Iterable[Split], red_maps: list[KeyedMap]) -> set[int]:
        reduce_fn = self._reduce_fn()
        emitted: set[int] = set()
        for split in splits:
            emitted.update(self._timed_reduce(reduce_fn, split, red_maps[split.thread_id]))
        return emitted
