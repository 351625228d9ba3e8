"""Pluggable intra-rank execution engines (``EnginePolicy.backend``).

* :class:`SerialEngine` — deterministic in-order loop (the reference).
* :class:`ThreadEngine` — persistent thread pool, one per scheduler
  lifetime (the paper's OpenMP thread-team analogue).
* :class:`ProcessEngine` — the calling thread is thread 0 and reduces
  its splits in-process; worker ``i`` (an owned process, one pipe
  each) serves thread ``i + 1`` over a shared-memory view of the
  partition (GIL-free).

All three produce bit-identical combination maps and outputs; the
equivalence matrix in ``tests/core/test_engines.py`` asserts it for
every bundled analytics.
"""

from .base import ExecutionEngine, create_engine
from .process import ProcessEngine
from .serial import SerialEngine
from .thread import ThreadEngine

__all__ = [
    "ExecutionEngine",
    "ProcessEngine",
    "SerialEngine",
    "ThreadEngine",
    "create_engine",
]
