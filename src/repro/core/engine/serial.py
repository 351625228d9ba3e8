"""Serial engine: the deterministic in-order reduction path."""

from __future__ import annotations

from .base import ExecutionEngine


class SerialEngine(ExecutionEngine):
    """Reduce splits sequentially on the calling thread (the base class's
    :meth:`~ExecutionEngine.map_splits`).

    The reference backend: deterministic split order, no pool, no
    synchronization — appropriate on single-core hosts and the baseline
    every other engine is checked against for bit-identical results.
    The reduction reads the caller's array through the read pointer:
    nothing is copied.
    """

    name = "serial"
    deterministic = True
