"""Single-rank communicator.

Used for offline analytics, single-node examples, and anywhere the runtime
needs a communicator but no peers exist.  Its collectives are
:class:`~repro.comm.subgroup.RootedComm`'s over a self-mailbox (buffered,
FIFO per tag), which is also what a 1-rank SPMD program's self-sends use.
"""

from __future__ import annotations

import copy
from collections import defaultdict, deque
from typing import Any

from .errors import CommError
from .profiler import TrafficProfiler
from .subgroup import RootedComm


class LocalComm(RootedComm):
    """A communicator with exactly one rank (rank 0)."""

    def __init__(self, profiler: TrafficProfiler | None = None):
        self.profiler = profiler
        self._self_mailbox: dict[int, deque[Any]] = defaultdict(deque)

    @property
    def rank(self) -> int:
        return 0

    @property
    def size(self) -> int:
        return 1

    def _enter(self, op: str, payload: Any = None, *, nbytes: int | None = None,
               record: bool = True) -> bool:
        if record:
            self._record(op, payload, nbytes)
        return False

    def _put(self, obj: Any, dest: int, tag: int) -> None:
        # Copy so a later mutation by the sender is not observed by recv,
        # matching the buffered-send semantics of the other backends.
        self._self_mailbox[tag].append(copy.deepcopy(obj))

    def _get(self, source: int, tag: int) -> Any:
        box = self._self_mailbox[tag]
        if not box:
            raise CommError(
                "LocalComm.recv would deadlock: no buffered self-send with tag "
                f"{tag} (single-rank communicator cannot block on a peer)"
            )
        return box.popleft()

    def dup(self) -> "LocalComm":
        return LocalComm(profiler=self.profiler)
