"""Sub-communicators (``MPI_Comm_split``) and collectives over point-to-point.

:class:`RootedComm` builds every collective from messages over a
subclass's point-to-point layer; ``LocalComm``, sim ranks, process
ranks and :class:`GroupComm` all take their collectives from it.

:func:`split_comm` partitions a communicator by color (collective over
every rank) and returns each rank's sub-communicator, ordered by key then
parent rank — exactly MPI's semantics.  The returned :class:`GroupComm`
runs those collectives over the parent's point-to-point layer with
translated ranks, so ranks outside the group never participate.

Applications use it for any coupled-code topology (e.g. staging ranks
as one color, or several simulations sharing one analytics pool).
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Sequence

from .errors import RankMismatchError
from .interface import Communicator

#: Color value whose ranks receive no sub-communicator (MPI_UNDEFINED).
UNDEFINED = None

_GROUP_TAG_SHIFT = 1 << 20
#: Tag of every collective message.  Each pair of ranks receives its
#: collective messages in the order it sent them, and every rank calls
#: collectives in the same order, so one tag serves them all.
_COLL_TAG = (1 << 19) + 7


def split_comm(
    comm: Communicator, color: Any, key: int = 0
) -> "GroupComm | None":
    """Collectively split ``comm`` by ``color``; order groups by ``key``.

    Every rank must call this.  Ranks passing ``color=None`` receive
    ``None`` (they are in no group).  Within a group, ranks are ordered
    by ``(key, parent_rank)``.
    """
    memberships = comm.allgather((color, key))
    # dup() is itself collective: every rank participates, whether or not
    # it joins a group.
    dup = comm.dup()
    if color is UNDEFINED:
        return None
    members = sorted(
        (
            (member_key, parent_rank)
            for parent_rank, (member_color, member_key) in enumerate(memberships)
            if member_color == color
        ),
    )
    world_ranks = [parent_rank for _key, parent_rank in members]
    return GroupComm(dup, world_ranks)


class RootedComm(Communicator):
    """Every collective over a subclass's point-to-point layer.

    A subclass moves one message with :meth:`_put` / :meth:`_get`;
    ``send``/``recv`` are those behind one :meth:`_enter`, which also runs
    once at the top of every public collective, so a subclass can account
    a collective as one call however many messages it takes.

    Each collective message is ``(op, payload)``: a rank that receives
    another call's message raises :class:`RankMismatchError` naming both.
    Rooted calls fan in to the root before they fan out, so the root hears
    from every rank; ``allgather`` and ``alltoall`` are one direct exchange.
    """

    @abstractmethod
    def _put(self, obj: Any, dest: int, tag: int) -> None:
        """Move one message to ``dest``."""

    @abstractmethod
    def _get(self, source: int, tag: int) -> Any:
        """Take the next message from ``source`` on ``tag``."""

    def _enter(self, op: str, payload: Any = None, *, nbytes: int | None = None,
               record: bool = True) -> bool:
        """Hook: one public call ``op`` starts; True drops a ``send``'s message."""
        return False

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._check_rank(dest, "dest")
        if not self._enter("send", record=False):  # dropped: it vanishes in transit
            self._record("send", obj)
            self._put(obj, dest, tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        self._check_rank(source, "source")
        self._enter("recv", record=False)
        return self._get(source, tag)

    def _take(self, op: str, source: int) -> Any:
        called, obj = self._get(source, _COLL_TAG)
        if called != op:
            raise RankMismatchError(
                f"collective mismatch: rank {self.rank} called {op!r} while "
                f"rank {source} called {called!r}")
        return obj

    def _fan_in(self, op: str, obj: Any, root: int) -> list[Any] | None:
        if self.rank != root:
            self._put((op, obj), root, _COLL_TAG)
            return None
        return [obj if r == root else self._take(op, r) for r in range(self.size)]

    def _fan_out(self, op: str, objs: Sequence[Any], root: int) -> Any:
        """Rank ``r`` gets ``objs[r]`` from ``root``, after a fan-in to ``root``."""
        self._fan_in(op, None, root)
        if self.rank != root:
            return self._take(op, root)
        for r in range(self.size):
            if r != root:
                self._put((op, objs[r]), r, _COLL_TAG)
        return objs[root]

    def _exchange(self, op: str, objs: Sequence[Any]) -> list[Any]:
        """Rank ``r`` gets ``objs[r]`` from every rank, in rank order."""
        for r in range(self.size):
            if r != self.rank:
                self._put((op, objs[r]), r, _COLL_TAG)
        return [objs[r] if r == self.rank else self._take(op, r) for r in range(self.size)]

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        self._enter("gather", obj)
        return self._fan_in("gather", obj, root)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        self._enter("bcast", obj, record=self.rank == root)
        return self._fan_out("bcast", [obj] * self.size, root)

    def allgather(self, obj: Any) -> list[Any]:
        self._enter("allgather", obj)
        return self._exchange("allgather", [obj] * self.size)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        if self.rank == root and (objs is None or len(objs) != self.size):
            got = "None" if objs is None else len(objs)
            raise ValueError(f"scatter needs exactly {self.size} values, got {got}")
        self._enter("scatter", objs, record=self.rank == root)
        return self._fan_out("scatter", objs, root)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise ValueError(
                f"alltoall on rank {self.rank} needs {self.size} values, got {len(objs)}")
        self._enter("alltoall", list(objs))
        return self._exchange("alltoall", objs)

    def barrier(self) -> None:
        self._enter("barrier", nbytes=0)
        self._fan_out("barrier", [None] * self.size, 0)


class GroupComm(RootedComm):
    """A communicator over an arbitrary subset of a parent's ranks.

    Collectives come from :class:`RootedComm` over the parent's
    (duplicated) point-to-point layer; tags are shifted out of the
    parent's tag space.  All group members — and only they — must
    participate in each collective.
    """

    def __init__(self, parent: Communicator, world_ranks: Sequence[int]):
        if not world_ranks:
            raise ValueError("a group needs at least one rank")
        if parent.rank not in world_ranks:
            raise ValueError(
                f"parent rank {parent.rank} is not in the group {list(world_ranks)}"
            )
        if len(set(world_ranks)) != len(world_ranks):
            raise ValueError(f"duplicate ranks in group: {list(world_ranks)}")
        self.parent = parent
        self.world_ranks = list(world_ranks)
        self._rank = self.world_ranks.index(parent.rank)
        self.profiler = parent.profiler

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def _world(self, group_rank: int) -> int:
        self._check_rank(group_rank)
        return self.world_ranks[group_rank]

    # -- point to point: the parent's, which does the accounting -----------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.parent.send(obj, dest=self._world(dest), tag=_GROUP_TAG_SHIFT + tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self.parent.recv(source=self._world(source), tag=_GROUP_TAG_SHIFT + tag)

    _put, _get = send, recv

    def dup(self) -> "GroupComm":
        return GroupComm(self.parent.dup(), self.world_ranks)
