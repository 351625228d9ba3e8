"""Sub-communicators: ``MPI_Comm_split`` for this substrate.

:func:`split_comm` partitions a communicator by color (collective over
every rank) and returns each rank's sub-communicator, ordered by key then
parent rank — exactly MPI's semantics.  The returned :class:`GroupComm`
implements collectives over the parent's point-to-point layer with
translated ranks, so ranks outside the group never participate.

Applications use it for any coupled-code topology (e.g. staging ranks
as one color, or several simulations sharing one analytics pool).
"""

from __future__ import annotations

from typing import Any, Sequence

from .interface import Communicator

#: Color value whose ranks receive no sub-communicator (MPI_UNDEFINED).
UNDEFINED = None

_GROUP_TAG_SHIFT = 1 << 20
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


class GroupComm(Communicator):
    """A communicator over an arbitrary subset of a parent's ranks.

    Collectives are implemented with rooted fan-in/fan-out over the
    parent's (duplicated) point-to-point layer; tags are shifted out of
    the parent's tag space.  All group members — and only they — must
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
        self._barrier_epoch = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def _world(self, group_rank: int) -> int:
        self._check_rank(group_rank)
        return self.world_ranks[group_rank]

    # -- point to point -----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self.parent.send(obj, dest=self._world(dest), tag=_GROUP_TAG_SHIFT + tag)

    def recv(self, source: int, tag: int = 0) -> Any:
        return self.parent.recv(
            source=self._world(source), tag=_GROUP_TAG_SHIFT + tag
        )

    # -- collectives over pt2pt ------------------------------------------------
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        self._check_rank(root, "root")
        if self.rank == root:
            values: list[Any] = [None] * self.size
            values[root] = obj
            for r in range(self.size):
                if r != root:
                    values[r] = self.recv(r, tag=_COLL_TAG)
            return values
        self.send(obj, dest=root, tag=_COLL_TAG)
        return None

    def bcast(self, obj: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        if self.rank == root:
            for r in range(self.size):
                if r != root:
                    self.send(obj, dest=r, tag=_COLL_TAG + 1)
            return obj
        return self.recv(root, tag=_COLL_TAG + 1)

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        self._check_rank(root, "root")
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise ValueError(f"scatter needs exactly {self.size} values")
            for r in range(self.size):
                if r != root:
                    self.send(objs[r], dest=r, tag=_COLL_TAG + 2)
            return objs[root]
        return self.recv(root, tag=_COLL_TAG + 2)

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise ValueError(f"alltoall needs exactly {self.size} values")
        for r in range(self.size):
            if r != self.rank:
                self.send(objs[r], dest=r, tag=_COLL_TAG + 3)
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        for r in range(self.size):
            if r != self.rank:
                out[r] = self.recv(r, tag=_COLL_TAG + 3)
        return out

    def barrier(self) -> None:
        self.allgather(self._barrier_epoch)
        self._barrier_epoch += 1

    def dup(self) -> "GroupComm":
        return GroupComm(self.parent.dup(), self.world_ranks)
