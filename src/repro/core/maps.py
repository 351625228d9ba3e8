"""Reduction and combination maps (paper Section 3.1).

Both are ``int key -> RedObj`` dictionaries.  A *reduction map* is private
to one thread during the reduction phase; a *combination map* holds the
per-process (local) or global result after the combination phase.  The
merge-or-move rule of Algorithm 1 lines 11-17 lives in
:meth:`KeyedMap.merge_in`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

from .red_obj import RedObj, ensure_red_obj

if TYPE_CHECKING:  # pragma: no cover - serialization imports this module
    from .serialization import PackedMap

MergeFn = Callable[[RedObj, RedObj], RedObj]


class KeyedMap:
    """An ordered ``int -> RedObj`` map with Smart's merge-or-move rule.

    Iteration order is insertion order (deterministic), and keys are
    reported sorted where the paper's output conversion requires integer
    keys starting from 0 (Listing 4 discussion).

    Representation.  A map either holds a dict of objects or is *backed*
    by a :class:`~repro.core.serialization.PackedMap` (sorted ``int64``
    keys plus one structured records array) the runtime produced — a
    batch kernel's rows, a decoded columnar payload, an allreduce buffer.
    A backed map builds its objects once, in ascending key order, on the
    first access that reads, writes or iterates entries (:meth:`merge_in`
    and :meth:`sorted_items` included) and is an ordinary dict from then
    on.  ``len``, :meth:`clear`, :meth:`clone`, :meth:`replace_contents`,
    map-to-map :meth:`merge_map` and
    :func:`~repro.core.serialization.pack_map` never build objects, and
    :meth:`state_nbytes` builds them only to measure them.

    ``pack_map(backed_map)`` returns the live backing, read-only by
    convention: ``PackedMap.merge_from`` is only ever called on freshly
    decoded payloads and a map's own backing, and maps never share arrays
    (:meth:`clone`, :meth:`merge_map` copy; :meth:`replace_contents` moves).
    """

    __slots__ = ("_d", "_packed")

    def __init__(self, initial: Mapping[int, RedObj] | None = None):
        self._d: dict[int, RedObj] = {}
        self._packed: PackedMap | None = None  # the backing; ``_d`` is empty then
        if initial:
            for key, obj in initial.items():
                self[key] = obj

    @classmethod
    def from_trusted_items(
        cls, items: "Iterable[tuple[int, RedObj]]"
    ) -> "KeyedMap":
        """Bulk-construct from already-validated ``(int, RedObj)`` pairs.

        The wire-format codecs produce objects this runtime serialized
        itself, so re-validating each through ``__setitem__`` /
        ``ensure_red_obj`` on the hot combine path is pure overhead —
        this constructor adopts the pairs directly.  Never hand it
        user-supplied objects.
        """
        fresh = cls()
        fresh._d = dict(items)
        return fresh

    @classmethod
    def from_packed(cls, packed: "PackedMap") -> "KeyedMap":
        """A map backed by ``packed`` (trusted; takes ownership of it)."""
        fresh = cls()
        fresh._packed = packed
        return fresh

    @property
    def packed(self) -> "PackedMap | None":
        """The live backing while the map is backed, else ``None``."""
        return self._packed

    def _objects(self) -> dict[int, RedObj]:
        """The dict of objects, built from the backing on first use."""
        packed = self._packed
        if packed is not None:
            # Dict first: threads sharing a read-only map never see it empty.
            self._d = dict(zip(packed.keys.tolist(), packed.objects()))
            self._packed = None
        return self._d

    def replace_contents(self, other: "KeyedMap") -> None:
        """Take over ``other``'s entries wholesale, leaving it empty.

        Used by engines folding worker-returned maps back into the
        per-thread reduction maps without per-object re-validation.
        """
        self._d, self._packed = other._d, other._packed
        other._d, other._packed = {}, None

    def replace_items(
        self, keys: Iterable[int], objs: Iterable[RedObj]
    ) -> None:
        """Set ``keys[i] -> objs[i]`` in bulk (trusted, no validation).

        The batch-map fold uses this to land a whole split's touched
        rows at dict-update speed; keys must already be Python ints.
        """
        self._objects().update(zip(keys, objs))

    # -- dict-like surface -------------------------------------------------
    def __len__(self) -> int:
        return len(self._d) if self._packed is None else len(self._packed)

    # Per-key accessors test the flag inline: the object-form fast path
    # (scalar map loop, emission sweep) must not pay an extra call.
    def __contains__(self, key: int) -> bool:
        return key in (self._d if self._packed is None else self._objects())

    def __iter__(self) -> Iterator[int]:
        return iter(self._objects())

    def __getitem__(self, key: int) -> RedObj:
        return (self._d if self._packed is None else self._objects())[key]

    def __setitem__(self, key: int, obj: RedObj) -> None:
        (self._d if self._packed is None else self._objects())[int(key)] = ensure_red_obj(obj)

    def __delitem__(self, key: int) -> None:
        del (self._d if self._packed is None else self._objects())[key]

    def get(self, key: int, default: RedObj | None = None) -> RedObj | None:
        return (self._d if self._packed is None else self._objects()).get(key, default)

    def pop(self, key: int) -> RedObj:
        return self._objects().pop(key)

    def keys(self):
        return self._objects().keys()

    def items(self):
        return self._objects().items()

    def values(self):
        return self._objects().values()

    def clear(self) -> None:
        self._packed = None
        self._d.clear()

    def sorted_items(self) -> list[tuple[int, RedObj]]:
        return sorted(self._objects().items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyedMap({len(self)} keys)"

    # -- Smart semantics ----------------------------------------------------
    def merge_in(self, key: int, red_obj: RedObj, merge: MergeFn) -> None:
        """Merge ``red_obj`` under ``key`` (Algorithm 1 lines 12-16).

        If the key exists, ``merge(red_obj, existing)`` combines them (the
        merge callback returns the combined object); otherwise the object
        is *moved* in as-is.
        """
        objects = self._d if self._packed is None else self._objects()
        existing = objects.get(key)
        if existing is None:
            objects[int(key)] = ensure_red_obj(red_obj)
        else:
            objects[int(key)] = ensure_red_obj(
                merge(red_obj, existing), "merge() result"
            )

    def merge_map(self, other: "KeyedMap | Mapping[int, RedObj]", merge: MergeFn) -> None:
        """Merge every entry of ``other`` into this map.

        A backed ``other`` is copied into an empty map and merged by
        ``PackedMap.merge_from`` (one ufunc per schema field) into a
        backed map of the same schema; any other pairing calls ``merge``
        key by key.
        """
        theirs = getattr(other, "packed", None)
        if theirs is not None:
            if not len(self):
                self._packed = theirs.copy()
                return
            if self._packed is not None and self._packed.mergeable_with(theirs):
                self._packed.merge_from(theirs)
                return
        items = other.items() if hasattr(other, "items") else other
        for key, obj in items:
            self.merge_in(key, obj, merge)

    def clone(self) -> "KeyedMap":
        """Deep copy (clones every reduction object, or the backing)."""
        if self._packed is not None:
            return KeyedMap.from_packed(self._packed.copy())
        fresh = KeyedMap()
        for key, obj in self._d.items():
            fresh._d[key] = obj.clone()
        return fresh

    def state_nbytes(self) -> int:
        """Approximate footprint of all reduction objects (memory audit).
        A backed map is measured over objects built for the count and
        dropped: it stays backed."""
        objs = self._d.values() if self._packed is None else self._packed.objects()
        return sum(obj.nbytes() for obj in objs)
