"""Wire formats for global combination.

The paper (Section 5.3) attributes Smart's small overhead versus
hand-written MPI code to exactly this step: reduction objects live
noncontiguously in a map, so the global combination must serialize them
before communicating, whereas the manual implementation calls
``MPI_Allreduce`` on one contiguous array.  Two wire formats reproduce
both sides of that comparison:

* ``"pickle"`` (default) — the design point the paper measures:
  combination maps are pickled object by object into one payload per
  rank, moved through the communicator, and merged on the master with
  per-object Python ``merge()`` calls.  Fig. 6's overhead experiment
  measures this path.
* ``"columnar"`` — the optimization that closes the gap: a map whose
  reduction objects declare a :class:`~repro.core.red_obj.Field` schema
  is packed into one contiguous ``int64`` keys-array plus one structured
  records-array (:class:`PackedMap`).  Merging aligns keys with
  ``np.searchsorted`` and combines each field with its merge ufunc —
  no per-object Python calls.  Schemaless or heterogeneous maps fall
  back to pickle transparently.  Decoded and reduced maps stay columns:
  they come back as a :class:`~repro.core.maps.KeyedMap` *backed* by
  the arrays, which :func:`pack_map` hands out again without a copy, so
  a map nobody reads object by object never becomes objects.

Global combination of a map whose every field declares a columnar merge
ships neither payload: it is a contiguous allreduce through
:mod:`repro.comm.reduce_ops`, the exact shape of the paper's
hand-written baseline (or, when the ranks' keys are disjoint and
ascending in rank order, an allgather and a concatenation).  The ranks
agree on it by a vote of their schema plus their keys: a ``(first,
last)`` run when the keys are contiguous, else the keys.  The wire
format serves the combine of every other map, the engine pipes and
Fig. 6's payloads.

Payloads are self-describing (columnar ones carry a magic prefix), so
``deserialize_map`` accepts either format — including pickle payloads
written by older checkpoints.
"""

from __future__ import annotations

import pickle
import struct
from collections import deque
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..comm.reduce_ops import MERGE_UFUNCS, merge_identity, structured_reduce_op
from .maps import KeyedMap, MergeFn
from .policy import WIRE_FORMATS, CombinePolicy
from .red_obj import RedObj

if TYPE_CHECKING:  # pragma: no cover
    from ..comm.interface import Communicator

__all__ = [
    "PackedMap",
    "WIRE_FORMATS",
    "WIRE_VERSION",
    "deserialize_map",
    "global_combine",
    "pack_map",
    "serialize_map",
    "wire_format_of",
]

#: Version of the map wire format (bumped whenever the byte layout of
#: :func:`serialize_map` output changes incompatibly).  Stamped into
#: checkpoint headers so a restore from a stale layout fails loudly
#: instead of deserializing garbage.
WIRE_VERSION = 1

_COLUMNAR_MAGIC = b"SMCOL1\n"
_COLUMNAR_HEADER = struct.Struct("<II")  # (schema-header length, record count)


def _schema_dtype(fields) -> np.dtype:
    return np.dtype(
        [
            (f.name, f.dtype) if not f.shape else (f.name, f.dtype, f.shape)
            for f in fields
        ]
    )


class PackedMap:
    """A combination map as two contiguous arrays: keys plus records.

    ``keys`` is a sorted ``int64`` array; ``records`` is a structured
    array of the reduction-object schema, row ``i`` packing the object
    under ``keys[i]``.  ``merges`` names each field's combination rule
    (see :class:`~repro.core.red_obj.Field`).  This is the contiguous
    representation the paper's hand-written MPI code reduces directly.
    """

    __slots__ = ("cls", "keys", "records", "merges")

    def __init__(
        self,
        cls: type,
        keys: np.ndarray,
        records: np.ndarray,
        merges: Sequence[str | None],
    ):
        self.cls = cls
        self.keys = keys
        self.records = records
        self.merges = tuple(merges)

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedMap({self.cls.__name__}, {len(self.keys)} keys)"

    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.records.nbytes)

    @property
    def vector_mergeable(self) -> bool:
        """True when every field declares a columnar merge rule, so
        global combination is one contiguous allreduce."""
        return all(m in MERGE_UFUNCS or m == "keep" for m in self.merges)

    def mergeable_with(self, other: "PackedMap") -> bool:
        return (
            other.cls is self.cls
            and other.records.dtype == self.records.dtype
            and other.merges == self.merges
            and self.vector_mergeable
        )

    # -- vectorized combination kernel ---------------------------------
    def merge_from(self, other: "PackedMap") -> None:
        """Merge ``other`` in (``other`` plays the red side: ``keep``
        fields retain *this* map's values on matched keys).

        Key alignment is one ``searchsorted``; each field merges with
        one ufunc call over all matched keys; unmatched keys move in
        wholesale — the columnar equivalent of Algorithm 1 lines 12-16.
        """
        if not self.mergeable_with(other):
            raise ValueError(
                f"cannot columnar-merge {other!r} into {self!r}: schema mismatch"
            )
        b_keys = other.keys
        if not len(b_keys):
            return
        a_keys = self.keys
        if not len(a_keys):
            self.keys = b_keys.copy()
            self.records = _concat_records([other.records])
            return
        idx = np.searchsorted(a_keys, b_keys)
        safe = np.minimum(idx, len(a_keys) - 1)
        matched = a_keys[safe] == b_keys
        if matched.any():
            targets = safe[matched]
            for name, merge in zip(self.records.dtype.names, self.merges):
                ufunc = MERGE_UFUNCS.get(merge)
                if ufunc is None:  # "keep": combination side wins
                    continue
                col = self.records[name]
                col[targets] = ufunc(col[targets], other.records[name][matched])
        fresh = ~matched
        if fresh.any():
            keys = np.concatenate([a_keys, b_keys[fresh]])
            records = _concat_records([self.records, other.records[fresh]])
            order = np.argsort(keys, kind="stable")
            self.keys = keys[order]
            self.records = records[order]

    def expand_to(self, union_keys: np.ndarray) -> np.ndarray:
        """Records over ``union_keys``, identity-padded where this map
        has no entry — the pre-allreduce contribution buffer."""
        records = _identity_records(self.records.dtype, self.merges, len(union_keys))
        if len(self.keys):
            records[np.searchsorted(union_keys, self.keys)] = self.records
        return records

    # -- object materialization ----------------------------------------
    def copy(self) -> "PackedMap":
        return PackedMap(self.cls, self.keys.copy(), _concat_records([self.records]), self.merges)

    def to_map(self) -> KeyedMap:
        """A :class:`KeyedMap` backed by (and now owning) this packed map."""
        return KeyedMap.from_packed(self)

    def objects(self) -> list[RedObj]:
        """One object per record: the runtime's only columns-to-objects step."""
        cls, records, n = self.cls, self.records, len(self.records)
        if cls.unpack_from.__func__ is not RedObj.unpack_from.__func__:
            return [cls.unpack_from(records[i]) for i in range(n)]
        # Attribute-mapped unpacking: each column set on every object by one C-level map.
        objs = list(map(cls.__new__, repeat(cls, n)))
        for name in records.dtype.names:
            col = records[name]
            deque(map(setattr, objs, repeat(name),
                      col.tolist() if col.ndim == 1 else list(col.copy())), maxlen=0)
        return objs

    # -- wire encoding --------------------------------------------------
    def to_bytes(self) -> bytes:
        header = pickle.dumps(
            (self.cls, self.records.dtype, self.merges),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return b"".join(
            [
                _COLUMNAR_MAGIC,
                _COLUMNAR_HEADER.pack(len(header), len(self.keys)),
                header,
                np.ascontiguousarray(self.keys).tobytes(),
                np.ascontiguousarray(self.records).tobytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "PackedMap":
        base = len(_COLUMNAR_MAGIC)
        header_len, n = _COLUMNAR_HEADER.unpack_from(payload, base)
        offset = base + _COLUMNAR_HEADER.size
        red_cls, dtype, merges = pickle.loads(payload[offset : offset + header_len])
        offset += header_len
        keys = np.frombuffer(payload, dtype=np.int64, count=n, offset=offset)
        offset += keys.nbytes
        records = np.frombuffer(payload, dtype=dtype, count=n, offset=offset)
        # frombuffer views over bytes are read-only; merging needs writable.
        return cls(red_cls, keys.copy(), _concat_records([records]), merges)


def _concat_records(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Same-dtype record arrays joined (or copied) as bytes, not field by field."""
    return np.frombuffer(bytearray().join(map(np.ascontiguousarray, parts)), parts[0].dtype)


def _identity_records(dtype: np.dtype, merges, n: int) -> np.ndarray:
    records = np.zeros(n, dtype=dtype)
    for name, merge in zip(dtype.names, merges):
        records[name] = merge_identity(merge, dtype.fields[name][0].base)
    return records


def pack_map(com_map: KeyedMap) -> PackedMap | None:
    """Encode a homogeneous, schema-bearing map columnar.

    Returns ``None`` when the map is empty, holds objects of mixed
    classes, is schemaless (``fields()`` is ``None``), or the objects'
    state does not fit the declared dtype (e.g. ragged vector fields) —
    callers then fall back to the pickle wire format.  A backed map
    returns its live backing: no copy, no objects, read-only by convention.
    """
    packed = com_map.packed
    if packed is not None:
        return packed if len(packed) else None
    n = len(com_map)
    if n == 0:
        return None
    objs = list(com_map.values())
    first = objs[0]
    cls = type(first)
    if any(type(o) is not cls for o in objs):
        return None
    fields = first.fields()
    if not fields:
        return None
    try:
        records = np.empty(n, dtype=_schema_dtype(fields))
        if cls.pack_into is RedObj.pack_into:
            # Default attribute-mapped packing: one bulk assignment per
            # column instead of one record-view write per field per object.
            for field in fields:
                name = field.name
                records[name] = [getattr(o, name) for o in objs]
        else:
            for i, obj in enumerate(objs):
                obj.pack_into(records[i])
        keys = np.fromiter(com_map.keys(), dtype=np.int64, count=n)
    except (TypeError, ValueError):
        return None
    order = np.argsort(keys, kind="stable")
    return PackedMap(cls, keys[order], records[order], [f.merge for f in fields])


def serialize_map(com_map: KeyedMap, wire_format: str = "pickle") -> bytes:
    """Encode a combination map for the wire.

    ``"pickle"`` produces the paper-faithful ``[(key, RedObj)]`` pickle
    payload; ``"columnar"`` produces a :class:`PackedMap` encoding when
    the map carries a schema and falls back to pickle otherwise.
    """
    if wire_format not in WIRE_FORMATS:
        raise ValueError(
            f"wire_format must be one of {WIRE_FORMATS}, got {wire_format!r}"
        )
    if wire_format == "columnar":
        packed = pack_map(com_map)
        if packed is not None:
            return packed.to_bytes()
    packed = com_map.packed  # pickled from its columns, a backed map stays backed
    items = com_map.items() if packed is None else zip(packed.keys.tolist(), packed.objects())
    return pickle.dumps(list(items), protocol=pickle.HIGHEST_PROTOCOL)


def wire_format_of(payload: bytes) -> str:
    """Which wire format produced ``payload`` (``"pickle"``/``"columnar"``)."""
    return "columnar" if payload.startswith(_COLUMNAR_MAGIC) else "pickle"


def deserialize_map(payload: bytes) -> KeyedMap:
    """Inverse of :func:`serialize_map` (accepts either wire format); a
    columnar payload decodes to a map backed by its arrays."""
    if payload.startswith(_COLUMNAR_MAGIC):
        return PackedMap.from_bytes(payload).to_map()
    return KeyedMap.from_trusted_items(pickle.loads(payload))


def _record_wire(comm: "Communicator", payload: bytes) -> None:
    """Per-format byte accounting: tally this payload under ``wire.<fmt>``."""
    profiler = getattr(comm, "profiler", None)
    if profiler is not None:
        profiler.record_wire(wire_format_of(payload), len(payload))


def global_combine(
    comm: "Communicator",
    local_map: KeyedMap,
    merge: MergeFn,
    combine: CombinePolicy = CombinePolicy(),
) -> KeyedMap:
    """Combine every rank's local combination map into the global one.

    Every algorithm ends with every rank holding the identical global
    map — the redistribution of Algorithm 1 lines 3-4.

    First the ranks vote their schemas and keys — a ``(first, last)`` run
    when a rank's keys are contiguous, else the key array.  When every
    rank's map is columnar-mergeable under one schema, the ranks combine
    their packed records by the key layout the votes show — the
    hand-written-MPI shape of Section 5.3, whatever ``combine`` says:

    * keys disjoint and ascending in rank order (position-keyed
      analytics: each rank owns its cells; an empty rank owns none):
      ranks allgather their own records and concatenate them — nothing
      is padded or reduced;
    * otherwise ranks identity-pad their records to the key union and
      reduce the contiguous buffers elementwise.  A ``keep`` field takes
      the value of the lowest rank holding the key, as gather's
      rank-order merge does.

    When any rank's map is not — schemaless, of mixed classes, with a
    field that has no columnar merge, or under a schema another rank
    does not share — every rank falls back to ``combine.algorithm`` over
    ``combine.wire_format`` payloads:

    * ``"gather"`` — the paper's description: local maps are gathered to
      the master (rank 0), merged there in rank order, and broadcast
      back.  Master-side work scales with the rank count.
    * ``"tree"`` — recursive-halving merge: ranks pairwise-merge maps up
      a binomial tree (log2 rounds, merging work parallelized across
      ranks), then the root broadcasts.  The classic MPI_Reduce shape.

    Returns the global combination map (on every rank).
    """
    if comm.size == 1:
        return local_map
    merged = _combine_allreduce(comm, local_map)
    if merged is not None:
        return merged
    if combine.algorithm == "gather":
        return _combine_gather(comm, local_map, merge, combine.wire_format)
    return _combine_tree(comm, local_map, merge, combine.wire_format)


def _combine_allreduce(comm: "Communicator", local_map: KeyedMap) -> KeyedMap | None:
    """The key vote and the contiguous combine; ``None`` when ineligible.

    Eligibility is decided collectively: every rank contributes a vote
    (its schema and :func:`_key_vote`, or "empty"), so either all ranks
    take this path or none does — a rank with an empty map still participates,
    with no records or identity-padded ones.  The same votes pick the
    layout (see :func:`global_combine`), identically on every rank.
    """
    packed = pack_map(local_map)
    if packed is not None and packed.vector_mergeable:
        vote = ("schema", packed.cls, packed.records.dtype, packed.merges,
                _key_vote(packed.keys))
    elif len(local_map) == 0:
        vote = ("empty",)
    else:
        vote = ("ineligible",)
    votes = comm.allgather(vote)
    schema_votes = [v for v in votes if v[0] == "schema"]
    if any(v[0] == "ineligible" for v in votes) or not schema_votes:
        return None
    ref = schema_votes[0]
    if any(
        v[1] is not ref[1] or v[2] != ref[2] or v[3] != ref[3]
        for v in schema_votes[1:]
    ):
        return None
    _cls, _dtype, _merges = ref[1], ref[2], ref[3]
    key_votes = [v[4] for v in schema_votes]
    # A vote's first and last keys are its [0] and [-1], run or array.
    if all(a[-1] < b[0] for a, b in zip(key_votes, key_votes[1:])):
        # Position-keyed: no key is shared, so the concatenation in rank
        # order is the combination (an empty rank adds no records).
        own = packed.records if packed is not None else _identity_records(_dtype, _merges, 0)
        _record_wire_allreduce(comm, own)
        records = comm.allgather(own)
        keys = np.concatenate([_voted_keys(v) for v in key_votes])
        return PackedMap(_cls, keys, _concat_records(records), _merges).to_map()
    voted = [_voted_keys(v) for v in key_votes]
    union = _key_union(voted)
    if packed is not None:
        contribution = packed.expand_to(union)
        if "keep" in _merges:
            # The lowest rank holding a key owns its keep value; the
            # others contribute zero bits to the OR.
            below = sum(v[0] == "schema" for v in votes[: comm.rank])
            claimed = np.zeros(len(union), dtype=bool)
            for keys in voted[:below]:
                claimed[np.searchsorted(union, keys)] = True
            for name, merge in zip(_dtype.names, _merges):
                if merge == "keep":
                    contribution[name][claimed] = 0
    else:
        contribution = _identity_records(_dtype, _merges, len(union))
    _record_wire_allreduce(comm, contribution)
    op = structured_reduce_op(_dtype.names, _merges)
    reduced = comm.allreduce(contribution, op=op)
    return PackedMap(_cls, union, reduced, _merges).to_map()


def _key_vote(keys: np.ndarray) -> tuple[int, int] | np.ndarray:
    """A rank's (sorted, unique, non-empty) keys as voted: the run's
    ``(first, last)`` when they are contiguous, else the array itself."""
    first, last = int(keys[0]), int(keys[-1])
    if last - first == len(keys) - 1:
        return first, last
    return keys


def _voted_keys(vote: tuple[int, int] | np.ndarray) -> np.ndarray:
    """The key array a :func:`_key_vote` stands for."""
    if isinstance(vote, tuple):
        return np.arange(vote[0], vote[1] + 1, dtype=np.int64)
    return vote


def _key_union(votes: list[np.ndarray]) -> np.ndarray:
    """Sorted union of the ranks' (sorted, unique, non-empty) key arrays."""
    first = votes[0]
    if all(np.array_equal(first, v) for v in votes[1:]):
        return first.copy()  # the result map must not alias a rank's vote
    union = first
    for v in votes[1:]:
        union = np.union1d(union, v)
    return union


def _record_wire_allreduce(comm: "Communicator", records: np.ndarray) -> None:
    profiler = getattr(comm, "profiler", None)
    if profiler is not None:
        profiler.record_wire("allreduce", int(records.nbytes))


def _combine_gather(
    comm: "Communicator", local_map: KeyedMap, merge: MergeFn, wire_format: str
) -> KeyedMap:
    payload = serialize_map(local_map, wire_format)
    _record_wire(comm, payload)
    gathered = comm.gather(payload, root=0)
    if comm.is_master:
        assert gathered is not None
        # Columnar payloads decode to backed maps, so compatible ranks
        # merge in array land and the reply re-encodes the same arrays.
        maps = [deserialize_map(p) for p in gathered]
        merged = maps[0]
        for rank_map in maps[1:]:
            merged.merge_map(rank_map, merge)
        out_payload = serialize_map(merged, wire_format)
        _record_wire(comm, out_payload)
    else:
        merged = None
        out_payload = None
    out_payload = comm.bcast(out_payload, root=0)
    if merged is None:
        merged = deserialize_map(out_payload)
    return merged


_TREE_TAG = 271


def _combine_tree(
    comm: "Communicator", local_map: KeyedMap, merge: MergeFn, wire_format: str
) -> KeyedMap:
    """Binomial-tree reduction: at round ``r`` ranks whose low ``r+1`` bits
    are zero receive from the partner ``rank + 2**r`` (when it exists) and
    merge; senders drop out.  Rank order of merges is preserved within
    each subtree, so results match the gather algorithm for associative,
    commutative merges."""
    rank, size = comm.rank, comm.size
    acc = local_map
    stride = 1
    while stride < size:
        if rank % (2 * stride) == 0:
            partner = rank + stride
            if partner < size:
                payload = comm.recv(source=partner, tag=_TREE_TAG)
                acc.merge_map(deserialize_map(payload), merge)
        elif rank % stride == 0:
            payload = serialize_map(acc, wire_format)
            _record_wire(comm, payload)
            comm.send(payload, dest=rank - stride, tag=_TREE_TAG)
        stride *= 2
    if rank == 0:
        out_payload = serialize_map(acc, wire_format)
        _record_wire(comm, out_payload)
    else:
        out_payload = None
    out_payload = comm.bcast(out_payload, root=0)
    if rank != 0:
        acc = deserialize_map(out_payload)
    return acc
