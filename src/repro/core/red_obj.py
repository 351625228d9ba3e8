"""Reduction objects — Smart's replacement for intermediate key-value pairs.

A reduction object (paper Section 3.1) represents the accumulated value of
every input element that maps to one key.  Updating it *in place* during
the reduction phase — rather than emitting a key-value pair per element —
is the core memory-efficiency idea of Smart: state never exceeds one
object per distinct key.

Subclasses define the application state (e.g. ``count`` for a histogram
bucket, ``(centroid, sum, size)`` for a k-means cluster) and may override
:meth:`RedObj.trigger` to opt into early emission (paper Section 4,
Algorithm 2).
"""

from __future__ import annotations

import copy
import functools
import pickle
import sys
from typing import Any, NamedTuple

import numpy as np


class Field(NamedTuple):
    """One column of a reduction object's columnar wire-format schema.

    Parameters
    ----------
    name:
        Attribute name on the reduction object; the default
        :meth:`RedObj.pack_into` / :meth:`RedObj.unpack_from` copy the
        attribute of the same name into/out of the packed record.
    dtype:
        NumPy dtype-like for the column (e.g. ``np.float64``).
    merge:
        How two packed values of this field combine during global
        combination: a ufunc name (``"sum"``, ``"min"``, ``"max"``,
        ``"prod"``), ``"keep"`` (keep the combination-side value — for
        fields that are identical on every rank, such as a window size
        or the current k-means centroid), or ``None`` (no columnar
        merge; the map falls back to the Python ``merge()`` callback).
        When *every* field of a schema names a true ufunc, global
        combination can short-circuit to a contiguous allreduce — the
        hand-written-MPI shape of the paper's Section 5.3.
    shape:
        Subarray shape for vector-valued fields (e.g. ``(dims,)`` for a
        k-means centroid); ``()`` for scalars.
    """

    name: str
    dtype: Any
    merge: str | None = None
    shape: tuple[int, ...] = ()


@functools.cache
def _slot_names(cls: type) -> tuple[str, ...]:
    """Every ``__slots__`` name along ``cls``'s MRO (walked once per class)."""
    return tuple(n for c in cls.__mro__ for n in getattr(c, "__slots__", ()))


class RedObj:
    """Base reduction object.

    Contract (enforced by the scheduler's data-processing mechanism,
    paper Algorithm 1):

    * ``Scheduler.merge(a, b)`` must treat the state accumulated into
      reduction objects as associative and commutative.
    * For iterative applications that seed reduction maps from the
      combination map (``Scheduler.seed_reduction_maps = True``), every
      field touched by ``merge`` must be at its identity value after
      ``post_combine`` (e.g. k-means resets ``sum``/``size`` when it
      recomputes centroids), otherwise seeding would multiply-count it.
    """

    __slots__ = ()

    def trigger(self) -> bool:
        """Early-emission condition (Algorithm 2, line 5).

        Returns True when this object's value is final and it can be
        converted to output and dropped from the reduction map before the
        combination phase.  Default: never (no early emission).
        """
        return False

    @classmethod
    def trigger_rows(cls, records: np.ndarray) -> np.ndarray:
        """Array form of :meth:`trigger` (optional): a bool mask over packed
        records — here, like ``trigger``, never.  A window object states
        its rule on columns (``count == win_size``); for a class that only
        overrides ``trigger`` the batch path asks each row's object."""
        return np.zeros(len(records), dtype=bool)

    def clone(self) -> "RedObj":
        """Deep copy; used to seed reduction maps from the combination map."""
        return copy.deepcopy(self)

    def nbytes(self) -> int:
        """Approximate in-memory footprint, for the memory audit.

        Subclasses with large payloads (e.g. the Θ(W) moving-median
        object) should override with an exact count.
        """
        total = sys.getsizeof(self)
        for name in _slot_names(type(self)):
            try:
                total += sys.getsizeof(getattr(self, name))
            except AttributeError:
                pass
        if hasattr(self, "__dict__"):
            total += sum(sys.getsizeof(v) for v in self.__dict__.values())
        return total

    # -- columnar wire-format schema (paper Section 5.3 optimization) ------
    def fields(self) -> tuple[Field, ...] | None:
        """Columnar schema: one :class:`Field` per packed attribute.

        Returning ``None`` (the default) marks the object *schemaless*:
        maps holding it serialize through pickle, reproducing the
        noncontiguous-object overhead the paper measures.  Objects with
        fixed-layout state should return a schema so combination maps
        can travel as one contiguous keys-array plus one structured
        records-array, and merges can run as per-field ufuncs instead of
        per-object Python calls.

        The schema may depend on instance state (e.g. the feature
        dimensionality of a k-means centroid), but every object sharing
        a map must produce the same dtype or the codec falls back to
        pickle.
        """
        return None

    def pack_into(self, rec) -> None:
        """Write this object's schema fields into one structured record.

        The default copies each schema field's attribute of the same
        name; override only when the packed layout differs from the
        attribute layout.
        """
        fields = self.fields()
        assert fields is not None, "pack_into on a schemaless RedObj"
        for field in fields:
            rec[field.name] = getattr(self, field.name)

    @classmethod
    def unpack_from(cls, rec) -> "RedObj":
        """Rebuild an object from one structured record (inverse of
        :meth:`pack_into`).  The default bypasses ``__init__`` and sets
        each field's attribute directly, converting numpy scalars back
        to Python numbers so unpacked objects are indistinguishable from
        ones that never crossed the wire."""
        obj = cls.__new__(cls)
        for name in rec.dtype.names:
            value = rec[name]
            setattr(obj, name, value.item() if value.ndim == 0 else value.copy())
        return obj

    # -- serialization (global combination wire format) -------------------
    def to_bytes(self) -> bytes:
        """Serialize for global combination.

        The default pickles the object.  The paper (Section 5.3) notes
        that serializing noncontiguous reduction objects is the overhead
        Smart pays over a contiguous ``MPI_Allreduce``; overriding this
        with a compact encoding narrows that overhead.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "RedObj":
        obj = pickle.loads(payload)
        if not isinstance(obj, RedObj):
            raise TypeError(f"deserialized {type(obj).__name__}, expected a RedObj")
        return obj


def ensure_red_obj(obj: Any, what: str = "reduction object") -> RedObj:
    """Runtime type check used at user-callback boundaries."""
    if not isinstance(obj, RedObj):
        raise TypeError(
            f"{what} must be a RedObj, got {type(obj).__name__}; did accumulate() "
            "forget to return the (possibly newly created) reduction object?"
        )
    return obj
