"""Batch-map execution path: preallocated columnar accumulators.

The paper's Algorithm 2 map loop calls ``gen_key``/``accumulate`` once
per unit chunk.  Reproduced literally in Python, every element pays an
interpreter round-trip plus a ``KeyedMap`` dict write — orders of
magnitude more than the arithmetic itself.  PR 2 already vectorized the
*merge* side (:class:`~repro.core.serialization.PackedMap`); this module
finishes the job on the *map* side, following the shape of "Optimizing
the MapReduce Framework on Intel Xeon Phi" (PAPERS.md): eliminate the
intermediate per-element key-value emission entirely and scatter whole
splits into preallocated, SIMD-friendly columns.

Applications provide a kernel by implementing
:meth:`~repro.core.scheduler.Scheduler.batch_reduce`, which receives a
:class:`ColumnarAccumulator` — one dense row per key in a declared key
window, one numpy column per :class:`~repro.core.red_obj.Field` of the
application's reduction-object schema — and updates it with
``np.bincount`` / ``np.add.at``-style scatter kernels.  Zero per-element
``gen_key``/``accumulate`` calls, zero ``KeyedMap`` dict writes on the
hot path; the scheduler folds touched rows back into the reduction map
(or ships them straight onto the columnar wire) afterwards.

Bit-exactness contract: ``np.bincount`` and ``np.add.at`` apply their
updates sequentially in input order, so per-key floating-point sums are
bit-identical to the scalar element-order loop as long as the kernel
presents elements to each key in ascending element order.  Rows are
initialized from a freshly constructed reduction object (exactly what
the scalar loop's ``accumulate(..., existing=None, ...)`` starts from)
and seeded from the incoming reduction map, so accumulation continues
from prior totals with the same float grouping as scalar in-place
mutation.

An optional numba ``@njit`` hook (:func:`maybe_njit`) compiles scatter
kernels when numba is importable and degrades to the pure-numpy callable
otherwise — no hard dependency; set ``REPRO_NO_NUMBA=1`` to force the
fallback even when numba is installed.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable

import numpy as np

from .red_obj import RedObj
from .serialization import PackedMap, _schema_dtype

__all__ = [
    "HAVE_NUMBA",
    "ColumnarAccumulator",
    "maybe_njit",
]

try:  # pragma: no cover - exercised only where numba is installed
    if os.environ.get("REPRO_NO_NUMBA"):
        raise ImportError("numba disabled by REPRO_NO_NUMBA")
    import numba as _numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the baked-in path on this image
    _numba = None
    HAVE_NUMBA = False


def maybe_njit(fn: Callable | None = None, **options) -> Callable:
    """``numba.njit`` when numba is importable, identity otherwise.

    Usable bare (``@maybe_njit``) or with options
    (``@maybe_njit(cache=True)``).  Kernels decorated with it must be
    written in the numpy subset numba compiles *and* remain correct as
    plain Python — the fallback runs them uncompiled.
    """

    def decorate(func: Callable) -> Callable:
        if not HAVE_NUMBA:
            return func
        return _numba.njit(**options)(func)  # pragma: no cover

    if fn is not None:
        return decorate(fn)
    return decorate


class ColumnarAccumulator:
    """Dense per-key columns over a key window ``[key_lo, key_hi)``.

    Row ``k - key_lo`` holds key ``k``'s reduction state as one record of
    the application's :class:`~repro.core.red_obj.Field` schema — the
    same structured dtype :func:`~repro.core.serialization.pack_map`
    produces, so a finished accumulator converts to a
    :class:`~repro.core.serialization.PackedMap` without copying through
    objects.

    ``batch_reduce`` kernels read/write columns via :meth:`column` (a
    writable ndarray view) and must record every key they touch in
    :attr:`contrib` (``np.add.at(acc.contrib, rel_keys, 1)`` or a
    bincount add) — fold-back and early-emission sweeps only visit rows
    with ``contrib > 0``.

    Every row starts as a freshly constructed reduction object (the
    ``prototype``), which is exactly the state the scalar loop's
    ``accumulate(..., existing=None, ...)`` call begins from; ``"keep"``
    fields (e.g. a window size) thereby carry the prototype's value in
    every row.  :meth:`load_from` then overwrites rows for keys already
    present in the reduction map, so scatters continue from prior totals
    with scalar-identical float grouping.
    """

    __slots__ = (
        "cls",
        "fields",
        "key_lo",
        "key_hi",
        "records",
        "contrib",
        "_seeded",
        "complete",
    )

    def __init__(self, prototype: RedObj, key_lo: int, key_hi: int):
        fields = prototype.fields()
        if not fields:
            raise TypeError(
                f"{type(prototype).__name__} is schemaless (fields() returned "
                "None/empty); the batch map path needs a Field schema"
            )
        if key_hi < key_lo:
            raise ValueError(f"empty key window [{key_lo}, {key_hi})")
        self.cls = type(prototype)
        self.fields = tuple(fields)
        self.key_lo = int(key_lo)
        self.key_hi = int(key_hi)
        n = self.key_hi - self.key_lo
        proto = np.empty(1, dtype=_schema_dtype(fields))
        prototype.pack_into(proto[0])
        self.records = np.empty(n, dtype=proto.dtype)
        self.records[:] = proto[0]
        #: Contributions scattered into each row by ``batch_reduce``.
        self.contrib = np.zeros(n, dtype=np.int64)
        self._seeded = np.zeros(n, dtype=bool)
        #: True while every key of the source reduction map lies inside
        #: the window (set by :meth:`load_from`); only then does the
        #: accumulator hold the *complete* map state and qualify for the
        #: zero-copy wire export.
        self.complete = True

    def __len__(self) -> int:
        return self.key_hi - self.key_lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarAccumulator({self.cls.__name__}, "
            f"[{self.key_lo}, {self.key_hi}), "
            f"{int(np.count_nonzero(self.contrib))} touched)"
        )

    def column(self, name: str) -> np.ndarray:
        """Writable column view for schema field ``name`` (row ``i`` is
        key ``key_lo + i``)."""
        return self.records[name]

    # -- seeding --------------------------------------------------------
    def load_from(self, red_map) -> None:
        """Seed rows from an existing reduction map.

        Keys inside the window overwrite their row (so subsequent
        scatters continue from the prior total exactly like scalar
        in-place mutation); any key outside the window clears
        :attr:`complete` — the accumulator then no longer represents the
        whole map and the scheduler folds through objects instead of
        exporting columns wholesale.
        """
        lo, hi = self.key_lo, self.key_hi
        records = self.records
        seeded = self._seeded
        for key, obj in red_map.items():
            if lo <= key < hi:
                obj.pack_into(records[key - lo])
                seeded[key - lo] = True
            else:
                self.complete = False

    # -- fold-back ------------------------------------------------------
    def touched_keys(self) -> np.ndarray:
        """Sorted int64 keys that received contributions this split."""
        return np.nonzero(self.contrib)[0] + self.key_lo

    def make_objects(self, keys: np.ndarray) -> list[RedObj]:
        """Materialize reduction objects for ``keys`` (bulk, C-speed
        column extraction — the :meth:`PackedMap.to_map` technique)."""
        rel = np.asarray(keys, dtype=np.int64) - self.key_lo
        records = self.records[rel]
        cls = self.cls
        n = len(records)
        if cls.unpack_from.__func__ is RedObj.unpack_from.__func__:
            names = records.dtype.names
            columns = []
            for name in names:
                col = records[name]
                columns.append(col.tolist() if col.ndim == 1 else list(col.copy()))
            objs = []
            new = cls.__new__
            for i in range(n):
                obj = new(cls)
                for name, col in zip(names, columns):
                    setattr(obj, name, col[i])
                objs.append(obj)
            return objs
        return [cls.unpack_from(records[i]) for i in range(n)]

    def fold_into(self, red_map) -> np.ndarray:
        """Replace ``red_map`` entries for every touched key.

        Replacement — not merging — is deliberate: the row accumulated
        *from* the seeded prior value in element order, so it already
        holds exactly what scalar in-place mutation would; merging a
        subtotal instead would regroup the float additions.  Returns the
        touched keys (sorted).
        """
        keys = self.touched_keys()
        if len(keys):
            red_map.replace_items(
                keys.tolist(), self.make_objects(keys))
        return keys

    # -- zero-copy wire export ------------------------------------------
    def to_packed(self, keys: Iterable[int] | np.ndarray) -> PackedMap:
        """A :class:`PackedMap` over ``keys`` straight from the columns.

        ``keys`` must be the reduction map's sorted key list; the result
        is byte-identical to ``pack_map(red_map)`` after
        :meth:`fold_into`, letting the process engine ship the split's
        result onto the columnar wire without materializing objects.
        """
        keys = np.asarray(keys, dtype=np.int64)
        records = self.records[keys - self.key_lo].copy()
        return PackedMap(
            self.cls, keys, records, [f.merge for f in self.fields]
        )
