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
hot path.  Afterwards :meth:`ColumnarAccumulator.fold_into` hands the
rows to the reduction map as its ``PackedMap`` backing whenever they are
its whole state (see :class:`~repro.core.maps.KeyedMap`), so combination
and the columnar wire stay on arrays and build no reduction object.

Early emission (Algorithm 2) is one sweep over the same columns:
:meth:`ColumnarAccumulator.take_fired` asks ``trigger_rows`` which touched
rows are final and returns them as a ``PackedMap`` for
``Scheduler.convert_rows``; the fold leaves them out.  Both array forms
are optional (without one, each row's object is built and asked through
the scalar callback); :func:`array_form_stands` says when that applies.

Bit-exactness contract: ``np.bincount`` and ``np.add.at`` apply their
updates sequentially in input order, so per-key floating-point sums are
bit-identical to the scalar element-order loop as long as the kernel
presents elements to each key in ascending element order.  Rows are
initialized from a freshly constructed reduction object (exactly what
the scalar loop's ``accumulate(..., existing=None, ...)`` starts from)
and seeded from the incoming reduction map, so accumulation continues
from prior totals with the same float grouping as scalar in-place
mutation.
"""

from __future__ import annotations

import threading

import numpy as np

from .red_obj import RedObj
from .serialization import PackedMap, _schema_dtype

__all__ = [
    "ColumnarAccumulator",
    "Scratch",
    "array_form_stands",
]


class Scratch(threading.local):
    """Work arrays a batch kernel reuses from call to call.

    A kernel's temporaries are as large as its split; allocated fresh per
    call, megabyte-sized ones come from ``mmap`` and are faulted in page
    by page every time, which can cost more than the arithmetic.
    :meth:`array` hands out the same memory again instead.  Arrays are
    **per thread** — the thread engine runs the splits of one scheduler
    concurrently.  A kernel's module owns one instance for the life of
    the process, not each scheduler its own: the service builds a
    scheduler per job, and a scratch that was allocated and dropped with
    each measurably cost it CPU.  So a thread keeps, per kernel, arrays
    the size of the largest split it has reduced.
    """

    def array(self, name: str, n: int, dtype) -> np.ndarray:
        """An uninitialised length-``n`` array of ``dtype``: the calling
        thread's array ``name``, grown when it is too short."""
        arrays = self.__dict__
        arr = arrays.get(name)
        if arr is None or len(arr) < n or arr.dtype != dtype:
            arr = arrays[name] = np.empty(n, dtype)
        return arr[:n]


def array_form_stands(cls: type, array: str, scalar: str) -> bool:
    """Whether ``cls``'s ``array`` method (``trigger_rows``, ``convert_rows``)
    still encodes its ``scalar`` callback: False when a subclass overrides
    ``scalar`` *below* the class defining ``array`` — the per-row adapter
    then serves it, as ``auto`` runs the scalar loop below a kernel."""
    for klass in cls.__mro__:
        if array in vars(klass) or scalar in vars(klass):
            return array in vars(klass)
    return False


class ColumnarAccumulator:
    """Dense per-key columns over a key window ``[key_lo, key_hi)``.

    Row ``k - key_lo`` holds key ``k``'s reduction state as one record of
    the application's :class:`~repro.core.red_obj.Field` schema — the
    same structured dtype :func:`~repro.core.serialization.pack_map`
    produces, so a finished accumulator's rows become a reduction map's
    :class:`~repro.core.serialization.PackedMap` backing without going
    through objects.

    ``batch_reduce`` kernels read/write columns via :meth:`column` (a
    writable ndarray view) and must record every key they touch in
    :attr:`contrib` (``np.add.at(acc.contrib, rel_keys, 1)`` or a
    bincount add) — the fold-back and the early-emission sweep only
    visit rows with ``contrib > 0``.

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
        "_fired",
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
        self._fired = np.zeros(n, dtype=bool)

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

        Keys inside the window overwrite their row, so subsequent
        scatters continue from the prior total exactly like scalar
        in-place mutation; keys outside it are left to :meth:`fold_into`.
        A map backed by this schema seeds by array copy.
        """
        lo, hi = self.key_lo, self.key_hi
        records = self.records
        packed = red_map.packed
        if (packed is not None and packed.cls is self.cls
                and packed.records.dtype == records.dtype):
            inside = (packed.keys >= lo) & (packed.keys < hi)
            rows = packed.keys[inside] - lo
            records[rows] = packed.records[inside]
            self._seeded[rows] = True
            return
        for key, obj in red_map.items():
            if lo <= key < hi:
                obj.pack_into(records[key - lo])
                self._seeded[key - lo] = True

    # -- fold-back ------------------------------------------------------
    def _pack_rows(self, rows: np.ndarray) -> PackedMap:
        merges = [f.merge for f in self.fields]
        # ndarray.take: ~6x faster than fancy-indexing a structured array.
        return PackedMap(self.cls, rows + self.key_lo, self.records.take(rows), merges)

    def take_fired(self) -> PackedMap:
        """The early-emission sweep (Algorithm 2 lines 5-7): the touched
        rows whose ``trigger`` holds — the keys the scalar loop would have
        emitted during this split — as columns; :meth:`fold_into` then
        leaves them out of the map."""
        # Only touched rows are asked: the others hold prototype state the
        # scalar loop would not have built an object for.
        rows = np.nonzero(self.contrib)[0]
        if array_form_stands(self.cls, "trigger_rows", "trigger"):
            records = self.records if len(rows) == len(self) else self.records.take(rows)
            rows = rows[self.cls.trigger_rows(records)]
        else:
            rows = rows[[obj.trigger() for obj in self._pack_rows(rows).objects()]]
        self._fired[rows] = True
        return self._pack_rows(rows)

    def fold_into(self, red_map) -> np.ndarray:
        """Replace ``red_map`` entries for every touched key; keys that
        fired (:meth:`take_fired`) leave the map instead.

        Replacement — not merging — is deliberate: the row accumulated
        *from* the seeded prior value in element order, so it already
        holds exactly what scalar in-place mutation would; merging a
        subtotal instead would regroup the float additions.  Returns the
        touched keys (sorted).

        When the map is empty, or backed with every key seeded (inside
        the window), the touched and seeded rows *are* the post-fold map
        and become its backing — no objects.  Otherwise the touched rows
        materialize and replace their entries.
        """
        touched = self.contrib != 0
        keys = np.nonzero(touched)[0] + self.key_lo
        if not len(keys):
            return keys
        n = len(red_map)
        if not n or (red_map.packed is not None and np.count_nonzero(self._seeded) == n):
            rows = np.nonzero((touched | self._seeded) & ~self._fired)[0]
            red_map.replace_contents(self._pack_rows(rows).to_map())
        else:
            for key in (np.nonzero(self._fired & self._seeded)[0] + self.key_lo).tolist():
                del red_map[key]
            rows = np.nonzero(touched & ~self._fired)[0]
            red_map.replace_items(
                (rows + self.key_lo).tolist(), self._pack_rows(rows).objects()
            )
        return keys
