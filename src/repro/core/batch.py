"""Batch-map execution path: preallocated columnar accumulators.

The paper's Algorithm 2 map loop calls ``gen_key``/``accumulate`` once
per unit chunk; reproduced literally in Python, every element pays an
interpreter round-trip plus a ``KeyedMap`` dict write.  Following
"Optimizing the MapReduce Framework on Intel Xeon Phi" (PAPERS.md), this
module drops the per-element key-value emission and scatters whole
splits into preallocated, SIMD-friendly columns.

Applications provide a kernel by implementing
:meth:`~repro.core.scheduler.Scheduler.batch_reduce`, which receives a
:class:`ColumnarAccumulator` — one dense row per key in a declared key
window, one numpy column per :class:`~repro.core.red_obj.Field` of the
application's reduction-object schema — and updates it with
``np.bincount`` / ``np.add.at``-style scatter kernels.  Afterwards
:meth:`ColumnarAccumulator.fold_into` hands the rows to the reduction
map as its ``PackedMap`` backing whenever they are its whole state (see
:class:`~repro.core.maps.KeyedMap`), so combination and the columnar
wire stay on arrays and build no reduction object.

Early emission (Algorithm 2) is one sweep over the same columns:
:meth:`ColumnarAccumulator.take_fired` asks ``trigger_rows`` which touched
rows are final and returns them as a ``PackedMap`` for
``Scheduler.convert_rows``; the fold leaves them out.  Both array forms
are optional (without one, each row's object is built and asked through
the scalar callback); :func:`array_form_stands` says when that applies.

An accumulator lives for one split: its rows, ``contrib`` and row masks
are one byte buffer the thread reuses from split to split (a
:class:`Scratch`), so a warm service seat or engine worker allocates
none of them, and nothing that outlives the split views it.

Bit-exactness contract: ``np.bincount`` and ``np.add.at`` apply their
updates sequentially in input order, so per-key floating-point sums are
bit-identical to the scalar element-order loop as long as the kernel
presents elements to each key in ascending element order.  Rows start
as a freshly constructed reduction object (what the scalar loop's
``accumulate(..., existing=None, ...)`` starts from) and are seeded from
the incoming reduction map, so accumulation continues from prior totals
with the same float grouping as scalar in-place mutation.
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
    """Work arrays reused from call to call, **per thread** (the thread
    engine runs one scheduler's splits concurrently): split-sized
    temporaries allocated per call come from ``mmap`` and are faulted in
    page by page every time.  A module owns one instance for the life of
    the process (the service builds a scheduler per job), so a thread
    keeps, per name, an array the size of the largest split it reduced.
    """

    def array(self, name: str, n: int, dtype) -> np.ndarray:
        """An uninitialised length-``n`` array of ``dtype``: the calling
        thread's array ``name``, grown when it is too short."""
        arrays = self.__dict__
        arr = arrays.get(name)
        if arr is None or len(arr) < n or arr.dtype != dtype:
            arr = arrays[name] = np.empty(n, dtype)
        return arr[:n]


_ROWS = Scratch()  # the rows of each thread's current accumulator
_NO_KEYS = np.empty(0, np.int64)


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

    Every row starts as the freshly constructed ``prototype`` (where the
    scalar loop's ``accumulate(..., existing=None, ...)`` begins, ``"keep"``
    fields included): zeroed, then each field whose prototype bytes are not
    zero written as a column; :meth:`load_from` overwrites keys already in
    the map.  The memory is the calling thread's, as a kernel's
    :class:`Scratch` is: building the thread's next accumulator reuses it.
    """

    __slots__ = ("cls", "merges", "key_lo", "key_hi", "records", "contrib", "_seeded", "_fired")

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
        self.merges = tuple(f.merge for f in fields)
        self.key_lo, self.key_hi = int(key_lo), int(key_hi)
        n = self.key_hi - self.key_lo
        proto = np.zeros(1, dtype=_schema_dtype(fields))
        prototype.pack_into(proto[0])
        at = -(-n * proto.itemsize // 8) * 8  # contrib's offset, 8-byte aligned
        raw = _ROWS.array("rows", at + 10 * n, np.uint8)
        raw[:] = 0
        self.records = np.ndarray(n, proto.dtype, raw)
        for name in proto.dtype.names:
            if proto[name].tobytes().strip(b"\0"):  # bytes: a -0.0 is not zero
                self.records[name] = proto[name]
        #: Contributions scattered into each row by ``batch_reduce``.
        self.contrib = np.ndarray(n, np.int64, raw, at)
        self._seeded, self._fired = (np.ndarray(n, bool, raw, at + k * n) for k in (8, 9))

    def __len__(self) -> int:
        return self.key_hi - self.key_lo

    def column(self, name: str) -> np.ndarray:
        """Writable column view of field ``name`` (row ``i``: key ``key_lo + i``)."""
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
    def _rows(self, mask: np.ndarray, copy: bool = True) -> PackedMap:
        """The rows under ``mask``: a copy, or (``copy=False``, one run) a view."""
        if not copy:
            count, first = np.count_nonzero(mask), int(mask.argmax())
            if mask[first : first + count].all():  # one run
                keys = np.arange(first + self.key_lo, first + count + self.key_lo)
                return PackedMap(self.cls, keys, self.records[first : first + count], self.merges)
        rows = mask.nonzero()[0]
        # ndarray.take: ~6x faster than fancy-indexing a structured array.
        return PackedMap(self.cls, rows + self.key_lo, self.records.take(rows), self.merges)

    def take_fired(self) -> PackedMap:
        """The early-emission sweep (Algorithm 2 lines 5-7): the touched
        rows whose ``trigger`` holds — the keys the scalar loop would have
        emitted during this split — as columns, viewing the rows when they
        are one run (valid until the thread builds its next accumulator);
        :meth:`fold_into` then leaves them out of the map."""
        # Only touched rows are asked: the scalar loop built no object for the rest.
        stands = array_form_stands(self.cls, "trigger_rows", "trigger")
        if stands and self.cls.trigger_rows.__func__ is RedObj.trigger_rows.__func__:
            return PackedMap(self.cls, _NO_KEYS, self.records[:0], self.merges)  # never fires
        touched = self.contrib != 0
        if not stands:
            self._fired[touched] = [obj.trigger() for obj in self._rows(touched).objects()]
        elif touched.all():
            self._fired[:] = self.cls.trigger_rows(self.records)
        else:
            self._fired[touched] = self.cls.trigger_rows(self.records[touched])
        return self._rows(self._fired, copy=False)

    def fold_into(self, red_map) -> None:
        """Replace ``red_map`` entries for every touched key; keys that
        fired (:meth:`take_fired`) leave the map instead.

        Replacement, not merging: the row accumulated *from* the seeded
        prior value in element order, as scalar in-place mutation does.
        When the map is empty, or backed with every key seeded, a copy of
        the touched and seeded rows becomes its backing; otherwise the
        touched rows replace their entries as objects."""
        touched = self.contrib != 0
        if not touched.any():
            return
        n = len(red_map)
        if not n or (red_map.packed is not None and np.count_nonzero(self._seeded) == n):
            red_map.replace_contents(self._rows((touched | self._seeded) & ~self._fired).to_map())
        else:
            for key in ((self._fired & self._seeded).nonzero()[0] + self.key_lo).tolist():
                del red_map[key]
            rows = self._rows(touched & ~self._fired)
            red_map.replace_items(rows.keys.tolist(), rows.objects())
