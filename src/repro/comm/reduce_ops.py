"""Reduction operators for collective operations.

Operators work on scalars, sequences, and numpy arrays.  For numpy inputs
the combining step is fully vectorized (per the HPC guides: never loop over
array elements in Python when an ufunc exists).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

import numpy as np

Combiner = Callable[[Any, Any], Any]


class ReduceOp:
    """A named, associative, commutative reduction operator.

    Parameters
    ----------
    name:
        Human-readable identifier (used in profiler output and errors).
    combine:
        Binary combiner ``combine(acc, value) -> acc`` applied in rank order
        ``0..size-1`` so results are deterministic.
    """

    __slots__ = ("name", "combine")

    def __init__(self, name: str, combine: Combiner):
        self.name = name
        self.combine = combine

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ReduceOp({self.name})"

    def reduce(self, values: Sequence[Any]) -> Any:
        """Reduce ``values`` (one per rank, rank order) to a single value."""
        if not values:
            raise ValueError(f"cannot reduce an empty sequence with {self.name}")
        it: Iterable[Any] = iter(values)
        acc = next(iter(it))
        # Copy the accumulator when it is a numpy array so in-place combiners
        # never alias a rank's contribution buffer.
        if isinstance(acc, np.ndarray):
            acc = acc.copy()
        for value in it:
            acc = self.combine(acc, value)
        return acc


#: Schema merge names (``repro.core.red_obj.Field.merge``) that map to
#: elementwise ufuncs.  A columnar combination map whose every field names
#: one of these or ``"keep"`` is globally combined by a contiguous allreduce.
MERGE_UFUNCS: dict[str, np.ufunc] = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def merge_identity(merge: str, dtype: Any) -> Any:
    """Identity element of a schema merge for ``dtype``.

    Used to pad a rank's packed records out to the global key union
    before the contiguous allreduce: a key the rank never touched must
    contribute nothing to any field.  ``"keep"`` reduces by OR over the
    value's bits, so its identity is zero bits.
    """
    dt = np.dtype(dtype)
    if merge in ("sum", "keep"):
        return 0
    if merge == "prod":
        return 1
    if merge == "min":
        return np.inf if dt.kind == "f" else np.iinfo(dt).max
    if merge == "max":
        return -np.inf if dt.kind == "f" else np.iinfo(dt).min
    raise ValueError(f"no identity for merge {merge!r}")


def structured_reduce_op(
    names: Sequence[str], merges: Sequence[str]
) -> ReduceOp:
    """A :class:`ReduceOp` over structured record arrays.

    Each field combines with its own ufunc (``MERGE_UFUNCS[merge]``),
    applied in place on the accumulator — the per-field analogue of
    ``MPI_Allreduce`` with a user-defined op on a derived datatype.  A
    ``"keep"`` field ORs its values' bits: when one rank contributes the
    value and every other rank zero bits, the value arrives bit-exact,
    ``-0.0`` and NaN payloads included.
    """
    pairs = [
        (name, np.bitwise_or if m == "keep" else MERGE_UFUNCS[m], m == "keep")
        for name, m in zip(names, merges)
    ]

    def combine(acc: Any, value: Any) -> Any:
        for name, ufunc, bits in pairs:
            a, b = acc[name], value[name]
            if bits:
                a, b = _bits(a), _bits(b)
            ufunc(a, b, out=a)
        return acc

    return ReduceOp("structured", combine)


def _bits(col: np.ndarray) -> np.ndarray:
    """``col``'s values as same-size unsigned integers, or as raw bytes
    when no integer has their size."""
    size = col.dtype.itemsize
    return col.view(f"u{size}" if size in (1, 2, 4, 8) else (np.uint8, size))


def _nan_overlay(acc: Any, value: Any) -> Any:
    """Overwrite ``acc`` with the non-NaN elements of ``value``.

    Associative overlay for assembling distributed partial outputs:
    positions a rank did not write are NaN and contribute nothing;
    written positions win in rank order (later ranks override earlier
    ones, matching a sequential overlay loop).
    """
    acc = np.asarray(acc)
    value = np.asarray(value)
    mask = ~np.isnan(value)
    acc[mask] = value[mask]
    return acc


SUM = ReduceOp("sum", np.add)
NANOVERLAY = ReduceOp("nanoverlay", _nan_overlay)


def as_reduce_op(op: ReduceOp | Combiner | str) -> ReduceOp:
    """Coerce ``op`` to a :class:`ReduceOp`.

    Accepts a ``ReduceOp``, the name ``"sum"`` (the default of every
    reducing call), or a bare binary callable.
    """
    if isinstance(op, ReduceOp):
        return op
    if isinstance(op, str):
        if op != "sum":
            raise ValueError(f"unknown reduce op name: {op!r} (pass a ReduceOp or a callable)")
        return SUM
    if callable(op):
        return ReduceOp(getattr(op, "__name__", "custom"), op)
    raise TypeError(f"cannot interpret {op!r} as a reduce op")

