"""Shared machinery for window-based analytics (paper Section 4).

A window-based application computes one output per element position from
the elements inside a sliding window centred there.  With Smart's
``run2``/``gen_keys`` path, each element contributes to every window
snapshot that covers it; the reduction object for position ``i``
accumulates those contributions and its ``trigger`` fires once all of
them have arrived (full windows only — windows truncated by the global
array boundary flow through the combination phase instead).

The Θ(1) window objects (a sum, a weighted sum) share one batch kernel,
:meth:`WindowScheduler.scatter_window`.
"""

from __future__ import annotations

import numpy as np

from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.maps import KeyedMap
from ..core.policy import ExecutionPolicy
from ..core.scheduler import Scheduler


def window_bounds(center: int, win_size: int, total_len: int) -> tuple[int, int]:
    """Inclusive-exclusive global bounds of the window centred at ``center``.

    ``win_size`` must be odd (a symmetric window with ``win_size // 2``
    elements on each side, clipped to ``[0, total_len)``).
    """
    half = win_size // 2
    return max(center - half, 0), min(center + half + 1, total_len)


def window_coverage(center: int, win_size: int, total_len: int) -> int:
    """Number of elements the (possibly clipped) window actually covers."""
    lo, hi = window_bounds(center, win_size, total_len)
    return hi - lo


class WindowScheduler(Scheduler):
    """Base class for the window applications: shared ``gen_keys``.

    An element at global position ``g`` contributes to every window
    centre in ``[g - half, g + half]`` that exists — Listing 5's
    ``gen_keys`` loop.  Subclasses implement ``accumulate`` / ``merge`` /
    ``convert`` and choose a reduction-object type whose ``trigger``
    encodes the full-coverage condition.

    Parameters
    ----------
    win_size:
        Window length; must be odd and >= 1 (the paper uses 7, 11 and 25).
    """

    def __init__(self, args: ExecutionPolicy, comm=None, *, win_size: int):
        if args.chunk_size != 1:
            raise ValueError(
                f"window analytics consume scalar elements: chunk_size must be 1, "
                f"got {args.chunk_size}"
            )
        super().__init__(args, comm)
        if win_size < 1 or win_size % 2 == 0:
            raise ValueError(f"win_size must be odd and >= 1, got {win_size}")
        self.win_size = int(win_size)

    def gen_keys(
        self,
        chunk: Chunk,
        data: np.ndarray,
        keys: list[int],
        combination_map: KeyedMap,
    ) -> None:
        g = self.global_offset_ + chunk.start
        half = self.win_size // 2
        lo = max(g - half, 0)
        hi = min(g + half + 1, self.total_len_)
        keys.extend(range(lo, hi))

    def element_position(self, chunk: Chunk) -> int:
        """Global position of the (scalar) element in ``chunk``."""
        return self.global_offset_ + chunk.start

    # -- batch-map path (subclasses name their Θ(1) ``window_obj``) ----------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        half = self.win_size // 2
        key_lo = max(self.global_offset_ + start - half, 0)
        key_hi = min(self.global_offset_ + stop + half, self.total_len_)
        return ColumnarAccumulator(self.window_obj(self.win_size), key_lo, key_hi)

    def scatter_window(
        self, acc: ColumnarAccumulator, data: np.ndarray, start: int, stop: int,
        value: str, weight: str | None = None,
    ) -> None:
        """The window family's ``batch_reduce``: add each element of
        ``data[start:stop]`` into column ``value`` of every window centre
        it covers — scaled by ``self.kernel(element - centre)``, which also
        sums into column ``weight``, when one is named — and count it.
        """
        block = np.asarray(data[start:stop], dtype=np.float64)
        half = self.win_size // 2
        g0 = self.global_offset_ + start
        g1 = self.global_offset_ + stop
        values, counts, contrib = acc.column(value), acc.column("count"), acc.contrib
        # Offsets run DESCENDING (+half .. -half) so every key receives
        # its contributing elements in ascending element order, matching
        # the scalar loop's float grouping bit-for-bit: element g lands
        # on key g + o, so for a fixed key k the contributing element is
        # g = k - o — descending o gives ascending g.
        for offset in range(half, -half - 1, -1):
            lo = max(g0, -offset)
            hi = min(g1, self.total_len_ - offset)
            if hi <= lo:
                continue
            k0 = lo + offset - acc.key_lo
            k1 = hi + offset - acc.key_lo
            seg = block[lo - g0 : hi - g0]
            if weight is not None:
                w = self.kernel(-offset)
                seg = w * seg
                acc.column(weight)[k0:k1] += w
            values[k0:k1] += seg
            counts[k0:k1] += 1
            contrib[k0:k1] += 1


def sliding_window_apply(data: np.ndarray, win_size: int, fn) -> np.ndarray:
    """Reference evaluator: ``out[i] = fn(window_values, center_rel_index)``.

    ``window_values`` are the clipped window's elements in positional
    order; ``center_rel_index`` is the centre's index within them.  O(N·W)
    but obviously correct — the tests' ground truth for every window
    application.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    half = win_size // 2
    out = np.empty(n)
    for i in range(n):
        lo, hi = max(i - half, 0), min(i + half + 1, n)
        out[i] = fn(data[lo:hi], i - lo)
    return out
