"""Chunks, splits, and blocks — Smart's unit-of-processing hierarchy.

The Smart runtime scheduler (paper Section 3.1) processes each partition
*block by block*; every block is equally divided into *splits* (one per
thread); a split is consumed *chunk by chunk*, where a chunk is the unit
processing element (e.g. one scalar for histogram, one feature vector for
k-means).

Unlike conventional MapReduce's byte-stream records, a :class:`Chunk`
carries positional information (``start`` is an element index into the
rank's partition), which is what lets structural analytics such as grid
aggregation and moving average work (paper Section 5.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True)
class Chunk:
    """A unit processing element: ``size`` consecutive input elements.

    Attributes
    ----------
    start:
        Index of the chunk's first element within the rank-local input
        array (element units, not bytes).
    size:
        Number of elements in the chunk (the ``chunk_size`` of
        :class:`~repro.core.policy.ExecutionPolicy`; the final chunk of a
        split may be shorter when the split length is not a multiple).
    """

    start: int
    size: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.size <= 0:
            raise ValueError(f"invalid chunk: start={self.start}, size={self.size}")

    @property
    def stop(self) -> int:
        """One past the last element index."""
        return self.start + self.size

    @property
    def slice(self) -> slice:
        """Slice selecting this chunk from the rank-local input array."""
        return slice(self.start, self.stop)


@dataclass(frozen=True, slots=True)
class Split:
    """A contiguous range of a block assigned to one thread."""

    start: int
    stop: int
    thread_id: int

    def __len__(self) -> int:
        return self.stop - self.start

    def chunks(self, chunk_size: int) -> Iterator[Chunk]:
        """Iterate the split chunk by chunk.

        The final chunk is truncated when the split length is not a
        multiple of ``chunk_size``.
        """
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        pos = self.start
        while pos < self.stop:
            size = min(chunk_size, self.stop - pos)
            yield Chunk(pos, size)
            pos += size


def iter_blocks(n_elems: int, block_size: int | None) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` element ranges of consecutive blocks.

    ``block_size=None`` treats the whole partition as one block.
    """
    if n_elems < 0:
        raise ValueError(f"n_elems must be >= 0, got {n_elems}")
    if n_elems == 0:
        return
    if block_size is None or block_size >= n_elems:
        yield (0, n_elems)
        return
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    pos = 0
    while pos < n_elems:
        stop = min(pos + block_size, n_elems)
        yield (pos, stop)
        pos = stop


def make_splits(
    start: int, stop: int, num_threads: int, chunk_size: int
) -> list[Split]:
    """Equally divide ``[start, stop)`` into per-thread splits.

    Split boundaries are aligned to ``chunk_size`` so a chunk never
    straddles two splits (each chunk must be reduced by exactly one
    thread).  Trailing threads may receive empty splits, which are
    omitted from the result.
    """
    n = stop - start
    if n < 0:
        raise ValueError(f"empty-range splits: start={start} > stop={stop}")
    if num_threads <= 0:
        raise ValueError(f"num_threads must be positive, got {num_threads}")
    n_chunks = -(-n // chunk_size)  # ceil division
    base, extra = divmod(n_chunks, num_threads)
    splits: list[Split] = []
    chunk_pos = 0
    for t in range(num_threads):
        t_chunks = base + (1 if t < extra else 0)
        if t_chunks == 0:
            continue
        s = start + chunk_pos * chunk_size
        e = min(start + (chunk_pos + t_chunks) * chunk_size, stop)
        splits.append(Split(s, e, t))
        chunk_pos += t_chunks
    return splits
