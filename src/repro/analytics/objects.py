"""Reduction-object types shared across the bundled analytics."""

from __future__ import annotations

import numpy as np

from ..core.red_obj import Field, RedObj


class CountObj(RedObj):
    """A bare counter (histogram buckets, joint-histogram cells)."""

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        self.count = int(count)

    def fields(self):
        return (Field("count", np.int64, "sum"),)

    def __repr__(self) -> str:  # pragma: no cover
        return f"CountObj(count={self.count})"


class SumCountObj(RedObj):
    """Sum and count — the algebraic pair behind averages."""

    __slots__ = ("total", "count")

    def __init__(self, total: float = 0.0, count: int = 0):
        self.total = float(total)
        self.count = int(count)

    def fields(self):
        return (Field("total", np.float64, "sum"), Field("count", np.int64, "sum"))

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ZeroDivisionError("mean of an empty SumCountObj")
        return self.total / self.count

    def __repr__(self) -> str:  # pragma: no cover
        return f"SumCountObj(total={self.total}, count={self.count})"


class WindowSumObj(RedObj):
    """Sum/count with an early-emission trigger at full window coverage.

    The paper's Listing 5 ``WinObj``: a window snapshot's value is final
    once every one of its ``win_size`` contributions has arrived, which
    can only happen when the whole window lies inside one split — exactly
    the situation early emission exploits.  Boundary windows (global array
    edges) never reach ``win_size`` and flow through combination instead.
    """

    __slots__ = ("total", "count", "win_size")

    def __init__(self, win_size: int, total: float = 0.0, count: int = 0):
        self.win_size = int(win_size)
        self.total = float(total)
        self.count = int(count)

    def fields(self):
        # win_size is identical for every window of a run, so "max" is a
        # correct merge.
        return (
            Field("total", np.float64, "sum"),
            Field("count", np.int64, "sum"),
            Field("win_size", np.int64, "max"),
        )

    def trigger(self) -> bool:
        return self.count == self.win_size

    @classmethod
    def trigger_rows(cls, records):
        return records["count"] == records["win_size"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"WindowSumObj(total={self.total}, count={self.count}/{self.win_size})"


class WeightedWindowObj(RedObj):
    """Weighted sum / weight total / count, with the full-window trigger.

    Used by the Gaussian kernel estimator (weights from the positional
    kernel) and by any Nadaraya-Watson style smoother.
    """

    __slots__ = ("wsum", "wtotal", "count", "win_size")

    def __init__(self, win_size: int):
        self.win_size = int(win_size)
        self.wsum = 0.0
        self.wtotal = 0.0
        self.count = 0

    def fields(self):
        return (
            Field("wsum", np.float64, "sum"),
            Field("wtotal", np.float64, "sum"),
            Field("count", np.int64, "sum"),
            Field("win_size", np.int64, "max"),
        )

    def trigger(self) -> bool:
        return self.count == self.win_size

    @classmethod
    def trigger_rows(cls, records):
        return records["count"] == records["win_size"]


class HoldAllObj(RedObj):
    """Holds every contribution — the Θ(W) holistic case (moving median).

    ``values`` stores ``(global_position, value)`` pairs so holistic
    statistics that care about within-window order (not the median, but
    e.g. a mid-window difference) remain computable after out-of-order
    accumulation across splits and ranks.
    """

    __slots__ = ("positions", "values", "win_size")

    def __init__(self, win_size: int):
        self.win_size = int(win_size)
        self.positions: list[int] = []
        self.values: list[float] = []

    @property
    def count(self) -> int:
        return len(self.values)

    def add(self, position: int, value: float) -> None:
        self.positions.append(int(position))
        self.values.append(float(value))

    def extend(self, other: "HoldAllObj") -> None:
        self.positions.extend(other.positions)
        self.values.extend(other.values)

    def trigger(self) -> bool:
        return len(self.values) == self.win_size

    def sorted_values(self) -> np.ndarray:
        order = np.argsort(self.positions, kind="stable")
        return np.asarray(self.values)[order]

    def nbytes(self) -> int:
        return 64 + 16 * len(self.values)


class GradientObj(RedObj):
    """Logistic-regression state: weights plus accumulated gradient.

    ``weights`` ride along so seeded reduction maps carry the current
    model to ``accumulate``; ``grad``/``count``/``loss`` are the
    mergeable fields and are reset to identity by ``post_combine``
    (the contract documented on :class:`~repro.core.red_obj.RedObj`).
    """

    __slots__ = ("weights", "grad", "count", "loss")

    def __init__(self, weights: np.ndarray):
        self.weights = np.asarray(weights, dtype=np.float64).copy()
        self.grad = np.zeros_like(self.weights)
        self.count = 0
        self.loss = 0.0

    def fields(self):
        # weights ride along identically on every rank (the model is
        # global state), so the combination side keeps its own copy.
        dims = self.weights.shape[0]
        return (
            Field("weights", np.float64, "keep", (dims,)),
            Field("grad", np.float64, "sum", (dims,)),
            Field("count", np.int64, "sum"),
            Field("loss", np.float64, "sum"),
        )

    def nbytes(self) -> int:
        return 64 + self.weights.nbytes + self.grad.nbytes


class ClusterObj(RedObj):
    """K-means cluster: centroid, point-sum, and size (paper Listing 4)."""

    __slots__ = ("centroid", "vec_sum", "size")

    def __init__(self, centroid: np.ndarray):
        self.centroid = np.asarray(centroid, dtype=np.float64).copy()
        self.vec_sum = np.zeros_like(self.centroid)
        self.size = 0

    def fields(self):
        # The centroid is recomputed from sum/size by update() and is
        # identical on every rank between combinations: keep, not sum.
        dims = self.centroid.shape[0]
        return (
            Field("centroid", np.float64, "keep", (dims,)),
            Field("vec_sum", np.float64, "sum", (dims,)),
            Field("size", np.int64, "sum"),
        )

    def update(self) -> None:
        """Recompute the centroid from sum/size, then reset both.

        Exactly the paper's ``update()``: empty clusters keep their
        previous centroid (sum/size carry no information).
        """
        if self.size > 0:
            np.divide(self.vec_sum, self.size, out=self.centroid)
        self.vec_sum[:] = 0.0
        self.size = 0

    def nbytes(self) -> int:
        return 64 + self.centroid.nbytes + self.vec_sum.nbytes


class SavGolObj(RedObj):
    """Savitzky-Golay window state.

    Interior windows accumulate the coefficient dot-product directly
    (``acc``); windows truncated by the array boundary also keep their
    raw samples so ``convert`` can do the boundary polynomial fit.
    """

    __slots__ = ("acc", "count", "win_size", "boundary", "positions", "values")

    def __init__(self, win_size: int, boundary: bool):
        self.win_size = int(win_size)
        self.boundary = bool(boundary)
        self.acc = 0.0
        self.count = 0
        self.positions: list[int] = []
        self.values: list[float] = []

    def trigger(self) -> bool:
        return not self.boundary and self.count == self.win_size

    def nbytes(self) -> int:
        return 80 + 16 * len(self.values)
