"""Logistic regression via batch gradient descent (feature analytics).

A single reduction object (key 0) accumulates the gradient of the
log-likelihood over all samples; ``post_combine`` applies one gradient
step after each global combination — one Smart iteration per GD
iteration, exactly the structure the paper benchmarks against Spark's
example LR (Section 5.2: 10 iterations × 15 dimensions).

Data layout: each unit chunk is one sample, ``dims`` features followed by
a 0/1 label (``chunk_size = dims + 1``).
"""

from __future__ import annotations

import numpy as np

from ..comm.interface import Communicator
from ..core.batch import ColumnarAccumulator
from ..core.chunk import Chunk
from ..core.maps import KeyedMap
from ..core.red_obj import RedObj
from ..core.policy import ExecutionPolicy
from ..core.scheduler import Scheduler
from .objects import GradientObj


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-z))


class LogisticRegression(Scheduler):
    """Batch-GD logistic regression.

    The initial weights arrive as the policy's ``extra_data`` (a ``dims``
    array; zeros when ``None``) — the paper's ``extra_data`` mechanism.
    Reduction maps are seeded from the combination map so ``accumulate``
    sees the current weights (Algorithm 1 line 6).

    Parameters
    ----------
    dims:
        Feature dimensions (chunk layout is ``dims`` features + label).
    learning_rate:
        Step size applied in ``post_combine``.
    """

    seed_reduction_maps = True

    def __init__(
        self,
        args: ExecutionPolicy,
        comm: Communicator | None = None,
        *,
        dims: int,
        learning_rate: float = 0.1,
    ):
        if args.chunk_size != dims + 1:
            raise ValueError(
                f"chunk layout is {dims} features + 1 label: chunk_size must be "
                f"{dims + 1}, got {args.chunk_size}"
            )
        super().__init__(args, comm)
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.dims = int(dims)
        self.learning_rate = float(learning_rate)

    # -- user API ------------------------------------------------------------
    def process_extra_data(self, extra_data, combination_map: KeyedMap) -> None:
        if 0 in combination_map:
            return  # keep the evolving model across time-steps
        weights = (
            np.zeros(self.dims)
            if extra_data is None
            else np.asarray(extra_data, dtype=np.float64)
        )
        if weights.shape != (self.dims,):
            raise ValueError(
                f"initial weights must have shape ({self.dims},), got {weights.shape}"
            )
        combination_map[0] = GradientObj(weights)

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        assert red_obj is not None, "seeded reduction maps guarantee the object"
        x = data[chunk.start : chunk.start + self.dims]
        y = data[chunk.start + self.dims]
        p = _sigmoid(float(red_obj.weights @ x))
        red_obj.grad += (p - y) * x
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.grad += red_obj.grad
        com_obj.count += red_obj.count
        com_obj.loss += red_obj.loss
        return com_obj

    def post_combine(self, combination_map: KeyedMap) -> None:
        obj = combination_map[0]
        if obj.count > 0:
            obj.weights -= self.learning_rate * obj.grad / obj.count
        obj.grad[:] = 0.0
        obj.count = 0
        obj.loss = 0.0

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        out[:] = red_obj.weights

    # -- batch-map path ------------------------------------------------------
    def make_accumulator(self, start: int, stop: int) -> ColumnarAccumulator:
        return ColumnarAccumulator(GradientObj(np.zeros(self.dims)), 0, 1)

    def batch_reduce(
        self, data: np.ndarray, start: int, stop: int, acc: ColumnarAccumulator
    ) -> None:
        block = data[start:stop].reshape(-1, self.dims + 1)
        X = block[:, : self.dims]
        y = block[:, self.dims]
        # Row 0 was seeded from the reduction map, so it carries the
        # current weights (Algorithm 1 line 6).
        p = _sigmoid(X @ acc.column("weights")[0])
        acc.column("grad")[0] += X.T @ (p - y)
        acc.column("count")[0] += X.shape[0]
        acc.contrib[0] += X.shape[0]

    # -- result ----------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        return self.combination_map_[0].weights


def make_logreg_samples(
    n: int, dims: int, true_weights: np.ndarray | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic samples: interleaved ``(features..., label)`` rows.

    Returns ``(flat_data, true_weights)`` where ``flat_data`` has
    ``n * (dims + 1)`` float64 values.
    """
    rng = np.random.default_rng(seed)
    w = rng.normal(size=dims) if true_weights is None else np.asarray(true_weights)
    X = rng.normal(size=(n, dims))
    prob = _sigmoid(X @ w)
    y = (rng.random(n) < prob).astype(np.float64)
    flat = np.concatenate([X, y[:, None]], axis=1).reshape(-1)
    return flat, w


def reference_logreg(
    flat_data: np.ndarray,
    dims: int,
    num_iters: int,
    learning_rate: float = 0.1,
    init_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Ground-truth batch GD on the full dataset (pure numpy)."""
    block = np.asarray(flat_data, dtype=np.float64).reshape(-1, dims + 1)
    X, y = block[:, :dims], block[:, dims]
    w = np.zeros(dims) if init_weights is None else np.asarray(init_weights, float).copy()
    for _ in range(num_iters):
        p = _sigmoid(X @ w)
        w -= learning_rate * (X.T @ (p - y)) / X.shape[0]
    return w
