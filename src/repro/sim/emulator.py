"""The simulation emulator of the Spark comparison (paper Section 5.2).

To give Spark a level playing field, the paper replaced the real
simulation with "a simple emulator — a sequential program that outputs
double precision array elements that follow a normal distribution".  This
class is that emulator: per ``advance()`` it produces one time-step of
``step_elements`` normally distributed float64 values, deterministically
seeded so Smart and every baseline analyze byte-identical streams.
"""

from __future__ import annotations

import numpy as np

from .base import Simulation


class GaussianEmulator(Simulation):
    """Sequential normal-distribution array emulator.

    Parameters
    ----------
    step_elements:
        Elements emitted per time-step.
    mean / std:
        Parameters of the normal distribution.
    seed:
        Base RNG seed; step ``t`` uses ``seed + t`` so any step can be
        regenerated independently (useful for offline baselines that
        re-read the stream).
    dims:
        When > 1, each element is a ``dims``-vector (the emulator emits
        ``step_elements * dims`` doubles reshaped flat); feature-vector
        analytics (k-means, logistic regression) use this.
    """

    def __init__(
        self,
        step_elements: int,
        mean: float = 0.0,
        std: float = 1.0,
        seed: int = 42,
        dims: int = 1,
    ):
        if step_elements < 1:
            raise ValueError(f"step_elements must be >= 1, got {step_elements}")
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.step_elements = int(step_elements)
        self.mean = float(mean)
        self.std = float(std)
        self.seed = int(seed)
        self.dims = int(dims)
        self._step = 0
        self._buf = np.empty(self.step_elements * self.dims, dtype=np.float64)

    @property
    def step(self) -> int:
        return self._step

    @property
    def partition_elements(self) -> int:
        return self.step_elements * self.dims

    @property
    def memory_nbytes(self) -> int:
        return self._buf.nbytes

    def advance(self) -> np.ndarray:
        rng = np.random.default_rng(self.seed + self._step)
        self._buf[:] = rng.normal(self.mean, self.std, size=self._buf.shape)
        self._step += 1
        return self._buf

    def regenerate(self, step: int) -> np.ndarray:
        """Reproduce the output of an arbitrary past step (fresh array)."""
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        rng = np.random.default_rng(self.seed + step)
        return rng.normal(self.mean, self.std, size=self.step_elements * self.dims)

    def reset(self) -> None:
        self._step = 0
