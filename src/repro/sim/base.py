"""Simulation interface.

From Smart's perspective (paper Section 5.1) only two properties of the
upstream simulation matter: its memory requirement and the amount of data
it outputs per time-step.  Every simulation here exposes both, advances
one time-step at a time, and hands back the rank-local output partition as
a numpy array — the 'read pointer' time sharing processes in place.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Simulation(ABC):
    """One rank's share of a scientific simulation.

    ``advance()`` runs one time-step and returns this rank's output
    partition.  Time-sharing analytics must consume the returned array
    before the next ``advance()`` call, which may overwrite the same
    memory (paper Figure 3); space sharing copies it into the circular
    buffer instead.
    """

    @abstractmethod
    def advance(self) -> np.ndarray:
        """Run one time-step; return the rank-local output partition."""

    @property
    @abstractmethod
    def step(self) -> int:
        """Number of completed time-steps."""

    @property
    @abstractmethod
    def partition_elements(self) -> int:
        """Elements in this rank's output partition per time-step."""

    @property
    def partition_nbytes(self) -> int:
        """Bytes output per time-step on this rank."""
        return self.partition_elements * 8  # float64 output everywhere

    @property
    @abstractmethod
    def memory_nbytes(self) -> int:
        """Approximate working-set bytes of the simulation on this rank."""

    def reset(self) -> None:
        """Return to the initial condition (optional; default unsupported)."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")
