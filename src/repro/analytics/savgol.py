"""Savitzky-Golay smoothing filter (window-based analytics; paper ref 39).

For interior positions the filter is a fixed convolution: the output at
``i`` is the dot product of the window's elements with least-squares
polynomial-fit weights (``savgol_weights``, solved with numpy, checked
against scipy in tests).  Each element contributes its value times the
weight for its offset from the window centre — a key-dependent weight,
accumulated into a Θ(1) reduction object that triggers at full coverage.

Positions within ``win_size // 2`` of the global array boundary have a
truncated window; there the reduction object keeps its raw samples and
``convert`` performs the polynomial fit directly on the truncated window
(evaluating the fit at the centre position).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.chunk import Chunk
from ..core.red_obj import RedObj
from ..core.policy import ExecutionPolicy
from .objects import SavGolObj
from .window import WindowScheduler, sliding_window_apply


class SavitzkyGolay(WindowScheduler):
    """Savitzky-Golay filter; use with ``run2``.

    Parameters
    ----------
    polyorder:
        Degree of the fitted polynomial; must be < ``win_size``.
    """

    def __init__(self, args: ExecutionPolicy, comm=None, *, win_size: int, polyorder: int = 2):
        super().__init__(args, comm, win_size=win_size)
        if not 0 <= polyorder < win_size:
            raise ValueError(
                f"polyorder must be in [0, win_size), got {polyorder} for {win_size}"
            )
        self.polyorder = int(polyorder)
        # Coefficients ordered for offsets -half..+half relative to centre.
        self.coeffs = savgol_weights(win_size, polyorder)[::-1].copy()

    def _is_boundary(self, key: int) -> bool:
        half = self.win_size // 2
        return key < half or key >= self.total_len_ - half

    def accumulate(
        self, chunk: Chunk, data: np.ndarray, red_obj: RedObj | None, key: int
    ) -> RedObj:
        if red_obj is None:
            red_obj = SavGolObj(self.win_size, boundary=self._is_boundary(key))
        pos = self.element_position(chunk)
        value = float(data[chunk.start])
        if red_obj.boundary:
            red_obj.positions.append(pos - key)  # offset from the centre
            red_obj.values.append(value)
        else:
            offset = pos - key + self.win_size // 2
            red_obj.acc += float(self.coeffs[offset]) * value
        red_obj.count += 1
        return red_obj

    def merge(self, red_obj: RedObj, com_obj: RedObj) -> RedObj:
        com_obj.acc += red_obj.acc
        com_obj.count += red_obj.count
        com_obj.positions.extend(red_obj.positions)
        com_obj.values.extend(red_obj.values)
        return com_obj

    def convert(self, red_obj: RedObj, out: np.ndarray, key: int) -> None:
        if red_obj.boundary:
            out[key] = _truncated_fit(
                np.asarray(red_obj.positions), np.asarray(red_obj.values), self.polyorder
            )
        else:
            out[key] = red_obj.acc


@lru_cache(maxsize=None)
def savgol_weights(win_size: int, polyorder: int) -> np.ndarray:
    """Read-only ``savgol_coeffs(win_size, polyorder, use="dot")`` for an odd window."""
    x = np.arange(-(win_size // 2), win_size - win_size // 2, dtype=np.float64)
    design = x ** np.arange(polyorder + 1.0)[:, None]
    rcond = np.finfo(np.float64).eps * max(design.shape)  # scipy's default
    weights = np.linalg.lstsq(design, np.eye(polyorder + 1)[0], rcond=rcond)[0]
    weights.flags.writeable = False
    return weights


def _truncated_fit(offsets: np.ndarray, values: np.ndarray, polyorder: int) -> float:
    """Least-squares polynomial fit on a truncated window, evaluated at 0.

    Degree degrades gracefully when the window holds fewer points than
    ``polyorder + 1`` (the fit would otherwise be underdetermined).
    """
    degree = min(polyorder, offsets.shape[0] - 1)
    # Vandermonde least squares; evaluating at offset 0 selects the
    # constant coefficient.
    coeffs = np.polynomial.polynomial.polyfit(offsets, values, degree)
    return float(coeffs[0])


def reference_savgol(data: np.ndarray, win_size: int, polyorder: int = 2) -> np.ndarray:
    """Ground truth: interior = savgol convolution, boundary = truncated fit.

    The interior matches ``scipy.signal.savgol_filter``; the boundary uses
    the truncated-window least-squares fit defined above (scipy's
    ``mode='interp'`` instead re-uses the last *full* window's fit, a
    different but equally standard convention — tests compare interiors to
    scipy and boundaries to this definition).
    """
    coeffs = savgol_weights(win_size, polyorder)[::-1]

    def fit(window: np.ndarray, center: int) -> float:
        if window.shape[0] == win_size:
            return float(coeffs @ window)
        offsets = np.arange(window.shape[0]) - center
        return _truncated_fit(offsets, window, polyorder)

    return sliding_window_apply(data, win_size, fit)
