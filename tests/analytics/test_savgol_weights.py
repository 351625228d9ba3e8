"""The numpy Savitzky-Golay weights against scipy's ``savgol_coeffs``."""

import numpy as np
import pytest
import scipy.signal

from repro.analytics import SavitzkyGolay
from repro.analytics.savgol import savgol_weights
from repro.core import ExecutionPolicy


@pytest.mark.parametrize("win_size", range(3, 26, 2))
def test_weights_match_scipy_savgol_coeffs(win_size):
    for polyorder in range(win_size):
        np.testing.assert_array_max_ulp(
            savgol_weights(win_size, polyorder),
            scipy.signal.savgol_coeffs(win_size, polyorder, use="dot"),
            maxulp=2,
        )


def test_cached_weights_are_read_only():
    weights = savgol_weights(9, 3)
    assert weights is savgol_weights(9, 3)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_scheduler_coeffs_keep_their_orientation():
    # The scheduler holds a writable copy of the dot-ordered weights,
    # reversed: entry ``j`` weighs offset ``j - half`` from the centre.
    app = SavitzkyGolay(ExecutionPolicy(), win_size=7, polyorder=2)
    assert app.coeffs.flags.writeable
    assert np.array_equal(app.coeffs, savgol_weights(7, 2)[::-1])
