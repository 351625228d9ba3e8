"""Space-sharing with window (run2) analytics — the multi-key consumer path."""

import numpy as np

from repro.analytics import MovingAverage, reference_moving_average
from repro.core import CoreSplit, ExecutionPolicy, SpaceSharingDriver
from repro.sim import GaussianEmulator


class ResettingMovingAverage(MovingAverage):
    """Per-step windows: clear state after each consumed step."""

    def run2(self, data=None, out=None, **kw):
        result = super().run2(data, out, **kw)
        self.reset()
        return result


class TestSpaceSharingRun2:
    def test_window_results_match_reference_per_step(self):
        n, steps, win = 400, 4, 7
        sim = GaussianEmulator(n, seed=61)
        app = ResettingMovingAverage(
            ExecutionPolicy(buffer_capacity=2), win_size=win
        )
        outputs = []
        driver = SpaceSharingDriver(
            sim, app, CoreSplit(1, 1),
            multi_key=True,
            out_factory=lambda part: np.full(part.shape[0], np.nan),
            per_step=lambda i, s, o: outputs.append(o.copy()),
        )
        driver.run(steps)

        assert len(outputs) == steps
        for step, out in enumerate(outputs):
            expected = reference_moving_average(sim.regenerate(step), win)
            assert np.allclose(out, expected, atol=1e-9), step

    def test_early_emission_active_through_fed_path(self):
        sim = GaussianEmulator(300, seed=62)
        app = ResettingMovingAverage(ExecutionPolicy(buffer_capacity=2), win_size=5)
        driver = SpaceSharingDriver(
            sim, app, CoreSplit(1, 1),
            multi_key=True,
            out_factory=lambda part: np.full(part.shape[0], np.nan),
        )
        driver.run(3)
        assert app.telemetry.counter("run.early_emissions") == 3 * (300 - 4)

    def test_run2_pulls_from_buffer_when_data_none(self):
        app = MovingAverage(ExecutionPolicy(buffer_capacity=2), win_size=3)
        data = np.arange(10, dtype=float)
        app.feed(data)
        out = np.full(10, np.nan)
        app.run2(None, out)
        assert np.allclose(out, reference_moving_average(data, 3))
