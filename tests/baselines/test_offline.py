"""Offline (store-first-analyze-after) driver."""

import numpy as np
import pytest

from repro.analytics import Histogram, KMeans, reference_histogram
from repro.baselines import OfflineDriver
from repro.core import ExecutionPolicy, TimeSharingDriver
from repro.sim import GaussianEmulator


def make_histogram():
    return Histogram(ExecutionPolicy(), lo=-4.0, hi=4.0, num_buckets=16)


class TestRealIO:
    def test_round_trips_all_steps(self, tmp_path):
        sim = GaussianEmulator(400, seed=41)
        app = make_histogram()
        driver = OfflineDriver(sim, app, scratch_dir=tmp_path)
        result = driver.run(4)
        assert app.counts().sum() == 1600
        assert result.bytes_written == 4 * 400 * 8
        assert result.write > 0
        assert result.read >= 0

    def test_results_equal_in_situ(self, tmp_path):
        offline_app = make_histogram()
        OfflineDriver(
            GaussianEmulator(300, seed=42), offline_app, scratch_dir=tmp_path
        ).run(3)

        insitu_app = make_histogram()
        TimeSharingDriver(GaussianEmulator(300, seed=42), insitu_app).run(3)
        assert np.array_equal(offline_app.counts(), insitu_app.counts())

    def test_step_files_cleaned_up(self, tmp_path):
        driver = OfflineDriver(
            GaussianEmulator(100, seed=43), make_histogram(), scratch_dir=tmp_path
        )
        driver.run(3)
        assert list(tmp_path.glob("step_*.bin")) == []

    def test_io_overhead_property(self, tmp_path):
        driver = OfflineDriver(
            GaussianEmulator(100, seed=44), make_histogram(), scratch_dir=tmp_path
        )
        result = driver.run(2)
        assert result.io_overhead == result.write + result.read
        assert result.total >= result.io_overhead

    def test_no_fsync_mode(self, tmp_path):
        driver = OfflineDriver(
            GaussianEmulator(100, seed=45), make_histogram(),
            scratch_dir=tmp_path, fsync=False,
        )
        result = driver.run(2)
        assert result.bytes_written == 2 * 100 * 8


class TestModeledIO:
    def test_charges_bandwidth_without_files(self, tmp_path):
        driver = OfflineDriver(
            GaussianEmulator(1000, seed=46), make_histogram(),
            scratch_dir=tmp_path, modeled_bandwidth=1e6,
        )
        result = driver.run(2)
        # 2 steps x 8000 bytes written + read at 1 MB/s.
        assert result.modeled_io == pytest.approx(2 * 2 * 8000 / 1e6)
        assert result.write == 0.0
        assert list(tmp_path.glob("step_*.bin")) == []

    def test_modeled_results_still_correct(self, tmp_path):
        sim = GaussianEmulator(500, seed=47)
        app = make_histogram()
        OfflineDriver(
            sim, app, scratch_dir=tmp_path, modeled_bandwidth=1e9
        ).run(3)
        expected = sum(
            reference_histogram(sim.regenerate(t), -4, 4, 16) for t in range(3)
        )
        assert np.array_equal(app.counts(), expected)


class TestIterativeAnalytics:
    def test_kmeans_offline_matches_insitu(self, tmp_path):
        def make_km():
            init = GaussianEmulator(64, seed=48, dims=2).advance().reshape(-1, 2)[:3]
            return KMeans(
                ExecutionPolicy(chunk_size=2, num_iters=3, extra_data=init.copy()),
                dims=2,
            )

        offline = make_km()
        OfflineDriver(
            GaussianEmulator(500, seed=49, dims=2), offline, scratch_dir=tmp_path
        ).run(2)
        insitu = make_km()
        TimeSharingDriver(GaussianEmulator(500, seed=49, dims=2), insitu).run(2)
        assert np.allclose(offline.centroids(), insitu.centroids(), atol=1e-10)
