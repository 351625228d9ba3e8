"""The chaos harness runs end to end and upholds the recovery contract."""

from repro.harness import chaos


class TestChaosHarness:
    def test_quick_run_end_to_end(self):
        results = chaos.run(quick=True)

        assert set(results) == {"comm", "engine", "storage", "overhead"}
        # retry is bit-exact on both layers (asserted inside run too —
        # restated here so a silent harness edit cannot drop the check)
        assert results["comm"]["kmeans_crash_retry"]["bit_exact"]
        assert results["engine"]["kmeans_worker_kill_retry"]["bit_exact"]
        assert results["engine"]["kmeans_worker_hang_retry"]["bit_exact"]
        # degrade records its drops
        assert results["comm"]["histogram_crash_degrade"]["ranks_dropped"] == 1
        assert results["engine"]["kmeans_worker_kill_degrade"]["dropped_splits"] >= 1
        # corrupted checkpoint fell back one generation
        assert results["storage"]["checkpoint_fallbacks"] == 1
        assert results["storage"]["matches_last_good"]
        # a recovery latency was measured somewhere
        assert results["comm"]["kmeans_crash_retry"]["recovery_seconds"] > 0
        assert results["overhead"]["no_plan_seconds"] > 0
