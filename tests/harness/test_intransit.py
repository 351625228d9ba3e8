"""The in-transit chaos harness runs end to end and upholds its contract."""

from repro.harness import intransit


class TestIntransitHarness:
    def test_quick_run_end_to_end(self):
        results = intransit.run(quick=True)

        assert set(results) == {"staging", "elastic_scale", "tcp_overhead"}
        # retry is bit-exact for every way a staging worker can die
        # (asserted inside run too — restated here so a silent harness
        # edit cannot drop the check)
        for name in ("staging_kill_retry", "staging_hang_retry",
                     "staging_disconnect_retry"):
            assert results["staging"][name]["bit_exact"]
            assert results["staging"][name]["retries"] >= 1
        # degrade accounts for every dropped element exactly
        degrade = results["staging"]["staging_kill_degrade"]
        assert degrade["mass_conserved"]
        assert degrade["elements_lost"] > 0
        # pool scaling does not change the result
        assert results["elastic_scale"]["bit_exact"]
        # the wire path's overhead is measured and reported against its
        # bound; whether the wall-clock ratio is within it is not a
        # tier-1 assertion
        assert results["tcp_overhead"]["overhead_ratio"] > 0
        assert results["tcp_overhead"]["bound"] == intransit.TCP_OVERHEAD_BOUND
