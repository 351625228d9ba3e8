"""Smoke tests: every figure harness runs end to end and reproduces its
headline shape.  Small configurations where the harness allows them; the
calibration cache keeps the model figures cheap after the first.
"""

import math

import pytest

from repro.harness import FIGURES, fig01, fig05, fig06, fig07, fig08, fig09, fig10, fig11, run_figure
from repro.harness.__main__ import main as harness_main


class TestRegistry:
    def test_all_harnesses_registered(self):
        assert set(FIGURES) == {
            "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "chaos", "intransit", "service",
        }

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError, match="fig99"):
            run_figure("fig99")

    @pytest.mark.parametrize("argv", [
        ["fig99"], ["chaos", "--quick"], ["chaos", "fig99"]])
    def test_cli_rejects_unknown_name_before_running_any(
            self, argv, monkeypatch, capsys):
        ran = []
        monkeypatch.setitem(
            FIGURES, "chaos", (lambda: ran.append("chaos") or {}, "stub"))
        assert harness_main(argv) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert "unknown figure" in err and "available:" in err

    def test_descriptions_present(self):
        for name, (fn, description) in FIGURES.items():
            assert callable(fn)
            assert len(description) > 10


class TestFigureShapes:
    """Each harness's claim, asserted at reduced scale."""

    def test_fig01_insitu_wins_at_low_compute(self):
        data = fig01.run(iteration_counts=(1, 6), grid=(12, 16, 16), num_steps=4)
        assert data[1]["offline_io"] > 0
        assert data["modeled"][1]["speedup"] > data["modeled"][6]["speedup"]

    def test_fig05_order_of_magnitude(self):
        results = fig05.run(elements=12_000)
        for app in ("histogram", "kmeans", "logistic_regression"):
            assert results[app]["spark"] / results[app]["smart"] > 10

    def test_fig06_small_overhead(self):
        # Structure only: the overhead itself is a wall-clock ratio, and
        # timing belongs to the benchmark, not the tier-1 gate.
        results = fig06.run(elements=200_000, nodes=(8, 64))
        assert set(results["overheads"]) == {"kmeans", "logistic_regression"}
        for app, by_nodes in results["overheads"].items():
            assert set(by_nodes) == {8, 64}
            assert all(math.isfinite(v) for v in by_nodes.values())
            r = results[app]
            assert r["smart_compute"] > 0 and r["low_compute"] > 0
            # The payload table: pickle vs columnar vs low-level allreduce.
            for column in ("smart_payload_pickle", "smart_payload_columnar",
                           "low_payload"):
                assert r[column] > 0

    def test_fig07_high_efficiency(self):
        results = fig07.run(nodes=(4, 8, 16))
        assert 0.8 < results["average_efficiency"] < 1.2

    def test_fig08_scan_window_split(self):
        results = fig08.run(threads=(1, 8))
        assert results["window_avg"] > results["first_five_avg"]

    def test_fig08_measured_runs_each_configuration_once(self):
        measured = fig08.run_measured(
            threads=(2,), engines=("serial", "process"), elements=4000)
        for engine in ("serial", "process"):
            cell = measured[engine][2]
            assert set(cell) == {"engine", "splits", "split_seconds", "chunks"}
            assert cell["chunks"] == 4000 and cell["splits"] == 2

    def test_fig09_crash_at_bound(self):
        results = fig09.run(step_gib=(1.0, 2.0), edges=(140, 233))
        assert results["fig9a"][2.0]["copy_crashed"]
        assert not results["fig9a"][1.0]["copy_crashed"]
        assert results["fig9b"][233]["gain"] > results["fig9b"][140]["gain"]

    def test_fig10_three_outcomes(self):
        results = fig10.run()
        assert set(results["functional"]) == {
            "producer_blocks", "consumer_blocks", "elements"}
        assert results["histogram"]["improvement_pct"] < 2.0
        assert results["kmeans"]["improvement_pct"] > 0
        assert results["moving_median"]["best"] in ("30_30", "20_40")

    def test_fig11_crashes_without_trigger(self):
        results = fig11.run(step_gib=(0.5, 1.0), edges=(100, 200))
        assert results["fig11a"][1.0]["off_crashed"]
        assert not math.isinf(results["fig11a"][1.0]["on"])
        assert results["fig11b"][200]["off_crashed"]
        assert results["measured"]["peak_off"] > 100 * results["measured"]["peak_on"]
