"""Engine/wire coverage for the newer analytics (satellite).

moving_median, savgol, kernel_smoother, and kde_grid ride the same
conformance kit as the core workloads: every engine and both wire
formats must match the serial/pickle oracle bit for bit on the
early-emission ``run2`` path, single- and multi-rank.  The configs
below leave ``map_path`` at ``auto``, so kernel_smoother and kde_grid run
their batch kernels against the scalar oracle (kernel_smoother at 0 ULP:
it shares moving_average's window scatter) and the other two the scalar
loop.
"""

import pytest

from tests.workloads import (
    ENGINES,
    assert_conforms,
    assert_kernel_transparent,
    run_workload,
)

NEW_WORKLOADS = ("moving_median", "savgol", "kernel_smoother", "kde_grid")


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workload", NEW_WORKLOADS)
    def test_engines_match_oracle(self, workload, engine):
        assert_conforms(workload, engine=engine, num_threads=3)

    @pytest.mark.parametrize("workload", NEW_WORKLOADS)
    def test_columnar_wire_transparent(self, workload):
        assert_conforms(workload, engine="thread", wire_format="columnar",
                        num_threads=3)

    @pytest.mark.parametrize("workload", NEW_WORKLOADS)
    def test_two_rank_split_matches_single(self, workload):
        assert_conforms(workload, ranks=2)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kernel_smoother_kernel_is_engine_and_wire_transparent(self, engine):
        assert_kernel_transparent("kernel_smoother", engine=engine,
                                  wire_format="columnar", num_threads=3)


class TestOutputShape:
    def test_kde_grid_emits_grid_length_output(self):
        result = run_workload("kde_grid")
        assert result["out"].shape == (41,)

    def test_savgol_interior_is_filled(self):
        import numpy as np

        result = run_workload("savgol")
        out = result["out"]
        assert not np.isnan(out[3:-3]).any()
