"""Oracle execution, structured diffing, and ULP arithmetic."""

import numpy as np
import pytest

from repro.verify import (
    Config,
    ConformanceError,
    SlicedArraySim,
    diff_results,
    execute,
    get_workload,
    ulp_distance,
)


class TestUlpDistance:
    def test_identical_values_are_zero(self):
        assert ulp_distance(1.5, 1.5) == 0
        assert ulp_distance(0.0, 0.0) == 0

    def test_adjacent_representables_are_one(self):
        x = 1.0
        assert ulp_distance(x, np.nextafter(x, np.inf)) == 1
        assert ulp_distance(x, np.nextafter(x, -np.inf)) == 1

    def test_sign_crossing_counts_through_zero(self):
        # The ordered-bits line keeps -0.0 and +0.0 as distinct adjacent
        # points, so -tiny .. +tiny spans three steps.  Zero-vs-zero
        # never reaches ULP arithmetic: the diff layer compares with ==
        # first, and -0.0 == 0.0.
        tiny = np.nextafter(0.0, np.inf)
        assert ulp_distance(-tiny, tiny) == 3
        assert ulp_distance(-0.0, 0.0) == 1

    def test_symmetric(self):
        assert ulp_distance(1.0, 2.0) == ulp_distance(2.0, 1.0)

    def test_nan_is_sentinel(self):
        assert ulp_distance(np.nan, 1.0) == -1
        assert ulp_distance(1.0, np.nan) == -1


class TestDiffResults:
    CFG = Config(workload="histogram")

    def _diff(self, expected, actual):
        return diff_results("histogram", self.CFG, expected, actual)

    def test_equal_runs_are_clean(self):
        arrays = {"counts": np.arange(8, dtype=np.int64)}
        assert self._diff(arrays, {k: v.copy() for k, v in arrays.items()}) == []

    def test_first_divergent_index_reported(self):
        e = {"counts": np.array([1.0, 2.0, 3.0, 4.0])}
        a = {"counts": np.array([1.0, 2.0, 3.5, 4.5])}
        (m,) = self._diff(e, a)
        assert m.kind == "value"
        assert m.field == "counts"
        assert m.key == 2  # first divergence, not any divergence
        assert m.abs_diff == pytest.approx(0.5)
        assert "2 of 4" in m.detail

    def test_dtype_divergence(self):
        (m,) = self._diff({"counts": np.zeros(4, dtype=np.int64)},
                          {"counts": np.zeros(4, dtype=np.float64)})
        assert m.kind == "dtype"
        assert "float64" in m.detail

    def test_shape_divergence(self):
        (m,) = self._diff({"counts": np.zeros(4)}, {"counts": np.zeros(5)})
        assert m.kind == "shape"

    def test_missing_field(self):
        (m,) = self._diff({"counts": np.zeros(4), "extra": np.zeros(2)},
                          {"counts": np.zeros(4)})
        assert m.kind == "fields"
        assert "extra" in m.detail

    def test_nan_equals_nan(self):
        e = {"out": np.array([np.nan, 1.0, np.nan])}
        assert self._diff(e, {"out": e["out"].copy()}) == []

    def test_nan_vs_value_diverges_with_ulp_sentinel(self):
        (m,) = self._diff({"out": np.array([np.nan, 1.0])},
                          {"out": np.array([0.0, 1.0])})
        assert m.key == 0
        assert m.ulp == -1
        assert m.abs_diff is None

    def test_one_sided_run_stats_are_stripped(self):
        e = {"counts": np.zeros(4), "run.stats": np.array([1, 2, 3])}
        assert self._diff(e, {"counts": np.zeros(4)}) == []

    def test_two_sided_run_stats_are_compared(self):
        e = {"counts": np.zeros(4), "run.stats": np.array([1, 2, 3])}
        a = {"counts": np.zeros(4), "run.stats": np.array([1, 2, 4])}
        (m,) = self._diff(e, a)
        assert m.field == "run.stats"

    def test_describe_carries_repro_command(self):
        (m,) = self._diff({"c": np.zeros(1)}, {"c": np.ones(1)})
        text = m.describe()
        assert "conform --config" in text
        assert "first divergence: c[0]" in text


class TestSlicedArraySim:
    def test_steps_partition_the_array(self):
        sim = SlicedArraySim(np.arange(12, dtype=float), steps=4)
        parts = [sim.advance() for _ in range(4)]
        assert np.array_equal(np.concatenate(parts), np.arange(12))
        with pytest.raises(RuntimeError, match="exhausted"):
            sim.advance()

    def test_trailing_remainder_is_trimmed(self):
        sim = SlicedArraySim(np.arange(13, dtype=float), steps=4)
        assert sim.partition_elements == 3
        assert sim.memory_nbytes == 12 * 8

    def test_reset_replays(self):
        sim = SlicedArraySim(np.arange(8, dtype=float), steps=2)
        first = sim.advance().copy()
        sim.advance()
        sim.reset()
        assert np.array_equal(sim.advance(), first)


class TestExecute:
    def test_oracle_rejects_nondeterministic_engine(self, monkeypatch):
        # The reference execution must be in-order: if the engine the
        # oracle config resolves stops advertising determinism, the kit
        # refuses to treat its output as ground truth.
        from repro.core import SerialEngine

        monkeypatch.setattr(SerialEngine, "deterministic", False)
        with pytest.raises(ConformanceError, match="non-deterministic"):
            execute(get_workload("histogram"),
                    Config(workload="histogram").oracle_of())

    def test_space_driver_matches_direct(self):
        w = get_workload("histogram")
        direct = execute(w, Config(workload="histogram"))
        fed = execute(w, Config(workload="histogram", driver="space"))
        assert diff_results(
            "histogram", Config(workload="histogram", driver="space"),
            {k: v for k, v in direct.result.items() if k != "run.stats"},
            {k: v for k, v in fed.result.items() if k != "run.stats"},
        ) == []

    def test_spmd_counters_are_summed_across_ranks(self):
        w = get_workload("minmax")
        single = execute(w, Config(workload="minmax"))
        multi = execute(w, Config(workload="minmax", ranks=2))
        assert (multi.counters["run.chunks_processed"]
                == single.counters["run.chunks_processed"])
