"""Smart pipelines: local-only stages feeding downstream jobs."""

import numpy as np
import pytest

from repro.analytics import Histogram, MinMax, reference_histogram
from repro.comm import spmd_launch
from repro.core import ExecutionPolicy, PipelineStage, SmartPipeline


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SmartPipeline([])

    def test_intermediate_stage_needs_emit(self):
        stages = [
            PipelineStage(MinMax(ExecutionPolicy())),  # no emit, not last
            PipelineStage(MinMax(ExecutionPolicy())),
        ]
        with pytest.raises(ValueError, match="emit"):
            SmartPipeline(stages)

    def test_last_stage_keeps_global_combination(self):
        first = MinMax(ExecutionPolicy())
        last = MinMax(ExecutionPolicy())
        SmartPipeline(
            [PipelineStage(first, emit=lambda s, d: d), PipelineStage(last)]
        )
        assert first._global_combination is False
        assert last._global_combination is True


class TestRangeThenHistogram:
    """The paper's Listing-3 scenario: an earlier Smart job finds the value
    range, the histogram uses it (Section 3.5)."""

    def test_single_rank(self):
        data = np.random.default_rng(0).normal(size=2000)
        minmax = MinMax(ExecutionPolicy())
        minmax.run(data)
        lo, hi = minmax.value_range
        hist = Histogram(ExecutionPolicy(), lo=lo, hi=hi + 1e-9, num_buckets=20)
        hist.run(data)
        assert hist.counts().sum() == 2000
        assert np.array_equal(
            hist.counts(), reference_histogram(data, lo, hi + 1e-9, 20)
        )

    def test_multi_rank_pipeline_object(self):
        data = np.random.default_rng(1).normal(size=1200)

        def body(comm):
            part = np.array_split(data, comm.size)[comm.rank]
            minmax = MinMax(ExecutionPolicy(), comm)
            minmax.run(part)  # global combination on: all ranks learn range
            lo, hi = minmax.value_range
            hist = Histogram(ExecutionPolicy(), comm, lo=lo, hi=hi + 1e-9, num_buckets=10)
            hist.run(part)
            return (lo, hi, hist.counts())

        results = spmd_launch(3, body, timeout=30)
        lo, hi, counts = results[0]
        assert lo == data.min()
        assert hi == data.max()
        assert counts.sum() == 1200
        for other in results[1:]:
            assert np.array_equal(other[2], counts)

    def test_pipeline_runner_local_stage(self):
        """A local-only preprocessing stage (scaling) feeding a histogram."""

        data = np.random.default_rng(2).normal(size=500)

        class Scale(MinMax):
            # Reuse MinMax state but emit scaled data: a stand-in for the
            # paper's smoothing/filtering preprocessing stages.
            pass

        scale_stage = PipelineStage(
            Scale(ExecutionPolicy()),
            emit=lambda sched, d: (d - sched.combination_map_[0].lo),
            local_only=True,
        )
        hist = Histogram(ExecutionPolicy(), lo=0.0, hi=10.0, num_buckets=10)
        pipe = SmartPipeline([scale_stage, PipelineStage(hist)])
        pipe.run(data)
        assert hist.counts().sum() == 500
        assert pipe.final_map is hist.get_combination_map()
