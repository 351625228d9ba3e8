"""Reduce operators."""

import numpy as np
import pytest

from repro.comm import SUM, ReduceOp, as_reduce_op


class TestBuiltins:
    def test_sum_scalars(self):
        assert SUM.reduce([1, 2, 3]) == 6

    def test_sum_arrays_elementwise(self):
        out = SUM.reduce([np.array([1.0, 2.0]), np.array([10.0, 20.0])])
        assert np.array_equal(out, [11.0, 22.0])

    def test_reduce_does_not_mutate_inputs(self):
        a = np.array([1.0, 1.0])
        b = np.array([2.0, 2.0])
        SUM.reduce([a, b])
        assert np.array_equal(a, [1.0, 1.0])
        assert np.array_equal(b, [2.0, 2.0])

    def test_single_value(self):
        assert SUM.reduce([7]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SUM.reduce([])


class TestCoercion:
    def test_by_name(self):
        assert as_reduce_op("sum") is SUM

    def test_unknown_name(self):
        for name in ("median", "max", "prod", "concat"):  # only "sum" has a name
            with pytest.raises(ValueError):
                as_reduce_op(name)

    def test_passthrough(self):
        assert as_reduce_op(SUM) is SUM

    def test_callable(self):
        op = as_reduce_op(lambda a, b: a - b)
        assert isinstance(op, ReduceOp)
        assert op.reduce([10, 3, 2]) == 5

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            as_reduce_op(42)

    def test_deterministic_rank_order(self):
        # Reduction applies in rank order 0..n-1 (needed for float
        # determinism guarantees in the scheduler).
        op = as_reduce_op(lambda a, b: f"{a}{b}")
        assert op.reduce(["a", "b", "c"]) == "abc"
