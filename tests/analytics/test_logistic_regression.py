"""Logistic regression application."""

import numpy as np
import pytest

from repro.analytics import LogisticRegression, make_logreg_samples, reference_logreg
from repro.comm import spmd_launch
from repro.core import EnginePolicy, ExecutionPolicy


def build(dims=5, iters=6, kernel=False, comm=None, lr=0.1):
    """``kernel`` picks the batch kernel (``auto``) over the scalar loop."""
    return LogisticRegression(
        ExecutionPolicy(
            engine=EnginePolicy(map_path="auto" if kernel else "scalar"),
            chunk_size=dims + 1,
            num_iters=iters,
        ),
        comm, dims=dims, learning_rate=lr,
    )


class TestCorrectness:
    def test_matches_reference_exactly(self):
        flat, _ = make_logreg_samples(800, 5, seed=1)
        app = build()
        app.run(flat)
        assert np.allclose(app.weights, reference_logreg(flat, 5, 6), atol=1e-10)

    def test_vectorized_equals_scalar(self):
        flat, _ = make_logreg_samples(400, 4, seed=2)
        scalar = build(dims=4)
        vector = build(dims=4, kernel=True)
        scalar.run(flat)
        vector.run(flat)
        assert np.allclose(scalar.weights, vector.weights, atol=1e-10)

    def test_initial_weights_via_extra_data(self):
        flat, _ = make_logreg_samples(300, 3, seed=3)
        init = np.array([0.5, -0.5, 0.25])
        app = LogisticRegression(
            ExecutionPolicy(chunk_size=4, num_iters=4, extra_data=init), dims=3
        )
        app.run(flat)
        expected = reference_logreg(flat, 3, 4, init_weights=init)
        assert np.allclose(app.weights, expected, atol=1e-10)

    def test_learns_the_generating_weights(self):
        true_w = np.array([2.0, -1.5, 0.8])
        flat, _ = make_logreg_samples(8000, 3, true_weights=true_w, seed=4)
        app = build(dims=3, iters=150, kernel=True, lr=0.5)
        app.run(flat)
        # Direction recovered (magnitude shrinks with finite data/steps).
        cosine = app.weights @ true_w / (
            np.linalg.norm(app.weights) * np.linalg.norm(true_w)
        )
        assert cosine > 0.98

    def test_gradient_step_reduces_loss(self):
        flat, _ = make_logreg_samples(2000, 4, seed=5)
        block = flat.reshape(-1, 5)
        X, y = block[:, :4], block[:, 4]

        def loss(w):
            p = 1 / (1 + np.exp(-(X @ w)))
            eps = 1e-12
            return -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))

        one = build(dims=4, iters=1, kernel=True)
        one.run(flat)
        ten = build(dims=4, iters=10, kernel=True)
        ten.run(flat)
        assert loss(ten.weights) < loss(one.weights) < loss(np.zeros(4))

    @pytest.mark.parametrize("ranks", [2, 3])
    @pytest.mark.parametrize("kernel", [False, True])
    def test_rank_invariant(self, ranks, kernel):
        flat, _ = make_logreg_samples(600, 4, seed=6)
        expected = reference_logreg(flat, 4, 5)

        def body(comm):
            rows = flat.reshape(-1, 5)
            part = np.array_split(rows, comm.size)[comm.rank].reshape(-1)
            app = build(dims=4, iters=5, kernel=kernel, comm=comm)
            app.run(part)
            return app.weights

        for w in spmd_launch(ranks, body, timeout=30):
            assert np.allclose(w, expected, atol=1e-8)

    def test_model_persists_across_time_steps(self):
        # Two runs continue training the same model (in-situ across steps).
        flat, _ = make_logreg_samples(500, 3, seed=7)
        app = build(dims=3, iters=2)
        app.run(flat)
        w_after_step1 = app.weights.copy()
        app.run(flat)
        assert not np.allclose(app.weights, w_after_step1)
        # Equivalent to 4 iterations over the same data.
        assert np.allclose(app.weights, reference_logreg(flat, 3, 4), atol=1e-10)


class TestValidation:
    def test_chunk_size_checked(self):
        with pytest.raises(ValueError, match="chunk_size"):
            LogisticRegression(ExecutionPolicy(chunk_size=3), dims=5)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            build(lr=0.0)

    def test_bad_initial_weight_shape(self):
        app = LogisticRegression(
            ExecutionPolicy(chunk_size=4, extra_data=np.zeros(7)), dims=3
        )
        with pytest.raises(ValueError, match="shape"):
            app.run(np.zeros(8))
