import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.diagnostics import normalize_columns_l1
from mvcontrast.errors import ConfigError

from oracles import naive_alignment, naive_scatter


class TestScatterMatrix:
    def test_identity(self):
        assert np.array_equal(mv.scatter_matrix(np.eye(4)), np.eye(4))

    def test_zero(self):
        assert np.array_equal(mv.scatter_matrix(np.zeros((3, 3))),
                              np.zeros((3, 3)))

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(4, 4))
        assert np.allclose(mv.scatter_matrix(W), naive_scatter(W), atol=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            W = np.random.default_rng(seed).normal(size=(5, 5))
            S = mv.scatter_matrix(W)
            assert np.max(np.abs(S - S.T)) <= 1e-12


class TestColumnSumResidual:
    def test_uniform_columns(self):
        n = 6
        W = np.full((n, n), 1.0 / n)
        assert mv.column_sum_residual(W) <= 1e-12

    def test_random_normalized_columns(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            # mean-1 entries keep column sums away from zero, so rescaling
            # does not amplify entries and hide the identity in round-off
            W = normalize_columns_l1(rng.normal(loc=1.0, size=(n, n)))
            assert mv.column_sum_residual(W) <= 1e-10

    def test_unnormalized_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            mv.column_sum_residual(2.0 * np.eye(3))

    def test_identity_fails_negative_control(self):
        # the identity has unit column sums, so it passes; a generic
        # unnormalized matrix evaluated directly must violate the identity
        rng = np.random.default_rng(123)
        W = rng.normal(size=(5, 5))
        IW = np.eye(5) - W
        residual = np.max(np.abs((IW @ IW.T).sum(axis=0)))
        assert residual > 1e-3


class TestLaplacianEquivalenceGap:
    def test_zero_embedding(self):
        W = normalize_columns_l1(np.random.default_rng(0).normal(size=(4, 4)))
        assert mv.laplacian_equivalence_gap(np.zeros((3, 4)), W) == 0.0

    def test_constant_embedding(self):
        W = normalize_columns_l1(np.random.default_rng(1).normal(size=(5, 5)))
        Y = np.ones((2, 5))
        assert mv.laplacian_equivalence_gap(Y, W) <= 1e-10

    def test_random_instances_exact(self):
        for seed in range(100):
            rng = np.random.default_rng(seed + 2000)
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            W = normalize_columns_l1(rng.normal(size=(n, n)))
            Y = rng.normal(size=(d, n))
            bound = 1e-8 * (1.0 + float(np.sum(Y ** 2)))
            assert mv.laplacian_equivalence_gap(Y, W) <= bound

    def test_precondition(self):
        with pytest.raises(ConfigError):
            mv.laplacian_equivalence_gap(np.ones((2, 3)), np.eye(3) * 2.0)


class TestCrossViewAlignment:
    def test_identical_views(self):
        rng = np.random.default_rng(0)
        Wm = rng.normal(size=(4, 4))
        W = mv.CoefficientSet([Wm.copy(), Wm.copy()])
        assert mv.cross_view_alignment(W) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_columns(self):
        W = mv.CoefficientSet([
            np.column_stack([[1.0, 0.0], [1.0, 0.0]]),
            np.column_stack([[0.0, 1.0], [0.0, 1.0]]),
        ])
        assert mv.cross_view_alignment(W) == pytest.approx(0.0, abs=1e-9)

    def test_matches_column_loop(self):
        for seed in range(10):
            rng = np.random.default_rng(seed + 50)
            n = int(rng.integers(1, 9))
            blocks = [rng.normal(size=(n, n)) for _ in range(3)]
            blocks[seed % 3][:, 0] = 0.0  # a zero column meets the 1e-12 guard
            W = mv.CoefficientSet(blocks)
            assert mv.cross_view_alignment(W) == pytest.approx(
                naive_alignment(W), rel=0, abs=1e-12)

    def test_range(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            W = mv.CoefficientSet([rng.normal(size=(5, 5)) for _ in range(3)])
            a = mv.cross_view_alignment(W)
            assert -1.0 <= a <= 1.0

    def test_increases_during_training(self):
        ds = mv.synth_blobs(2, 3, 10, [8, 8], 0.5, 0)
        h = mv.Hyperparams(d=2, max_iters=200, tol=1e-3)
        init = mv.init_state(ds, h, seed=0)
        _, state = mv.fit(ds, h, seed=0)
        assert mv.cross_view_alignment(state.W) > mv.cross_view_alignment(init.W)
