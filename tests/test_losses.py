import math

import numpy as np
import pytest

import mvcontrast as mv
from oracles import (naive_cosine, naive_reconstruction,
                     naive_sample_infonce, naive_structural, random_instance)


def sim(A, B, tau, norm_eps=0.0):
    """sim_matrix on columns given as lists of vectors."""
    A = np.column_stack(A).astype(float)
    B = np.column_stack(B).astype(float)
    return mv.losses.sim_matrix(A, B, tau, norm_eps)


class TestCosineSim:
    """Temperature-scaled cosine similarity, as losses.sim_matrix computes it."""

    def test_identical_unit_vectors(self):
        assert sim([[1, 0]], [[1, 0]], tau=1.0)[0, 0] == pytest.approx(1.0)

    def test_orthogonal(self):
        assert sim([[1, 0]], [[0, 1]], tau=0.5)[0, 0] == pytest.approx(0.0)

    def test_hand_computed(self):
        # dots 24, 8, 4, 0 over norms 5*5, 5*2, 1*5, 1*2; tau 2
        S = sim([[3, 4], [1, 0]], [[4, 3], [0, 2]], tau=2.0)
        assert np.allclose(S, [[0.48, 0.4], [0.4, 0.0]], rtol=1e-15, atol=0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(4, 3)), rng.normal(size=(4, 5))
        S_ab = mv.losses.sim_matrix(A, B, 0.7, 1e-12)
        S_ba = mv.losses.sim_matrix(B, A, 0.7, 1e-12)
        assert np.allclose(S_ab, S_ba.T, rtol=1e-14, atol=0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))
        base = mv.losses.sim_matrix(A, B, 1.3, 0.0)
        for c in [0.5, 3.0, 100.0]:
            assert np.allclose(mv.losses.sim_matrix(c * A, B, 1.3, 0.0), base,
                               rtol=1e-12, atol=0)

    def test_bounded_by_inverse_tau(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            A, B = rng.normal(size=(3, 6)), rng.normal(size=(3, 7))
            S = mv.losses.sim_matrix(A, B, 0.25, 1e-12)
            assert np.max(np.abs(S)) <= 4.0 + 1e-9

    def test_matches_nested_loop(self):
        rng = np.random.default_rng(3)
        for tau, norm_eps in [(1.0, 0.0), (0.3, 1e-12), (2.5, 1e-3)]:
            A, B = rng.normal(size=(4, 6)), rng.normal(size=(4, 5))
            S = mv.losses.sim_matrix(A, B, tau, norm_eps)
            assert S.shape == (6, 5)
            for i in range(6):
                for k in range(5):
                    assert S[i, k] == pytest.approx(
                        naive_cosine(A[:, i], B[:, k], tau, norm_eps),
                        rel=1e-12, abs=1e-12)


class TestLogsumexp:
    @staticmethod
    def reference(row):
        # unshifted: exact enough for entries in [-700, 700], where exp
        # neither overflows nor leaves the normal range
        return math.log(math.fsum(math.exp(x) for x in row))

    def test_matches_math_reference(self):
        rng = np.random.default_rng(0)
        rows = np.vstack([rng.normal(scale=5.0, size=(20, 9)),
                          700.0 - rng.uniform(0.0, 3.0, size=(5, 9)),
                          -700.0 + rng.uniform(0.0, 3.0, size=(5, 9)),
                          rng.choice([-700.0, 700.0], size=(5, 9))])
        got = mv.losses.row_logsumexp(rows)
        assert got.shape == (rows.shape[0],)
        for value, row in zip(got, rows):
            assert value == pytest.approx(self.reference(row), rel=1e-14)

    def test_no_overflow_beyond_exp_range(self):
        rows = np.array([[1000.0, 1000.0, -1000.0]])
        assert float(mv.losses.row_logsumexp(rows)[0]) == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-15)


def uniform_hyper(**kw):
    base = dict(d=2, lam=1.0, alpha=1.0, beta=1.0, tau1=1.0, tau2=1.0)
    base.update(kw)
    return mv.Hyperparams(**base)


class TestSampleInfonce:
    def test_single_sample_is_zero(self):
        ds = mv.MultiViewDataset(views=[np.ones((2, 1)), np.ones((3, 1))])
        P = mv.ProjectionStack.from_blocks([np.ones((2, 2)), np.ones((3, 2))])
        assert mv.sample_infonce(P, ds, uniform_hyper()) == 0.0

    def test_equal_similarities(self):
        # both samples of both views embed to the same point: every pairwise
        # similarity is equal, each anchor term is log(2), total 2 log 2
        ds = mv.MultiViewDataset(views=[np.ones((2, 2)), np.ones((2, 2))])
        P = mv.ProjectionStack.from_blocks(
            [np.ones((2, 2)), np.ones((2, 2))])
        loss = mv.sample_infonce(P, ds, uniform_hyper())
        assert loss == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_matches_bruteforce_oracle(self):
        for seed in range(25):
            n = 2 + seed % 7
            V = 2 + seed % 2
            dims = [3 + seed % 3] * V
            ds, P, W = random_instance(seed, n=n, V=V, dims=dims, d=2)
            h = uniform_hyper(tau1=[0.5, 1.0, 2.0][seed % 3], norm_eps=1e-12)
            fast = mv.sample_infonce(P, ds, h)
            slow = naive_sample_infonce(P, ds, h)
            assert fast == pytest.approx(slow, rel=1e-10)
            assert fast >= 0.0


class TestSampleLogits:
    def test_positives_are_the_diagonals_of_the_logit_blocks(self):
        n, V = 6, 3
        ds, P, _ = random_instance(4, n=n, V=V, dims=(4, 3, 5), d=2)
        h = uniform_hyper(tau1=0.5, norm_eps=1e-12)
        Y = mv.losses.view_embeddings(P, ds)
        for m in range(V):
            others, logits, pos = mv.losses.sample_logits(Y, m, h)
            assert others == [v for v in range(V) if v != m]
            assert logits.shape == (n, (V - 1) * n)
            assert pos.shape == (n, V - 1)
            for j, v in enumerate(others):
                block = logits[:, j * n:(j + 1) * n]
                assert np.array_equal(block, mv.losses.sim_matrix(
                    Y[m], Y[v], h.tau1, h.norm_eps))
                assert np.array_equal(pos[:, j], np.diagonal(block))
                for i in range(n):
                    assert pos[i, j] == pytest.approx(naive_cosine(
                        Y[m][:, i], Y[v][:, i], h.tau1, h.norm_eps), rel=1e-12)


class TestStructuralContrastive:
    def test_identical_columns(self):
        n = 5
        W = mv.CoefficientSet([np.ones((n, n)), np.ones((n, n))])
        loss = mv.structural_contrastive(W, uniform_hyper())
        assert loss == pytest.approx(2.0 * math.log(n), rel=1e-9)

    def test_identical_columns_three_views(self):
        n = 4
        W = mv.CoefficientSet([np.ones((n, n))] * 3)
        loss = mv.structural_contrastive(W, uniform_hyper())
        assert loss == pytest.approx(6.0 * math.log(n), rel=1e-9)

    def test_single_sample(self):
        W = mv.CoefficientSet([np.ones((1, 1)), 2 * np.ones((1, 1))])
        assert mv.structural_contrastive(W, uniform_hyper()) == pytest.approx(0.0)

    def test_matches_bruteforce_oracle(self):
        for seed in range(25):
            n = 2 + seed % 6
            V = 2 + seed % 2
            ds, P, W = random_instance(seed + 100, n=n, V=V, dims=[3] * V, d=2)
            h = uniform_hyper(tau2=[0.5, 1.0, 3.0][seed % 3], norm_eps=1e-12)
            fast = mv.structural_contrastive(W, h)
            slow = naive_structural(W, h)
            assert fast == pytest.approx(slow, rel=1e-10)
            assert fast >= 0.0


    # With unit columns, |a - b|^2 = 2 - 2 a.b, so each anchor's term splits into
    # an intra-pair scatter and a log-sum of inter-pair scatters:
    # |w_i^m - w_i^v|^2 / (2 tau2) + log sum_k exp(-|w_i^m - w_k^v|^2 / (2 tau2)).
    # norm_eps scales every similarity by 1 / (1 + norm_eps), which moves a term by
    # at most 2 norm_eps / tau2 (its cosines differ by at most 2).
    @pytest.mark.parametrize("norm_eps", [1e-300, 1e-12])
    def test_unit_columns_split_into_intra_and_inter_scatter(self, norm_eps):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, tau2 = int(rng.integers(1, 20)), float(rng.uniform(0.1, 2.0))
            Wm, Wv = (w / np.linalg.norm(w, axis=0)
                      for w in rng.normal(size=(2, n, n)))
            h = uniform_hyper(tau2=tau2, norm_eps=norm_eps)
            sq = np.sum((Wm[:, :, None] - Wv[:, None, :]) ** 2, axis=0) / (2 * tau2)
            scatter = np.diagonal(sq) + np.log(np.sum(np.exp(-sq), axis=1))
            terms = mv.losses._structural_terms(Wm, Wv, h)
            assert np.max(np.abs(terms - scatter)) <= 2 * norm_eps / tau2 + 1e-13


class TestReconstructionPenalty:
    def test_zero_coefficients(self):
        ds, P, _ = random_instance(0)
        W = mv.CoefficientSet([np.zeros((5, 5)), np.zeros((5, 5))])
        h = uniform_hyper(alpha=0.7, beta=2.0)
        expected = sum(
            0.7 * np.sum((P.block(m).T @ ds.views[m]) ** 2) for m in range(2))
        assert mv.reconstruction_penalty(P, ds, W, h) == pytest.approx(expected)

    def test_identity_coefficients(self):
        ds, P, _ = random_instance(1)
        W = mv.CoefficientSet([np.eye(5), np.eye(5)])
        h = uniform_hyper(alpha=3.0, beta=0.5)
        assert mv.reconstruction_penalty(P, ds, W, h) == pytest.approx(
            2 * 0.5 * 5.0)

    def test_matches_bruteforce_oracle(self):
        for seed in range(10):
            ds, P, W = random_instance(seed + 200)
            h = uniform_hyper(alpha=1.3, beta=0.2)
            assert mv.reconstruction_penalty(P, ds, W, h) == pytest.approx(
                naive_reconstruction(P, ds, W, h), rel=1e-10)


class TestTotalLoss:
    def test_lambda_zero_limit(self):
        # lam must stay positive; a tiny lam approaches the sample-level term
        ds, P, W = random_instance(3)
        h = uniform_hyper(lam=1e-300)
        assert mv.total_loss(P, W, ds, h) == pytest.approx(
            mv.sample_infonce(P, ds, h), rel=1e-12)

    def test_composition(self):
        for seed in range(10):
            ds, P, W = random_instance(seed + 300)
            h = uniform_hyper(lam=1.7, alpha=0.4, beta=2.2)
            expected = (mv.sample_infonce(P, ds, h)
                        + 1.7 * (mv.structural_contrastive(W, h)
                                 + mv.reconstruction_penalty(P, ds, W, h)))
            assert mv.total_loss(P, W, ds, h) == pytest.approx(expected, rel=1e-12)

    def test_alpha_beta_small_reduces_to_contrastive_parts(self):
        ds, P, W = random_instance(4)
        h = uniform_hyper(lam=1.0, alpha=1e-300, beta=1e-300)
        expected = mv.sample_infonce(P, ds, h) + mv.structural_contrastive(W, h)
        assert mv.total_loss(P, W, ds, h) == pytest.approx(expected, rel=1e-10)

    def test_continuity_in_parameters(self):
        # secant slopes at two step sizes agree to first order
        ds, P, W = random_instance(5)
        h = uniform_hyper()
        base = mv.total_loss(P, W, ds, h)
        deltas = []
        for step in (1e-4, 1e-5):
            P2 = mv.ProjectionStack(P=P.P.copy(), view_dims=ds.view_dims)
            P2.P[1, 0] += step
            deltas.append((mv.total_loss(P2, W, ds, h) - base) / step)
        assert deltas[0] == pytest.approx(deltas[1], rel=1e-2, abs=1e-8)

    def test_stabilized_matches_naive_when_safe(self):
        # large 1/tau pushes raw exp high but not to overflow
        ds, P, W = random_instance(6)
        h = uniform_hyper(tau1=0.01, tau2=0.01)
        assert mv.sample_infonce(P, ds, h) == pytest.approx(
            naive_sample_infonce(P, ds, h), rel=1e-12)
        assert mv.structural_contrastive(W, h) == pytest.approx(
            naive_structural(W, h), rel=1e-12)
