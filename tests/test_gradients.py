import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.errors import NumericError
from mvcontrast.gradients import (check_gradients, column_context,
                                  fd_gradient, grad_P, grad_w, w_subobjective)
from oracles import naive_w_subobjective, random_instance


def hyper(**kw):
    base = dict(d=2, lam=1.0, alpha=1.0, beta=1.0, tau1=1.0, tau2=1.0)
    base.update(kw)
    return mv.Hyperparams(**base)


def total_loss_at(p, P, W, ds, h):
    """total_loss with the stacked projection replaced by the flat p."""
    return mv.total_loss(mv.ProjectionStack(p.reshape(P.P.shape), ds.view_dims),
                         W, ds, h)


class TestFdGradient:
    def test_quadratic(self):
        g = fd_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]), 1e-6)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        g = fd_gradient(lambda x: 3.0, np.array([1.0, 2.0, 3.0]), 1e-6)
        assert np.array_equal(g, np.zeros(3))

    def test_bilinear(self):
        g = fd_gradient(lambda x: x[0] * x[1], np.array([3.0, 5.0]), 1e-6)
        assert np.allclose(g, [5.0, 3.0], atol=1e-7)

    def test_nonfinite_reported(self):
        def bad(x):
            return float("nan") if x[1] > 1.5 else 0.0

        with pytest.raises(NumericError, match="coordinate 1"):
            fd_gradient(bad, np.array([0.0, 1.5 - 1e-7]), 1e-6)


class TestWSubobjective:
    def test_matches_nested_loop(self):
        for seed in range(6):
            V = 2 + seed % 2
            n = 2 + seed
            ds, P, W = random_instance(seed + 30, n=n, V=V, dims=(3,) * V)
            h = hyper(tau2=[0.5, 1.0, 2.0][seed % 3], alpha=0.7, beta=0.4)
            rng = np.random.default_rng(seed)
            for m in range(V):
                for i in range(n):
                    w = rng.normal(size=n)
                    assert w_subobjective(i, m, w, P, W, ds, h) == pytest.approx(
                        naive_w_subobjective(i, m, w, P, ds, W, h), rel=1e-12)


class TestGradW:
    def test_ridge_stationary_point(self):
        # with the contrastive seam disabled the subproblem is ridge
        # regression; its closed-form solution has zero gradient
        ds, P, W = random_instance(0)
        h = hyper(alpha=0.8, beta=0.3)
        i, m = 2, 0
        B = P.block(m).T @ ds.views[m]
        n = ds.n
        w_star = np.linalg.solve(B.T @ B + (h.beta / h.alpha) * np.eye(n),
                                 B.T @ B[:, i])
        W.W[m][:, i] = w_star
        g = grad_w(i, m, P, W, ds, h, contrastive_weight=0.0)
        assert np.max(np.abs(g)) < 1e-9

    def test_matches_finite_differences(self):
        ds, P, W = random_instance(7, n=5, V=2, dims=(4, 3), d=2)
        h = hyper(tau2=0.8, alpha=0.6, beta=0.2)
        for m in range(2):
            for i in range(5):
                analytic = grad_w(i, m, P, W, ds, h)
                numeric = fd_gradient(
                    lambda w: w_subobjective(i, m, w, P, W, ds, h),
                    W.W[m][:, i], 1e-6)
                scale = max(np.max(np.abs(analytic)), 1.0)
                assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_contrastive_part_orthogonal_to_column(self):
        # cosine terms are scale-free in w, so their gradient has no
        # component along w itself
        ds, P, W = random_instance(8)
        h = hyper()
        for m in range(2):
            for i in range(5):
                w = W.W[m][:, i]
                g_full = grad_w(i, m, P, W, ds, h)
                g_quad = grad_w(i, m, P, W, ds, h, contrastive_weight=0.0)
                g_contrastive = g_full - g_quad
                proj = abs(g_contrastive @ w)
                assert proj <= 1e-6 * np.linalg.norm(g_contrastive) * np.linalg.norm(w) + 1e-12

    def test_contrastive_ignores_unrelated_same_view_columns(self):
        ds, P, W = random_instance(9)
        h = hyper(alpha=1e-300, beta=1e-300)
        i, m = 1, 0
        g1 = grad_w(i, m, P, W, ds, h)
        W2 = W.copy()
        for k in range(ds.n):
            if k != i:
                W2.W[m][:, k] = 0.0
        g2 = grad_w(i, m, P, W2, ds, h)
        assert np.allclose(g1, g2, atol=1e-12)


    def test_shared_context_bit_identical(self):
        ds, P, W = random_instance(21, n=6, V=3, dims=(4, 3, 5))
        h = hyper()
        for m in range(W.V):
            ctx = column_context(m, P, W, ds)
            for i in range(W.n):
                assert np.array_equal(grad_w(i, m, P, W, ds, h, ctx=ctx),
                                      grad_w(i, m, P, W, ds, h))


class TestGradP:
    def test_reconstruction_zero_at_identity_coefficients(self):
        ds, P, _ = random_instance(10)
        W = mv.CoefficientSet([np.eye(5), np.eye(5)])
        # suppress the contrastive part by comparing against a run with
        # alpha ~ 0: the difference isolates the reconstruction gradient
        g_full = grad_P(P, W, ds, hyper(alpha=1.0))
        g_nocon = grad_P(P, W, ds, hyper(alpha=1e-300))
        assert np.allclose(g_full, g_nocon, atol=1e-12)

    def test_matches_finite_differences(self):
        ds, P, W = random_instance(11, n=5, V=2, dims=(4, 3), d=2)
        h = hyper(tau1=0.7, alpha=0.05, lam=1.4)
        analytic = grad_P(P, W, ds, h).ravel()
        numeric = fd_gradient(
            lambda p: total_loss_at(p, P, W, ds, h),
            P.P.ravel(), 1e-6)
        scale = max(np.max(np.abs(analytic)), 1.0)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_three_views(self):
        ds, P, W = random_instance(12, n=4, V=3, dims=(3, 4, 2), d=2)
        h = hyper(alpha=0.1)
        analytic = grad_P(P, W, ds, h).ravel()
        numeric = fd_gradient(
            lambda p: total_loss_at(p, P, W, ds, h),
            P.P.ravel(), 1e-6)
        scale = max(np.max(np.abs(analytic)), 1.0)
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_contrastive_part_orthogonal_to_P(self):
        # the sample-level similarities are invariant to scaling the whole
        # stacked matrix, so <grad_contrastive, P>_F vanishes
        ds, P, W = random_instance(13)
        g_con = grad_P(P, W, ds, hyper(alpha=1e-300))
        inner = abs(float(np.sum(g_con * P.P)))
        assert inner <= 1e-6 * np.linalg.norm(g_con) * np.linalg.norm(P.P)


class TestCheckGradients:
    def test_small_instance_passes(self):
        ds, P, W = random_instance(14)
        report = check_gradients(P, W, ds, hyper(), step=1e-6)
        assert report.max_rel_err <= 1e-4

    def test_corrupted_gradient_detected(self, monkeypatch):
        ds, P, W = random_instance(15)
        import mvcontrast.gradients as gr

        true_grad_w = gr.grad_w

        def broken(i, m, P, W, ds, h, contrastive_weight=1.0):
            g = true_grad_w(i, m, P, W, ds, h, contrastive_weight)
            g[0] *= 1.5
            return g

        monkeypatch.setattr(gr, "grad_w", broken)
        report = gr.check_gradients(P, W, ds, hyper(), step=1e-6)
        assert report.max_rel_err > 1e-2

    def test_corrupted_projection_gradient_detected(self, monkeypatch):
        ds, P, W = random_instance(17)
        import mvcontrast.gradients as gr

        true_grad_P = gr.grad_P

        def broken(P, W, ds, h):
            g = true_grad_P(P, W, ds, h)
            g.flat[np.argmax(np.abs(g))] *= 1.5
            return g

        monkeypatch.setattr(gr, "grad_P", broken)
        report = gr.check_gradients(P, W, ds, hyper(), step=1e-6)
        assert report.max_rel_err > 1e-2
        assert report.worst_coordinate[0] == "P"

    def test_error_curve_truncation_dominates_at_large_step(self):
        ds, P, W = random_instance(16)
        errs = [check_gradients(P, W, ds, hyper(), step=s).max_rel_err
                for s in (1e-3, 1e-6)]
        # truncation error at 1e-3 clearly exceeds the round-off level at 1e-6
        assert errs[0] > errs[1]

    def test_many_seeds(self):
        for seed in range(20):
            n = 3 + seed % 4
            V = 2 + seed % 2
            dims = tuple(2 + (seed + j) % 4 for j in range(V))
            d = 1 + seed % 3
            if d > min(dims):
                d = min(dims)
            ds, P, W = random_instance(seed + 500, n=n, V=V, dims=dims, d=d)
            h = hyper(d=d, tau1=0.9, tau2=1.1, alpha=0.3, beta=0.1)
            report = check_gradients(P, W, ds, h, step=1e-6)
            assert report.max_rel_err <= 1e-4, f"seed {seed}: {report}"
