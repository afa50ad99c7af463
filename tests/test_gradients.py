import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.errors import NumericError
from mvcontrast.cli import gradcheck_instance
from mvcontrast import losses
from mvcontrast.gradients import (check_gradients, column_context, cosine_backward,
                                  grad_P, grad_w, view_subobjectives)
from oracles import (fd_gradient, naive_w_subobjective, per_column_check,
                     per_column_grad_w, random_instance, reconstruction_grad_P)


def hyper(**kw):
    base = dict(d=2, lam=1.0, alpha=1.0, beta=1.0, tau1=1.0, tau2=1.0)
    base.update(kw)
    return mv.Hyperparams(**base)


def total_loss_at(p, P, W, ds, h):
    """total_loss with the stacked projection replaced by the flat p."""
    return mv.total_loss(mv.ProjectionStack(p.reshape(P.P.shape), ds.view_dims),
                         W, ds, h)


def ridge_gradient(i, m, w, P, ds, h):
    """2 alpha B^T (B w - B_i) + 2 beta w with B = P_m^T X^m: the gradient
    of the alpha and beta terms of column i's partial objective, in closed
    form."""
    B = P.block(m).T @ ds.views[m]
    return 2.0 * h.alpha * B.T @ (B @ w - B[:, i]) + 2.0 * h.beta * w


def many_seed_instances():
    """(seed, (ds, P, W, h)) for 20 small instances of 2 or 3 views."""
    for seed in range(20):
        n = 3 + seed % 4
        V = 2 + seed % 2
        dims = tuple(2 + (seed + j) % 4 for j in range(V))
        d = 1 + seed % 3
        if d > min(dims):
            d = min(dims)
        ds, P, W = random_instance(seed + 500, n=n, V=V, dims=dims, d=d)
        yield seed, (ds, P, W, hyper(d=d, tau1=0.9, tau2=1.1, alpha=0.3, beta=0.1))


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


class TestWSubobjective:
    def test_matches_nested_loop(self):
        for seed in range(6):
            V = 2 + seed % 2
            n = 2 + seed
            ds, P, W = random_instance(seed + 30, n=n, V=V, dims=(3,) * V)
            h = hyper(tau2=[0.5, 1.0, 2.0][seed % 3], alpha=0.7, beta=0.4)
            rng = np.random.default_rng(seed)
            for m in range(V):
                # column i is the i-th draw of n
                Wm = rng.normal(size=(n, n)).T
                values = view_subobjectives(m, Wm, P, W, ds, h)
                for i in range(n):
                    assert values[i] == pytest.approx(
                        naive_w_subobjective(i, m, Wm[:, i], P, ds, W, h), rel=1e-12)

    @pytest.mark.parametrize("V, n", [(3, 6), (2, 75)])
    def test_column_perturbation_is_local(self, V, n):
        # check_gradients probes every column of a view in one call, which
        # holds only if moving column j leaves every other entry's bits alone
        ds, P, W = random_instance(40 + V, n=n, V=V, dims=(4, 3, 5)[:V])
        h = hyper(tau2=0.7, alpha=0.6, beta=0.2)
        rng = np.random.default_rng(n)
        for m in range(V):
            base = view_subobjectives(m, W.W[m], P, W, ds, h)
            for j in range(n):
                Wm = W.W[m].copy()
                Wm[:, j] += rng.normal(size=n)
                values = view_subobjectives(m, Wm, P, W, ds, h)
                rest = np.arange(n) != j
                assert np.array_equal(values[rest], base[rest])
                assert values[j] != base[j]


class TestGradW:
    def test_ridge_stationary_point(self):
        # the alpha and beta terms form a ridge regression; at its closed-form
        # solution grad_w less the ridge gradient is the contrastive part
        # alone, which alpha = beta ~ 0 isolates
        ds, P, W = random_instance(0)
        h = hyper(alpha=0.8, beta=0.3)
        i, m = 2, 0
        B = P.block(m).T @ ds.views[m]
        n = ds.n
        w_star = np.linalg.solve(B.T @ B + (h.beta / h.alpha) * np.eye(n),
                                 B.T @ B[:, i])
        W.W[m][:, i] = w_star
        ridge = ridge_gradient(i, m, w_star, P, ds, h)
        assert np.max(np.abs(ridge)) < 1e-9
        g_contrastive = grad_w(i, m, P, W, ds, hyper(alpha=1e-300, beta=1e-300))
        g = grad_w(i, m, P, W, ds, h) - ridge - g_contrastive
        assert np.max(np.abs(g)) < 1e-9

    def test_matches_finite_differences(self):
        ds, P, W = random_instance(7, n=5, V=2, dims=(4, 3), d=2)
        h = hyper(tau2=0.8, alpha=0.6, beta=0.2)
        for m in range(2):
            for i in range(5):
                analytic = grad_w(i, m, P, W, ds, h)
                numeric = fd_gradient(
                    lambda w: naive_w_subobjective(i, m, w, P, ds, W, h),
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
                g_contrastive = g_full - ridge_gradient(i, m, w, P, ds, h)
                proj = abs(g_contrastive @ w)
                assert proj <= 1e-6 * np.linalg.norm(g_contrastive) * np.linalg.norm(w) + 1e-12

    def test_contrastive_ignores_unrelated_same_view_columns(self):
        ds, P, W = random_instance(9)
        h = hyper(alpha=1e-300, beta=1e-300)
        i, m = 1, 0
        g1 = grad_w(i, m, P, W, ds, h)
        W2 = mv.CoefficientSet([w.copy() for w in W.W])
        for k in range(ds.n):
            if k != i:
                W2.W[m][:, k] = 0.0
        g2 = grad_w(i, m, P, W2, ds, h)
        assert np.allclose(g1, g2, atol=1e-12)

    @pytest.mark.parametrize("V", [2, 3])
    @pytest.mark.parametrize("tau2", [0.2, 1.0, 3.0])
    def test_column_context_matches_per_column_oracle(self, V, tau2):
        dims = (4, 3, 5)[:V]
        ds, P, W = random_instance(21 + V, n=6, V=V, dims=dims)
        W.W[0][:, 3] = 0.0
        h = hyper(tau2=tau2, alpha=0.7, beta=0.4)
        for m in range(V):
            G = column_context(m, P, W, ds, h)
            for i in range(W.n):
                ref = per_column_grad_w(i, m, P, W, ds, h)
                assert np.linalg.norm(G[:, i] - ref) <= 1e-12 * np.linalg.norm(ref)
                assert np.array_equal(grad_w(i, m, P, W, ds, h, ctx=G), G[:, i])


class TestCosineBackward:
    def test_matches_finite_differences(self):
        # the gradients of <omega, S(A, B)>; a zero column's norm is not
        # smooth, so its central difference is off by about step ||b|| /
        # norm_eps, which norm_eps = 1 keeps below the tolerance
        rng = np.random.default_rng(5)
        A, B, omega = (rng.normal(size=shape) for shape in ((4, 5), (4, 6), (5, 6)))
        A[:, 2] = 0.0
        B[:, 4] = 0.0
        tau, norm_eps = 0.7, 1.0
        na, nb = np.linalg.norm(A, axis=0), np.linalg.norm(B, axis=0)
        S, spent = losses.similarity(A, B, na, nb, tau, norm_eps), omega.copy()
        ra, rb = cosine_backward(S, spent, na, nb, tau, norm_eps)

        def value(a, b):
            return float(np.sum(omega * losses.sim_matrix(a, b, tau, norm_eps)))

        for analytic, numeric in [
                (B @ spent.T - A * ra,
                 fd_gradient(lambda a: value(a.reshape(A.shape), B), A.ravel(), 1e-6)),
                (A @ spent - B * rb,
                 fd_gradient(lambda b: value(A, b.reshape(B.shape)), B.ravel(), 1e-6))]:
            assert np.max(np.abs(analytic.ravel() - numeric)) < 1e-5 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("V", [2, 3])
    def test_column_context_uses_the_structural_similarity(self, monkeypatch, V):
        # each S column_context builds is the one structural_contrastive
        # builds for the pair (v, m), bit for bit, a zero column included
        ds, P, W = random_instance(60 + V, n=7, V=V, dims=(4, 3, 5)[:V])
        h = hyper(tau2=0.6)
        true_similarity, built = losses.similarity, []

        def spy(*args, **kwargs):
            S = true_similarity(*args, **kwargs)
            built.append(S.copy())
            return S

        for m in range(V):
            W.W[m][:, m + 1] = 0.0
            expected = [losses.sim_matrix(W.W[v], W.W[m], h.tau2, h.norm_eps)
                        for v in range(V) if v != m]
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(losses, "similarity", spy)
                column_context(m, P, W, ds, h)
            assert len(built) == V - 1
            assert all(np.array_equal(S, ref) for S, ref in zip(built, expected))


class TestGradP:
    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction_matches_product_form(self, seed):
        # grad_P at alpha ~ 0 is the contrastive part alone, bit for bit, so
        # the difference from the full gradient is the reconstruction part
        V = 2 + seed % 2
        ds, P, W = random_instance(600 + seed, n=4 + seed, V=V, dims=(3, 4, 5)[:V])
        h = hyper(alpha=0.8, lam=1.3)
        full = grad_P(P, W, ds, h)
        expected = grad_P(P, W, ds, hyper(alpha=1e-300, lam=1.3)) + \
            reconstruction_grad_P(P, W, ds, h)
        assert np.linalg.norm(full - expected) <= 1e-12 * np.linalg.norm(full)

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

        true_context = gr.column_context

        def broken(*args, **kwargs):
            G = true_context(*args, **kwargs)
            G[0] *= 1.5
            return G

        monkeypatch.setattr(gr, "column_context", broken)
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
        assert report.worst_block == ("P",)

    def test_corrupted_column_gradient_named(self, monkeypatch):
        ds, P, W = random_instance(18, n=6, V=3, dims=(4, 3, 5))
        import mvcontrast.gradients as gr

        true_context = gr.column_context

        def broken(m, *args, **kwargs):
            G = true_context(m, *args, **kwargs)
            if m == 2:
                G[0] *= 1.5
            return G

        monkeypatch.setattr(gr, "column_context", broken)
        report = gr.check_gradients(P, W, ds, hyper(), step=1e-6)
        assert report.max_rel_err > 1e-2
        assert report.worst_block[:2] == ("w", 2)

    def test_nonfinite_probe_raises(self, monkeypatch):
        ds, P, W = random_instance(19)
        import mvcontrast.gradients as gr

        monkeypatch.setattr(gr, "view_subobjectives",
                            lambda m, Wm, *args: np.full(Wm.shape[1], np.nan))
        with pytest.raises(NumericError, match=r"\('w', 0, 0\)"):
            gr.check_gradients(P, W, ds, hyper(), step=1e-6)

    def test_reports_are_deterministic(self):
        ds, P, W = random_instance(20, n=6, V=3, dims=(4, 3, 5))
        first = check_gradients(P, W, ds, hyper(), step=1e-6)
        assert check_gradients(P, W, ds, hyper(), step=1e-6) == first

    def test_wide_instance_passes(self):
        ds, P, W = gradcheck_instance(1, n=600, V=3, dims=(5, 4, 6), d=3)
        report = check_gradients(P, W, ds, hyper(d=3), step=1e-6)
        assert report.max_rel_err <= 1e-4, report

    def test_error_curve_truncation_dominates_at_large_step(self):
        ds, P, W = random_instance(16)
        errs = [check_gradients(P, W, ds, hyper(), step=s).max_rel_err
                for s in (1e-3, 1e-6)]
        # truncation error at 1e-3 clearly exceeds the round-off level at 1e-6
        assert errs[0] > errs[1]

    def test_many_seeds(self):
        for seed, (ds, P, W, h) in many_seed_instances():
            report = check_gradients(P, W, ds, h, step=1e-6)
            assert report.max_rel_err <= 1e-4, f"seed {seed}: {report}"

    def test_matches_per_column_reference(self):
        # worst_block is not compared: columns whose scores tie at round-off
        # level may be named in either order
        for seed, (ds, P, W, h) in many_seed_instances():
            report = check_gradients(P, W, ds, h, step=1e-6)
            ref_err = per_column_check(P, W, ds, h, step=1e-6)[0]
            assert abs(report.max_rel_err - ref_err) <= 1e-8, f"seed {seed}"

