import dataclasses

import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.trainer import AdamState, adam_step

from oracles import per_column_sweep, random_instance
from test_acceptance import C6_BASE_SEED, C6_M, c6_dataset, c6_hyper


def hyper(**kw):
    base = dict(d=2)
    base.update(kw)
    return mv.Hyperparams(**base)


class TestAdamStep:
    def test_first_step_scalar_trace(self):
        # m_hat = 1, v_hat = 1 after bias correction, so the step is
        # -gamma / (1 + eps)
        h = hyper(gamma=0.001, eps_adam=1e-8)
        p = np.array([0.5])
        p2, st = adam_step(p, np.array([1.0]), AdamState.zeros_like(p), h)
        assert st.t == 1
        assert p2[0] == pytest.approx(0.5 - 0.001 / (1.0 + 1e-8), rel=1e-12)

    def test_zero_gradient_fixed_point(self):
        h = hyper()
        p = np.array([1.0, -2.0])
        st = AdamState.zeros_like(p)
        for _ in range(5):
            p2, st = adam_step(p, np.zeros(2), st, h)
            assert np.array_equal(p2, p)
            p = p2

    def test_constant_positive_gradient_decreases(self):
        h = hyper()
        p = np.array([3.0])
        st = AdamState.zeros_like(p)
        p1, st = adam_step(p, np.array([0.7]), st, h)
        p2, st = adam_step(p1, np.array([0.7]), st, h)
        assert p1[0] < p[0]
        assert p2[0] < p1[0]

    def test_nonfinite_gradient_rejected(self):
        h = hyper()
        p = np.array([1.0])
        with pytest.raises(mv.NumericError):
            adam_step(p, np.array([np.nan]), AdamState.zeros_like(p), h)

    def test_moment_recursions(self):
        h = hyper(b1=0.8, b2=0.9)
        p = np.array([0.0, 0.0])
        g1 = np.array([1.0, -2.0])
        g2 = np.array([0.5, 0.5])
        _, st = adam_step(p, g1, AdamState.zeros_like(p), h)
        _, st = adam_step(p, g2, st, h)
        assert np.allclose(st.m1, 0.8 * (0.2 * g1) + 0.2 * g2)
        assert np.allclose(st.m2, 0.9 * (0.1 * g1 ** 2) + 0.1 * g2 ** 2)


class TestInitState:
    def test_orthonormal_blocks(self):
        ds = mv.synth_blobs(2, 3, 4, [6, 5], 0.5, 0)
        state = mv.init_state(ds, hyper(), seed=3)
        for m in range(2):
            Pm = state.P.block(m)
            assert np.allclose(Pm.T @ Pm, np.eye(2), atol=1e-10)

    def test_w_columns_near_uniform_and_nonzero(self):
        ds = mv.synth_blobs(2, 2, 2, [3, 3], 0.5, 0)
        state = mv.init_state(ds, hyper(), seed=3)
        n = ds.n
        for Wm in state.W.W:
            assert np.max(np.abs(Wm - 1.0 / n)) < 3.0 / n
            assert np.all(np.linalg.norm(Wm, axis=0) > 0)

    def test_views_start_with_distinct_coefficients(self):
        ds = mv.synth_blobs(2, 3, 4, [4, 4], 0.5, 0)
        state = mv.init_state(ds, hyper(), seed=1)
        assert not np.allclose(state.W.W[0], state.W.W[1])

    def test_deterministic(self):
        ds = mv.synth_blobs(2, 3, 4, [6, 5], 0.5, 0)
        s1 = mv.init_state(ds, hyper(), seed=9)
        s2 = mv.init_state(ds, hyper(), seed=9)
        assert np.array_equal(s1.P.P, s2.P.P)
        assert all(np.array_equal(a, b) for a, b in zip(s1.W.W, s2.W.W))

    def test_d_too_large(self):
        ds = mv.synth_blobs(2, 2, 3, [3, 5], 0.5, 0)
        with pytest.raises(mv.ConfigError):
            mv.init_state(ds, hyper(d=4), seed=0)

    def test_initial_loss_recorded(self):
        ds = mv.synth_blobs(2, 2, 3, [3, 3], 0.5, 0)
        state = mv.init_state(ds, hyper(), seed=0)
        assert len(state.loss_history) == 1
        assert state.loss_history[0] == pytest.approx(
            mv.total_loss(state.P, state.W, ds, hyper()))


class TestSweepW:
    def test_moves_every_column(self):
        ds = mv.synth_blobs(2, 2, 3, [4, 4], 0.5, 0)
        state = mv.init_state(ds, hyper(), seed=0)
        before = [w.copy() for w in state.W.W]
        mv.sweep_W(state, ds, hyper())
        for m in range(2):
            for i in range(ds.n):
                assert not np.array_equal(before[m][:, i], state.W.W[m][:, i])

    def test_deterministic(self):
        ds = mv.synth_blobs(2, 2, 3, [4, 4], 0.5, 0)
        h = hyper()
        s1 = mv.init_state(ds, h, seed=4)
        s2 = mv.init_state(ds, h, seed=4)
        mv.sweep_W(s1, ds, h)
        mv.sweep_W(s2, ds, h)
        assert all(np.array_equal(a, b) for a, b in zip(s1.W.W, s2.W.W))

    def test_adam_moments_persist(self):
        ds = mv.synth_blobs(2, 2, 3, [4, 4], 0.5, 0)
        h = hyper()
        state = mv.init_state(ds, h, seed=4)
        mv.sweep_W(state, ds, h)
        assert state.adam_W[0][0].t == 1
        mv.sweep_W(state, ds, h)
        assert state.adam_W[0][0].t == 2

    def test_nonfinite_column_named_once(self):
        ds = mv.synth_blobs(2, 2, 3, [4, 4], 0.5, 0)
        state = mv.init_state(ds, hyper(), seed=0)
        state.W.W[0][:, 2] = np.nan
        with pytest.raises(mv.NumericError) as exc:
            mv.sweep_W(state, ds, hyper())
        assert str(exc.value).count("(2, view 0)") == 1


def c6_training_set():
    """The training half of the criterion-6 protocol's first repeat (n=75)."""
    spec = mv.SplitSpec(per_class=C6_M, seed=C6_BASE_SEED, repeat_index=0)
    ds = c6_dataset()
    return ds.subset(mv.split(ds, spec)[0])


def rel_gap(a, b):
    """Largest entry of |a - b| over the largest entry of |b|."""
    return float(np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b)))


class TestSharedColumnContext:
    """sweep_W steps each view's columns from one gradient matrix; the oracle
    sweep computes each column's gradient as a vector formula.  The matrix
    products sum in another order, so the fits agree to rounding, not bit
    for bit."""

    @pytest.mark.parametrize("fixture", ["c6", "three-views"])
    def test_fit_matches_per_column_sweep(self, monkeypatch, fixture):
        if fixture == "c6":
            ds, h = c6_training_set(), c6_hyper()
        else:
            ds, h = mv.synth_blobs(3, 3, 8, [5, 4, 6], 0.5, 3), hyper(d=3)
        h = dataclasses.replace(h, max_iters=50, tol=1e-300)
        _, shared = mv.fit(ds, h, seed=C6_BASE_SEED)
        monkeypatch.setattr(mv.trainer, "sweep_W", per_column_sweep)
        _, oracle = mv.fit(ds, h, seed=C6_BASE_SEED)
        assert shared.iter == oracle.iter == 50
        assert all(rel_gap(a, b) <= 1e-10 for a, b in zip(shared.W.W, oracle.W.W))
        assert rel_gap(shared.P.P, oracle.P.P) <= 1e-10
        assert np.allclose(shared.loss_history, oracle.loss_history,
                           rtol=1e-10, atol=0.0)


class TestCallLayout:
    def test_counts_match_the_benchmark_closed_forms(self, monkeypatch):
        # perfbench/workloads.py fit_calls pins these counts per fit
        counts = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(mv.gradients, "grad_w")
        counting(mv.trainer, "adam_step")
        counting(mv.losses, "sim_matrix")
        counting(mv.losses, "total_loss")
        ds = mv.synth_blobs(3, 2, 3, [4, 3, 5], 0.5, 0)
        iters, V, n = 3, ds.V, ds.n
        _, state = mv.fit(ds, hyper(max_iters=iters, tol=1e-300), seed=0)
        assert state.iter == iters
        assert counts == {"grad_w": V * n * iters,
                          "adam_step": (V * n + 1) * iters,
                          "sim_matrix": V * (V - 1) * (3 * iters + 2),
                          "total_loss": iters + 1}


class TestFit:
    def test_zero_budget_returns_initialization(self):
        ds = mv.synth_blobs(2, 2, 3, [4, 4], 0.5, 0)
        h = hyper(max_iters=0)
        model, state = mv.fit(ds, h, seed=1)
        init = mv.init_state(ds, h, seed=1)
        assert state.iter == 0
        assert len(state.loss_history) == 1
        assert all(np.array_equal(a, b)
                   for a, b in zip(model.projections,
                                   [init.P.block(m) for m in range(2)]))

    def test_infinite_tolerance_single_iteration(self):
        ds = mv.synth_blobs(2, 2, 3, [4, 4], 0.5, 0)
        model, state = mv.fit(ds, hyper(tol=np.inf, max_iters=50), seed=1)
        assert state.iter == 1
        assert len(state.loss_history) == 2

    def test_loss_decreases_on_blobs(self):
        ds = mv.synth_blobs(2, 3, 10, [8, 8], 0.5, 0)
        model, state = mv.fit(ds, hyper(max_iters=60, tol=1e-9), seed=0)
        assert state.loss_history[-1] < state.loss_history[0]
        assert np.all(np.isfinite(state.loss_history))

    def test_stopping_rule_uses_stored_history(self):
        ds = mv.synth_blobs(2, 3, 10, [8, 8], 0.5, 0)
        h = hyper(tol=1e-3)
        model, state = mv.fit(ds, h, seed=0)
        if model.meta["converged"]:
            assert abs(state.loss_history[-2] - state.loss_history[-1]) <= h.tol

    def test_determinism_bit_identical(self):
        ds = mv.synth_blobs(2, 3, 6, [5, 5], 0.5, 0)
        h = hyper(max_iters=10, tol=1e-12)
        m1, s1 = mv.fit(ds, h, seed=11)
        m2, s2 = mv.fit(ds, h, seed=11)
        assert all(np.array_equal(a, b)
                   for a, b in zip(m1.projections, m2.projections))
        assert s1.loss_history == s2.loss_history

    def test_adam_step_size_bound(self):
        ds = mv.synth_blobs(2, 3, 6, [5, 5], 0.5, 0)
        h = hyper(max_iters=15, tol=1e-12)
        state = mv.init_state(ds, h, seed=2)
        for _ in range(15):
            mv.sweep_W(state, ds, h)
            assert state.last_max_step <= 2.0 * h.gamma
            from mvcontrast.gradients import grad_P
            from mvcontrast.trainer import adam_step
            g = grad_P(state.P, state.W, ds, h)
            newP, state.adam_P = adam_step(state.P.P, g, state.adam_P, h)
            assert np.max(np.abs(newP - state.P.P)) <= 2.0 * h.gamma
            state.P = mv.ProjectionStack(P=newP, view_dims=ds.view_dims)


def scaled_view0(scale):
    ds = mv.synth_blobs(2, 2, 4, [3, 3], 0.5, 0)
    return mv.MultiViewDataset(views=[ds.views[0] * scale, ds.views[1]],
                               labels=ds.labels)


class TestFitOverflow:
    """An overflow makes Adam's m2 infinite and every step 0, so the loss
    stops changing and would meet `tol` as a false convergence."""

    @pytest.mark.parametrize("kw,scale", [
        (dict(alpha=1e200), 1.0),
        (dict(beta=1e300), 1.0),
        (dict(gamma=1e300), 1.0),
        ({}, 1e150),
        (dict(tau1=1e-8, tau2=1e-8), 1.0),
    ], ids=["alpha", "beta", "gamma", "view-scale", "temperatures"])
    def test_raises_numeric_error(self, kw, scale):
        with pytest.raises(mv.NumericError, match="in iteration 1$"):
            mv.fit(scaled_view0(scale), hyper(max_iters=30, **kw), seed=0)

    def test_initial_loss_is_iteration_0(self):
        with pytest.raises(mv.NumericError, match="overflow .* in iteration 0$"):
            mv.fit(scaled_view0(1e200), hyper(max_iters=30), seed=0)

    # a step below the spacing of doubles near W and P moves nothing, so the
    # loss stays put and would meet `tol`
    @pytest.mark.parametrize("kw", [dict(gamma=1e-300), dict(eps_adam=1e300)],
                             ids=["gamma", "eps_adam"])
    def test_zero_steps_raise(self, kw):
        with pytest.raises(mv.NumericError, match="rounded to 0 in iteration 1$"):
            mv.fit(scaled_view0(1.0), hyper(**kw), seed=0)

    def test_sweep_outside_fit_raises(self):
        # no raising error state here: adam_step itself sees grad² overflow
        ds, h = scaled_view0(1.0), hyper(alpha=1e200)
        with np.errstate(all="ignore"):
            state = mv.init_state(ds, h, seed=0)
            with pytest.raises(mv.NumericError, match="adam_step"):
                mv.sweep_W(state, ds, h)


class TestModelPersistence:
    def test_roundtrip_bit_identical_embeddings(self, tmp_path):
        ds = mv.synth_blobs(2, 2, 4, [4, 3], 0.5, 0)
        model, _ = mv.fit(ds, hyper(max_iters=5, tol=1e-12), seed=0)
        mv.save_model(model, tmp_path)
        back = mv.load_model(tmp_path)
        for a, b in zip(model.projections, back.projections):
            assert np.array_equal(a, b)
        before = mv.project(model, ds)
        after = mv.project(back, ds)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))

    def test_manifest_contents(self, tmp_path):
        ds = mv.synth_blobs(2, 2, 4, [4, 3], 0.5, 0)
        model, _ = mv.fit(ds, hyper(max_iters=2, tol=1e-12), seed=3)
        mv.save_model(model, tmp_path)
        import json
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["view_names"] == model.view_names == ds.view_names
        assert manifest["view_dims"] == [4, 3]
        assert manifest["d"] == 2
        assert manifest["meta"]["seed"] == 3
        assert manifest["hyperparams"]["gamma"] == 0.001

    def test_one_name_per_projection(self, tmp_path):
        with pytest.raises(mv.ConfigError, match=r"^view names must be .*: 2 printable "
                           r"strings, .*got \['only'\]$"):
            mv.Model(projections=[np.eye(3)[:, :2], np.eye(3)[:, 1:]],
                     hyper=hyper(), meta={}, view_names=["only"])
        assert list(tmp_path.iterdir()) == []

    # a name keys its projection file, so a repeated or path-like one would
    # overwrite a file or write outside the directory; a projection of other
    # than hyper.d columns, or a non-finite one, would save a manifest that
    # load_model rejects
    @pytest.mark.parametrize("names,projections,message", [
        (["a", "a"], [np.eye(3)[:, :2]] * 2, "view names must be distinct"),
        (["../x", "b"], [np.eye(3)[:, :2]] * 2, "view names must be distinct"),
        ([], [np.eye(3)[:, :2], np.eye(3)[:, :1]],
         r"projections must be .* hyper.d=2 columns, got shapes \[\(3, 2\), \(3, 1\)\]"),
        ([], [np.eye(3)[:, :2], np.full((3, 2), np.nan)],
         "projections must be non-empty finite matrices"),
    ], ids=["repeated name", "path-like name", "mixed d", "non-finite"])
    def test_unsaveable_model_rejected(self, tmp_path, names, projections, message):
        with pytest.raises(mv.ConfigError, match=message):
            mv.save_model(mv.Model(projections=projections, hyper=hyper(), meta={},
                                   view_names=names),
                          tmp_path / "model")
        assert list(tmp_path.iterdir()) == []

    def test_view_names_default_to_the_datasets(self):
        model = mv.Model(projections=[np.eye(3)[:, :2]] * 3, hyper=hyper(), meta={})
        assert model.view_names == mv.MultiViewDataset(views=[np.eye(3)] * 3).view_names

    @pytest.mark.parametrize("fitted", [True, False], ids=["fitted", "hand-built"])
    def test_load_returns_the_saved_model(self, tmp_path, fitted):
        ds = dataclasses.replace(mv.synth_blobs(2, 2, 4, [4, 3], 0.5, 0),
                                 view_names=["rgb", "depth"])
        if fitted:
            model, _ = mv.fit(ds, hyper(max_iters=3, tol=1e-12), seed=1)
            assert model.view_names == ["rgb", "depth"]
        else:
            model = mv.Model(projections=[np.eye(4)[:, :2] / 3, np.eye(3)[:, 1:]],
                             hyper=hyper(d=2, gamma=0.1 / 3), meta={"note": "x"})
        mv.save_model(model, tmp_path)
        back = mv.load_model(tmp_path)
        assert len(back.projections) == len(model.projections)
        for a, b in zip(model.projections, back.projections):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert (back.hyper, back.meta, back.view_names) == \
            (model.hyper, model.meta, model.view_names)
