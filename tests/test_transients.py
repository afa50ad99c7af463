"""The optimizer's n x n intermediates live in reused buffers.

Each rewritten function must equal its allocating form in tests/oracles.py
bit for bit, a fit run through those forms must equal the library's fit,
and the peak memory a layer allocates is bounded in units of one n x n
float64 matrix.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast import gradients, losses, trainer
from oracles import (alloc_column_context, alloc_grad_P, alloc_logsumexp,
                     alloc_sample_infonce, alloc_sample_logits, alloc_sim_matrix,
                     alloc_structural_contrastive, alloc_sweep_W, random_instance)

# (V, n) cover one, two, nine and forty samples at two, three and four views
CASES = [(V, n, seed) for seed, (V, n) in
         enumerate(itertools.product((2, 3, 4), (1, 2, 9, 40)))]
C6_HYPER = dict(gamma=0.01, tol=1e-9, alpha=1e-3, beta=1e-3, tau1=0.3, tau2=0.3)


def instance(V, n, seed):
    dims = (4, 3, 5, 6)[:V]
    ds, P, W = random_instance(700 + seed, n=n, V=V, dims=dims, d=2)
    if n > 1:
        W.W[seed % V][:, n // 2] = 0.0  # a zero column meets the norm floors
    rng = np.random.default_rng(seed)
    h = mv.Hyperparams(d=2, lam=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.1, 1.0),
                       beta=rng.uniform(0.1, 1.0), tau1=rng.uniform(0.2, 2.0),
                       tau2=rng.uniform(0.2, 2.0), norm_eps=1e-12)
    return ds, P, W, h


class TestBitIdenticalToAllocatingForms:
    @pytest.mark.parametrize("V,n,seed", CASES)
    def test_similarity_and_pairing(self, V, n, seed):
        ds, P, W, h = instance(V, n, seed)
        Y = losses.view_embeddings(P, ds)
        for got, want in zip(losses.sim_matrix(W.W[0], W.W[1], h.tau2, h.norm_eps),
                             alloc_sim_matrix(W.W[0], W.W[1], h.tau2, h.norm_eps)):
            assert np.array_equal(got, want)
        for m in range(V):
            others, sims, logits, pos = losses.sample_logits(Y, m, h)
            ref_others, ref_sims, ref_logits, ref_pos = alloc_sample_logits(Y, m, h)
            assert others == ref_others
            assert np.array_equal(logits, ref_logits) and np.array_equal(pos, ref_pos)
            for (S, Q), (ref_S, ref_Q) in zip(sims, ref_sims):
                assert np.array_equal(S, ref_S) and np.array_equal(Q, ref_Q)
        for axis in (None, 0, 1):
            assert np.array_equal(losses.logsumexp(logits, axis=axis),
                                  alloc_logsumexp(logits, axis=axis))

    @pytest.mark.parametrize("V,n,seed", CASES)
    def test_losses(self, V, n, seed):
        ds, P, W, h = instance(V, n, seed)
        assert mv.sample_infonce(P, ds, h) == alloc_sample_infonce(P, ds, h)
        assert mv.structural_contrastive(W, h) == alloc_structural_contrastive(W, h)

    @pytest.mark.parametrize("V,n,seed", CASES)
    def test_gradients(self, V, n, seed):
        ds, P, W, h = instance(V, n, seed)
        assert np.array_equal(mv.grad_P(P, W, ds, h), alloc_grad_P(P, W, ds, h))
        for m in range(V):
            assert np.array_equal(gradients.column_context(m, P, W, ds, h),
                                  alloc_column_context(m, P, W, ds, h))

    @pytest.mark.parametrize("V,n,seed", CASES)
    def test_sweep(self, V, n, seed):
        ds, _, _, h = instance(V, n, seed)
        ours, ref = (mv.init_state(ds, h, seed) for _ in range(2))
        for _ in range(2):
            mv.sweep_W(ours, ds, h)
            alloc_sweep_W(ref, ds, h)
        assert ours.last_max_step == ref.last_max_step
        for m in range(V):
            assert np.array_equal(ours.W.W[m], ref.W.W[m])
            for a, b in zip(ours.adam_W[m], ref.adam_W[m]):
                assert np.array_equal(a.m1, b.m1) and np.array_equal(a.m2, b.m2)

    def test_fit_through_allocating_forms(self, monkeypatch):
        ds = mv.synth_blobs(3, 3, 8, [5, 4, 6], 0.5, 3)
        h = mv.Hyperparams(d=3, max_iters=60, **dict(C6_HYPER, tol=1e-300))
        _, ours = mv.fit(ds, h, seed=7)
        for module, name, ref in [
                (losses, "sim_matrix", alloc_sim_matrix),
                (losses, "sample_logits", alloc_sample_logits),
                (losses, "sample_infonce", alloc_sample_infonce),
                (losses, "structural_contrastive", alloc_structural_contrastive),
                (gradients, "column_context", alloc_column_context),
                (gradients, "grad_P", alloc_grad_P),
                (trainer, "sweep_W", alloc_sweep_W)]:
            monkeypatch.setattr(module, name, ref)
        _, ref = mv.fit(ds, h, seed=7)
        assert ours.iter == ref.iter == 60
        assert np.array_equal(ours.P.P, ref.P.P)
        assert all(np.array_equal(a, b) for a, b in zip(ours.W.W, ref.W.W))
        assert ours.loss_history == ref.loss_history


def peak_over_start(call):
    """Peak bytes traced during `call` above those traced when it starts,
    including what it returns."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - start


class TestTransientMemory:
    # in units of one n x n float64 matrix, at n=300, V=3; the bounds of the
    # layers other than grad_P are the allocating forms' peaks at n=600
    BOUNDS = {"grad_P": 9.0, "sample_infonce": 8.05,
              "structural_contrastive": 4.0, "column_context": 6.0}

    def test_layer_peaks(self):
        n = 300
        ds = mv.synth_blobs(3, 4, n // 4, [40, 32, 24], 1.0, 0)
        h = mv.Hyperparams(d=8, **C6_HYPER)
        tracemalloc.start()
        try:
            state = mv.init_state(ds, h, 0)
            P, W = state.P, state.W
            peaks = {
                "grad_P": peak_over_start(lambda: mv.grad_P(P, W, ds, h)),
                "sample_infonce": peak_over_start(lambda: mv.sample_infonce(P, ds, h)),
                "structural_contrastive": peak_over_start(
                    lambda: mv.structural_contrastive(W, h)),
                "column_context": max(
                    peak_over_start(lambda: gradients.column_context(m, P, W, ds, h))
                    for m in range(ds.V)),
            }
        finally:
            tracemalloc.stop()
        units = {name: peak / (8.0 * n * n) for name, peak in peaks.items()}
        assert all(units[name] <= bound for name, bound in self.BOUNDS.items()), units
