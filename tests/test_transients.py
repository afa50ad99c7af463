"""The optimizer's n x n intermediates and 1-NN's distances live in reused
buffers.

Each rewritten function must equal its allocating form in tests/oracles.py
bit for bit, a fit run through those forms must equal the library's fit,
and the peak memory a layer allocates is bounded in units of one n x n
float64 matrix.  1-NN computes its distances one block of test samples at a
time and must equal the one-call product over the whole test set.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast import evaluation, gradients, losses, trainer
from oracles import (alloc_column_context, alloc_grad_P, alloc_logsumexp,
                     alloc_sample_infonce, alloc_sample_logits, alloc_sim_matrix,
                     alloc_sq_distances, alloc_structural_contrastive,
                     alloc_sweep_W, random_instance)

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
        assert np.array_equal(losses.sim_matrix(W.W[0], W.W[1], h.tau2, h.norm_eps),
                              alloc_sim_matrix(W.W[0], W.W[1], h.tau2, h.norm_eps))
        for m in range(V):
            others, logits, pos = losses.sample_logits(Y, m, h)
            ref_others, ref_logits, ref_pos = alloc_sample_logits(Y, m, h)
            assert others == ref_others
            assert np.array_equal(logits, ref_logits) and np.array_equal(pos, ref_pos)
        assert np.array_equal(losses.row_logsumexp(logits),
                              alloc_logsumexp(logits, axis=1))

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

    @pytest.mark.parametrize("rows", (1, 2, 7))
    @pytest.mark.parametrize("V,n,seed", [case for case in CASES if case[1] > 2])
    def test_gradients_in_row_blocks(self, monkeypatch, V, n, seed, rows):
        """The similarity, the losses and the gradients form Q and sum the
        softmax denominators one block of rows at a time; blocks of `rows`
        rows of Q (at least two, and fewer of the n x (V-1)n logits), a
        partial last block included, change no bit."""
        monkeypatch.setattr(losses, "_BLOCK_BYTES", 8 * n * rows)
        ds, P, W, h = instance(V, n, seed)
        Y = losses.view_embeddings(P, ds)
        assert np.array_equal(losses.sim_matrix(W.W[0], W.W[1], h.tau2, h.norm_eps),
                              alloc_sim_matrix(W.W[0], W.W[1], h.tau2, h.norm_eps))
        for m in range(V):
            _, logits, pos = losses.sample_logits(Y, m, h)
            _, ref_logits, ref_pos = alloc_sample_logits(Y, m, h)
            assert np.array_equal(logits, ref_logits) and np.array_equal(pos, ref_pos)
            assert np.array_equal(losses.row_logsumexp(logits),
                                  alloc_logsumexp(logits, axis=1))
        assert mv.sample_infonce(P, ds, h) == alloc_sample_infonce(P, ds, h)
        assert mv.structural_contrastive(W, h) == alloc_structural_contrastive(W, h)
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


def block_rows(n_train):
    """Test samples in one of 1-NN's distance blocks."""
    return max(2, losses._BLOCK_BYTES // (8 * n_train))


def blocked_distances(train, test):
    """The distance blocks 1-NN computes, gathered into one array."""
    D = np.full((test.shape[1], train.shape[1]), np.nan)
    for start, block in evaluation._distance_blocks(train, test):
        D[start:start + len(block)] = block
    return D


def nearest_of(train, test):
    """True iff knn_accuracy picks the one-call distances' argmins: with
    training labels 0..n_train-1 and those argmins as test labels, it
    scores 1.0 exactly when every prediction is that argmin."""
    want = np.argmin(alloc_sq_distances(train, test), axis=1)
    return mv.knn_accuracy(train, np.arange(train.shape[1]), test, want) == 1.0


class TestBlockedDistances:
    # n_test at one sample, around one block (B-1, B, B+1, whose last block
    # would hold one row) and over several blocks with a partial last one
    N_TEST = {"1": lambda B: 1, "B-1": lambda B: B - 1, "B": lambda B: B,
              "B+1": lambda B: B + 1, "3B+7": lambda B: 3 * B + 7}

    @pytest.mark.parametrize("which", N_TEST)
    @pytest.mark.parametrize("n_train", (1, 5, 80, 700))
    @pytest.mark.parametrize("d", (1, 3, 4, 8))
    def test_equal_one_call_product(self, d, n_train, which):
        n_test = self.N_TEST[which](block_rows(n_train))
        rng = np.random.default_rng([d, n_train, n_test])
        train, test = rng.normal(size=(d, n_train)), rng.normal(size=(d, n_test))
        assert np.array_equal(blocked_distances(train, test),
                              alloc_sq_distances(train, test))
        assert nearest_of(train, test)

    def test_argmins_above_the_blas_kernel_switch(self):
        """n_test x n_train x d = 1.12e7, past the 10^6 at which OpenBLAS
        takes another gemm kernel for the whole product than for one block.
        There the blocked distances may differ from the one-call product by
        one rounding, so only the argmins are compared."""
        rng = np.random.default_rng(700)
        train, test = rng.normal(size=(8, 700)), rng.normal(size=(8, 2000))
        assert nearest_of(train, test)

    @pytest.mark.parametrize("n_train", (5, 80, 700))
    def test_ties_across_block_boundaries_go_to_smallest_index(self, n_train):
        B = block_rows(n_train)
        rng = np.random.default_rng(n_train)
        train, test = rng.normal(size=(3, n_train)), rng.normal(size=(3, 2 * B + 1))
        train[:, -1] = train[:, 1]
        # samples equal to the duplicated column on both sides of the first
        # boundary, and as the one-row tail
        tied = [B - 2, B - 1, B, B + 1, 2 * B]
        test[:, tied] = train[:, 1:2]
        want = alloc_sq_distances(train, test)
        assert np.array_equal(blocked_distances(train, test), want)
        assert np.all(np.argmin(want, axis=1)[tied] == 1)
        assert nearest_of(train, test)

    @pytest.mark.parametrize("bad", [1e308, np.inf, np.nan])
    def test_non_finite_only_in_last_block_raises(self, bad):
        # 1e308 is finite, but 2 * te.tr overflows against entries above 1
        B = block_rows(80)
        rng = np.random.default_rng(8)
        train, test = rng.normal(size=(4, 80)), rng.normal(size=(4, 3 * B + 7))
        train[1, 0] = 2.0
        test[1, -1] = bad
        with pytest.raises(mv.NumericError, match="1-NN distances"):
            mv.knn_accuracy(train, np.zeros(80, int), test, np.zeros(3 * B + 7, int))


def peak_over_start(call):
    """Peak bytes traced during `call` above those traced when it starts,
    including what it returns."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - start


def layer_units():
    """Each optimizer layer's traced peak at n=300, V=3, in units of one
    n x n float64 matrix (column_context's the largest over the views)."""
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
            "sweep_W": peak_over_start(lambda: mv.sweep_W(state, ds, h)),
        }
    finally:
        tracemalloc.stop()
    return {name: peak / (8.0 * n * n) for name, peak in peaks.items()}


class TestTransientMemory:
    # in units of one n x n float64 matrix, at n=300, V=3: the n x (V-1)n
    # logits, G and one block of rows of Q for grad_P; the logits for
    # sample_infonce; S for the structural term; G, S and C for
    # column_context and the sweep.  The excess over those counts is the
    # 256 KiB row blocks and numpy's buffers.
    BOUNDS = {"grad_P": 4.0, "sample_infonce": 2.9, "structural_contrastive": 1.75,
              "column_context": 3.75, "sweep_W": 3.75}

    def test_layer_peaks(self):
        units = layer_units()
        assert all(units[name] <= bound for name, bound in self.BOUNDS.items()), units

    def test_holding_a_full_q_per_pair_fails(self, monkeypatch):
        # Q rebuilt whole instead of in row blocks, and each pair's Q kept
        # for the rest of the layer's call
        monkeypatch.setattr(losses, "_BLOCK_BYTES", 1 << 62)
        true_sim_matrix, held = losses.sim_matrix, []

        def holding_q(A, B, tau, norm_eps, out=None):
            held.append(np.outer(np.linalg.norm(A, axis=0),
                                 np.linalg.norm(B, axis=0)) + norm_eps)
            return true_sim_matrix(A, B, tau, norm_eps, out=out)

        monkeypatch.setattr(losses, "sim_matrix", holding_q)
        units = layer_units()
        assert all(units[name] > bound for name, bound in self.BOUNDS.items()), units

    def test_knn_accuracy_peak(self):
        # the one-call distances peaked at two 20000 x 80 arrays, 25.6 MB
        rng = np.random.default_rng(0)
        train, test = rng.normal(size=(4, 80)), rng.normal(size=(4, 20000))
        labels = rng.integers(0, 4, size=20080)
        tracemalloc.start()
        try:
            peak = peak_over_start(
                lambda: mv.knn_accuracy(train, labels[:80], test, labels[80:]))
        finally:
            tracemalloc.stop()
        assert peak <= 25.6e6 / 8, peak

    def test_fixed_model_protocol_copies_no_test_view(self):
        ds = mv.synth_blobs(2, 4, 5000, [64, 48], 2.0, 0)
        rng = np.random.default_rng(1)
        model = trainer.Model(projections=[rng.normal(size=(64, 4)),
                                           rng.normal(size=(48, 4))],
                              hyper=mv.Hyperparams(d=4), meta={})
        test_view_bytes = (ds.n - 4 * 5) * 48 * 8  # the smaller view at M=5
        tracemalloc.start()
        try:
            peak = peak_over_start(lambda: mv.run_experiment(
                ds, mv.Hyperparams(d=4), M=5, repeats=2, base_seed=1,
                fixed_model=model))
        finally:
            tracemalloc.stop()
        assert peak < test_view_bytes, (peak, test_view_bytes)
