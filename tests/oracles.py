"""Independent brute-force reference implementations for the tests.

Everything here is written as plain nested loops with naive exp/log, on
purpose: these functions arbitrate the vectorized, log-sum-exp-stabilized
library code and must not share any of its structure.  The one exception
is `per_column_sweep`, the reference W sweep: it drives the library's own
grad_w and adam_step column by column, so that a sweep sharing work across
columns can be compared with it bit for bit.
"""

import math

import numpy as np


def naive_cosine(u, v, tau, norm_eps=0.0):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / ((nu * nv + norm_eps) * tau)


def naive_sample_infonce(P, ds, h):
    """Term-by-term enumeration of every (anchor, positive, negative) pair."""
    V = ds.V
    n = ds.n
    Y = []
    for m in range(V):
        o = P.offsets[m]
        Pm = P.P[o:o + ds.view_dims[m], :]
        Y.append(Pm.T @ ds.views[m])
    total = 0.0
    for m in range(V):
        acc = 0.0
        for i in range(n):
            pos = 0.0
            neg = 0.0
            for v in range(V):
                if v == m:
                    continue
                for k in range(n):
                    e = math.exp(naive_cosine(Y[m][:, i], Y[v][:, k],
                                              h.tau1, h.norm_eps))
                    if k == i:
                        pos += e
                    else:
                        neg += e
            acc += -math.log(pos / (pos + neg))
        total += acc / n
    return total


def naive_structural(W, h):
    V = len(W.W)
    n = W.W[0].shape[0]
    total = 0.0
    for m in range(V):
        for v in range(V):
            if v == m:
                continue
            acc = 0.0
            for i in range(n):
                num = math.exp(naive_cosine(W.W[m][:, i], W.W[v][:, i],
                                            h.tau2, h.norm_eps))
                den = 0.0
                for k in range(n):
                    den += math.exp(naive_cosine(W.W[m][:, i], W.W[v][:, k],
                                                 h.tau2, h.norm_eps))
                acc += -math.log(num / den)
            total += acc / n
    return total


def naive_w_subobjective(i, m, w, P, ds, W, h):
    """The partial objective of column w_i^m, one cosine at a time."""
    value = 0.0
    for v in range(len(W.W)):
        if v == m:
            continue
        den = 0.0
        for k in range(W.W[v].shape[1]):
            den += math.exp(naive_cosine(w, W.W[v][:, k], h.tau2, h.norm_eps))
        value += math.log(den) - naive_cosine(w, W.W[v][:, i], h.tau2, h.norm_eps)
    o = P.offsets[m]
    B = P.P[o:o + ds.view_dims[m], :].T @ ds.views[m]
    for r in range(B.shape[0]):
        fit = sum(B[r, k] * w[k] for k in range(len(w)))
        value += h.alpha * (B[r, i] - fit) ** 2
    value += h.beta * sum(x * x for x in w)
    return value


def naive_alignment(W):
    """Mean cosine between same-sample columns over ordered view pairs,
    one column pair at a time."""
    values = []
    for m in range(len(W.W)):
        for v in range(len(W.W)):
            if v == m:
                continue
            for i in range(W.W[m].shape[1]):
                values.append(naive_cosine(W.W[m][:, i], W.W[v][:, i],
                                           tau=1.0, norm_eps=1e-12))
    return sum(values) / len(values)


def naive_reconstruction(P, ds, W, h):
    total = 0.0
    for m in range(ds.V):
        o = P.offsets[m]
        Pm = P.P[o:o + ds.view_dims[m], :]
        Ym = Pm.T @ ds.views[m]
        R = Ym - Ym @ W.W[m]
        frob_r = 0.0
        for row in R:
            for x in row:
                frob_r += x * x
        frob_w = 0.0
        for row in W.W[m]:
            for x in row:
                frob_w += x * x
        total += h.alpha * frob_r + h.beta * frob_w
    return total


def naive_scatter(Wm):
    n = Wm.shape[0]
    S = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            wwT = sum(Wm[i, j] * Wm[k, j] for j in range(n))
            S[i, k] = Wm[i, k] + Wm[k, i] - wwT
    return S


def per_column_sweep(state, ds, h):
    """The W sweep with no shared column context: every grad_w call builds
    its own B_m and column norms, as the library did before `column_context`.
    """
    from mvcontrast.errors import NumericError
    from mvcontrast.gradients import grad_w
    from mvcontrast.trainer import adam_step

    W = state.W
    max_step = 0.0
    for m in range(W.V):
        for i in range(W.n):
            try:
                g = grad_w(i, m, state.P, W, ds, h)
                new_col, state.adam_W[m][i] = adam_step(
                    W.W[m][:, i], g, state.adam_W[m][i], h)
            except NumericError as exc:
                raise NumericError(f"column ({i}, view {m}): {exc}") from exc
            max_step = max(max_step, float(np.max(np.abs(new_col - W.W[m][:, i]))))
            W.W[m][:, i] = new_col
    state.last_max_step = max_step
    return state


def random_instance(seed, n=5, V=2, dims=(4, 3), d=2):
    """Random dataset + projection + coefficients for oracle comparisons."""
    import mvcontrast as mv

    rng = np.random.default_rng(seed)
    ds = mv.MultiViewDataset(views=[rng.normal(size=(dim, n)) for dim in dims])
    P = mv.ProjectionStack.from_blocks(
        [rng.normal(size=(dim, d)) for dim in dims])
    W = mv.CoefficientSet([rng.normal(size=(n, n)) for _ in range(V)])
    return ds, P, W
