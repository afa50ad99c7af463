"""Independent brute-force reference implementations for the tests.

Everything here is written as plain nested loops with naive exp/log, on
purpose: these functions arbitrate the vectorized, log-sum-exp-stabilized
library code and must not share any of its structure.  The exceptions
are the per-column references for the optimizer's matrix forms:
`per_column_grad_w`, the gradient of one coefficient column as a vector
formula; `per_column_sweep`, the W sweep that steps each column from it
with the library's own adam_step; and `reconstruction_grad_P`, the
reconstruction part of grad_P through the n x n product (I - W)(I - W)^T.

The `alloc_*` functions at the end are the allocating forms of the
library's similarity, loss, gradient and sweep code: the same arithmetic in
the same order, with every intermediate a fresh array.  The library writes
those intermediates into reused buffers instead, and must match them bit
for bit.
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


def fd_gradient(f, x, step):
    """Central differences of a scalar function of a flat vector, one
    coordinate at a time."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xp[j] += step
        xm = x.copy()
        xm[j] -= step
        grad[j] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def naive_scatter(Wm):
    n = Wm.shape[0]
    S = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            wwT = sum(Wm[i, j] * Wm[k, j] for j in range(n))
            S[i, k] = Wm[i, k] + Wm[k, i] - wwT
    return S


def per_column_grad_w(i, m, P, W, ds, h):
    """Gradient of the partial objective of column w_i^m, one column at a
    time: per other view v, with q_k = ||w|| ||u_k|| + norm_eps over the
    columns u_k of W^v, d sim(w, u_k)/dw = u_k / (q_k tau) - (s_k ||u_k|| /
    (q_k ||w||)) w."""
    o = P.offsets[m]
    B = P.P[o:o + ds.view_dims[m], :].T @ ds.views[m]
    w = W.W[m][:, i]
    grad = np.zeros_like(w)
    nw = max(np.linalg.norm(w), 1e-300)
    for v in range(len(W.W)):
        if v == m:
            continue
        U = W.W[v]
        nu = np.linalg.norm(U, axis=0)
        q = nw * nu + h.norm_eps
        s = (U.T @ w) / (q * h.tau2)
        e = np.exp(s - np.max(s))
        coeff = e / e.sum()
        coeff[i] -= 1.0
        grad += (U @ (coeff / (q * h.tau2))
                 - float(np.sum(coeff * s * nu / q)) / nw * w)
    grad += 2.0 * h.alpha * (B.T @ (B @ w - B[:, i])) + 2.0 * h.beta * w
    return grad


def per_column_sweep(state, ds, h):
    """The W sweep with every column's gradient from per_column_grad_w,
    taken after the columns before it are written."""
    from mvcontrast.trainer import adam_step

    W = state.W
    max_step = 0.0
    for m in range(W.V):
        for i in range(W.n):
            g = per_column_grad_w(i, m, state.P, W, ds, h)
            new_col, state.adam_W[m][i] = adam_step(
                W.W[m][:, i], g, state.adam_W[m][i], h)
            max_step = max(max_step, float(np.max(np.abs(new_col - W.W[m][:, i]))))
            W.W[m][:, i] = new_col
    state.last_max_step = max_step
    return state


def reconstruction_grad_P(P, W, ds, h):
    """The lam * alpha reconstruction part of grad_P, view block by view
    block: 2 lam alpha X^m (I - W^m)(I - W^m)^T X^m^T P_m."""
    blocks = []
    for m in range(ds.V):
        o = P.offsets[m]
        IW = np.eye(ds.n) - W.W[m]
        blocks.append(2.0 * h.lam * h.alpha * (ds.views[m] @ (IW @ IW.T)
                                               @ ds.views[m].T
                                               @ P.P[o:o + ds.view_dims[m], :]))
    return np.vstack(blocks)


def random_instance(seed, n=5, V=2, dims=(4, 3), d=2):
    """Random dataset + projection + coefficients for oracle comparisons."""
    import mvcontrast as mv

    rng = np.random.default_rng(seed)
    ds = mv.MultiViewDataset(views=[rng.normal(size=(dim, n)) for dim in dims])
    P = mv.ProjectionStack.from_blocks(
        [rng.normal(size=(dim, d)) for dim in dims])
    W = mv.CoefficientSet([rng.normal(size=(n, n)) for _ in range(V)])
    return ds, P, W


def alloc_logsumexp(a, axis=None):
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


def alloc_sim_matrix(A, B, tau, norm_eps):
    na = np.linalg.norm(A, axis=0)
    nb = np.linalg.norm(B, axis=0)
    Q = np.outer(na, nb) + norm_eps
    S = (A.T @ B) / (Q * tau)
    return S, Q, na, nb


def alloc_sample_logits(Y, m, h):
    others = [v for v in range(len(Y)) if v != m]
    sims = [alloc_sim_matrix(Y[m], Y[v], h.tau1, h.norm_eps)[:2] for v in others]
    logits = np.concatenate([S for S, _ in sims], axis=1)
    pos = np.stack([np.diagonal(S) for S, _ in sims], axis=1)
    return others, sims, logits, pos


def alloc_sample_infonce(P, ds, h):
    from mvcontrast.errors import NumericError
    from mvcontrast.losses import view_embeddings

    Y = view_embeddings(P, ds)
    total = 0.0
    for m in range(ds.V):
        logits, pos = alloc_sample_logits(Y, m, h)[2:]
        terms = alloc_logsumexp(logits, axis=1) - alloc_logsumexp(pos, axis=1)
        if not np.all(np.isfinite(terms)):
            raise NumericError(f"non-finite InfoNCE term at view {m}")
        total += float(np.mean(terms))
    return total


def alloc_structural_contrastive(W, h):
    from mvcontrast.errors import NumericError

    total = 0.0
    for m in range(W.V):
        for v in range(W.V):
            if v == m:
                continue
            S = alloc_sim_matrix(W.W[m], W.W[v], h.tau2, h.norm_eps)[0]
            terms = alloc_logsumexp(S, axis=1) - np.diagonal(S)
            if not np.all(np.isfinite(terms)):
                raise NumericError(f"non-finite structural term at pair ({m},{v})")
            total += float(np.mean(terms))
    return total


def alloc_column_context(m, P, W, ds, h):
    from mvcontrast.losses import view_embeddings

    Wm = W.W[m]
    B = view_embeddings(P, ds)[m]
    nw = np.maximum(np.linalg.norm(Wm, axis=0), 1e-300)
    G = np.zeros_like(Wm)
    for v in range(W.V):
        if v == m:
            continue
        Wv = W.W[v]
        nv = np.linalg.norm(Wv, axis=0)
        Q = np.outer(nv, nw) + h.norm_eps
        S = (Wv.T @ Wm) / (Q * h.tau2)
        C = np.exp(S - S.max(axis=0))
        C /= C.sum(axis=0)
        np.fill_diagonal(C, C.diagonal() - 1.0)
        G += Wv @ (C / (Q * h.tau2))
        G -= Wm * ((C * S * nv[:, None] / Q).sum(axis=0) / nw)
    G += 2.0 * h.alpha * (B.T @ (B @ Wm - B)) + 2.0 * h.beta * Wm
    return G


def alloc_grad_P(P, W, ds, h):
    from mvcontrast.errors import NumericError
    from mvcontrast.losses import view_embeddings

    Y = view_embeddings(P, ds)
    norms = [np.linalg.norm(y, axis=0) for y in Y]
    n, V = ds.n, ds.V
    blocks = [np.zeros_like(P.block(m)) for m in range(V)]
    for m in range(V):
        others, sims, logits, pos = alloc_sample_logits(Y, m, h)
        zmax = logits.max(axis=1, keepdims=True)
        exps = np.exp(logits - zmax)
        denom_all = exps.sum(axis=1)
        pexp = np.exp(pos - zmax)
        denom_pos = pexp.sum(axis=1)
        for j, (v, (S, Q)) in enumerate(zip(others, sims)):
            omega = exps[:, j * n:(j + 1) * n] / denom_all[:, None]
            np.fill_diagonal(omega, omega.diagonal() - pexp[:, j] / denom_pos)
            omega /= n
            G = omega / (Q * h.tau1)
            ratio = omega * S / Q
            nm = np.maximum(norms[m], 1e-300)
            nv = np.maximum(norms[v], 1e-300)
            r_anchor = (ratio * norms[v][None, :]).sum(axis=1) / nm
            r_comp = (ratio * norms[m][:, None]).sum(axis=0) / nv
            blocks[m] += ds.views[m] @ (G @ Y[v].T - r_anchor[:, None] * Y[m].T)
            blocks[v] += ds.views[v] @ (G.T @ Y[m].T - r_comp[:, None] * Y[v].T)
    for m in range(V):
        R = Y[m] - Y[m] @ W.W[m]
        blocks[m] += 2.0 * h.lam * h.alpha * (ds.views[m] @ (R - R @ W.W[m].T).T)
    grad = np.vstack(blocks)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite projection gradient")
    return grad


def alloc_sweep_W(state, ds, h):
    """The W sweep of trainer.sweep_W, through alloc_column_context, with
    the largest step taken from fresh copies."""
    from mvcontrast.gradients import grad_w
    from mvcontrast.trainer import adam_step

    W = state.W
    max_step = 0.0
    for m in range(W.V):
        ctx = alloc_column_context(m, state.P, W, ds, h)
        before = W.W[m].copy()
        for i in range(W.n):
            g = grad_w(i, m, state.P, W, ds, h, ctx=ctx)
            W.W[m][:, i], state.adam_W[m][i] = adam_step(
                W.W[m][:, i], g, state.adam_W[m][i], h)
        max_step = max(max_step, float(np.max(np.abs(W.W[m] - before))))
    state.last_max_step = max_step
    return state
