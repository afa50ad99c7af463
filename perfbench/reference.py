"""Reference computations for the benchmark's checks.

Nothing here imports mvcontrast.  Each function re-derives its result from
the definitions in the library's docstrings (the objective, the per-column
coefficient objective, the split protocol, 1-NN with ties to the smallest
training index, the CSV layout), so a fault in the library cannot hide in a
helper the checks share with it.
"""

import csv
import math

import numpy as np

# central-difference step as a share of the norm of the point
REL_STEP = 1e-5


def _cos(u, v, nu, nv, tau, eps):
    return float(u @ v) / ((nu * nv + eps) * tau)


def loop_terms(Y, W, h):
    """(sample, structural, reconstruction) terms by explicit nested loops.

    Y[m] is the d x n embedding of view m, W[m] its n x n coefficients.  Plain
    exp/log sums over every (view, anchor, view, comparison) quadruple.
    """
    V, n = len(Y), Y[0].shape[1]
    ycols = [[Y[m][:, i] for i in range(n)] for m in range(V)]
    ynorm = [[math.sqrt(float(c @ c)) for c in cols] for cols in ycols]
    wcols = [[W[m][:, i] for i in range(n)] for m in range(V)]
    wnorm = [[math.sqrt(float(c @ c)) for c in cols] for cols in wcols]

    sample = 0.0
    for m in range(V):
        acc = 0.0
        for i in range(n):
            pos = neg = 0.0
            for v in range(V):
                if v == m:
                    continue
                for k in range(n):
                    e = math.exp(_cos(ycols[m][i], ycols[v][k], ynorm[m][i],
                                      ynorm[v][k], h.tau1, h.norm_eps))
                    if k == i:
                        pos += e
                    else:
                        neg += e
            acc -= math.log(pos / (pos + neg))
        sample += acc / n

    structural = 0.0
    for m in range(V):
        for v in range(V):
            if v == m:
                continue
            acc = 0.0
            for i in range(n):
                denom = 0.0
                for k in range(n):
                    s = _cos(wcols[m][i], wcols[v][k], wnorm[m][i], wnorm[v][k],
                             h.tau2, h.norm_eps)
                    denom += math.exp(s)
                    if k == i:
                        num = s
                acc += math.log(denom) - num
            structural += acc / n

    recon = 0.0
    for m in range(V):
        for i in range(n):
            r = ycols[m][i] - sum(W[m][k, i] * ycols[m][k] for k in range(n))
            recon += h.alpha * float(r @ r)
            recon += h.beta * sum(float(W[m][k, i]) ** 2 for k in range(n))
    return sample, structural, recon


def _cos_matrix(A, B, tau, eps):
    na = np.sqrt(np.einsum("ij,ij->j", A, A))
    nb = np.sqrt(np.einsum("ij,ij->j", B, B))
    return np.einsum("ki,kj->ij", A, B) / ((na[:, None] * nb[None, :] + eps) * tau)


def _lse_rows(S):
    shift = S.max(axis=1)
    return shift + np.log(np.exp(S - shift[:, None]).sum(axis=1))


def sample_term(Y, h):
    """Sample-level InfoNCE, vectorised over anchors and comparisons."""
    V, n = len(Y), Y[0].shape[1]
    total = 0.0
    for m in range(V):
        blocks = [_cos_matrix(Y[m], Y[v], h.tau1, h.norm_eps)
                  for v in range(V) if v != m]
        pos = np.stack([np.diagonal(b) for b in blocks], axis=1)
        total += float(np.mean(_lse_rows(np.hstack(blocks)) - _lse_rows(pos)))
    return total


def vector_terms(Y, W, h):
    """(sample, structural, reconstruction) terms, vectorised per view pair."""
    V = len(Y)
    structural = 0.0
    for m in range(V):
        for v in range(V):
            if v != m:
                S = _cos_matrix(W[m], W[v], h.tau2, h.norm_eps)
                structural += float(np.mean(_lse_rows(S) - np.diagonal(S)))
    recon = 0.0
    for m in range(V):
        R = Y[m] - Y[m] @ W[m]
        recon += h.alpha * float(np.einsum("ij,ij->", R, R))
        recon += h.beta * float(np.einsum("ij,ij->", W[m], W[m]))
    return sample_term(Y, h), structural, recon


def p_objective(P_blocks, X, W, h):
    """The P-dependent part of the objective: sample term plus lam*alpha residual."""
    Y = [Pm.T @ Xm for Pm, Xm in zip(P_blocks, X)]
    value = sample_term(Y, h)
    for Ym, Wm in zip(Y, W):
        R = Ym - Ym @ Wm
        value += h.lam * h.alpha * float(np.einsum("ij,ij->", R, R))
    return value


def w_objective(i, m, w, B, W, h):
    """Objective of coefficient column i of view m with every other column fixed.

    sum over v != m of -log softmax_i(cos(w, W[v] columns) / tau2), plus
    alpha ||B[:, i] - B w||^2 + beta ||w||^2, where B = P_m^T X^m.
    """
    value = 0.0
    nw = math.sqrt(float(w @ w))
    for v in range(len(W)):
        if v == m:
            continue
        nu = np.sqrt(np.einsum("ij,ij->j", W[v], W[v]))
        s = (w @ W[v]) / ((nw * nu + h.norm_eps) * h.tau2)
        shift = float(s.max())
        value += shift + math.log(float(np.exp(s - shift).sum())) - float(s[i])
    r = B[:, i] - B @ w
    return value + h.alpha * float(r @ r) + h.beta * float(w @ w)


def directional_error(f, x, grad, rng):
    """Relative gap between grad . u and a central difference of f along u.

    u is a random unit direction; the step is REL_STEP times the norm of x.
    """
    u = rng.normal(size=x.shape)
    u /= np.linalg.norm(u)
    step = REL_STEP * max(float(np.linalg.norm(x)), 1e-3)
    numeric = (f(x + step * u) - f(x - step * u)) / (2.0 * step)
    analytic = float(np.sum(grad * u))
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def split_indices(labels, per_class, seed, repeat):
    """Train/test sample indices of one repeat of the split protocol.

    Per class, in ascending label order, per_class members are drawn without
    replacement from the PCG64 stream seeded by (seed, repeat); both index
    lists are ascending.
    """
    rng = np.random.default_rng([int(seed), int(repeat)])
    chosen = []
    for c in np.unique(labels):
        chosen.extend(rng.choice(np.flatnonzero(labels == c), size=per_class,
                                 replace=False).tolist())
    train = np.array(sorted(chosen), dtype=int)
    test = np.setdiff1d(np.arange(labels.size), train)
    return train, test


def nn_accuracy(train, train_labels, test, test_labels):
    """1-NN accuracy by exact squared distances (samples are columns).

    Ties go to the smallest training index: a later training sample replaces
    the current neighbour only when strictly closer.
    """
    best = np.full(test.shape[1], np.inf)
    pred = np.full(test.shape[1], -1)
    for j in range(train.shape[1]):
        diff = test - train[:, j:j + 1]
        dist = np.einsum("ij,ij->j", diff, diff)
        closer = dist < best
        best[closer] = dist[closer]
        pred[closer] = train_labels[j]
    return float(np.mean(pred == test_labels))


def protocol_accuracies(projections, X, labels, per_class, seed):
    """Per-repeat (per-view accuracies, their mean, fused accuracy).

    projections[r] holds the per-view projection matrices of repeat r.
    """
    out = []
    for r, Ps in enumerate(projections):
        tr, te = split_indices(labels, per_class, seed, r)
        emb = [Pm.T @ Xm for Pm, Xm in zip(Ps, X)]
        per_view = [nn_accuracy(E[:, tr], labels[tr], E[:, te], labels[te])
                    for E in emb]
        fused = sum(emb)
        out.append((per_view, float(np.mean(per_view)),
                    nn_accuracy(fused[:, tr], labels[tr], fused[:, te], labels[te])))
    return out


def table_rows(accuracies, view_names, M):
    """(row_label, M, mean, std) rows in the order the protocol reports them."""
    rows = []
    for m, name in enumerate(view_names):
        acc = np.array([a[0][m] for a in accuracies])
        rows.append((name, M, float(acc.mean()), float(acc.std())))
    for label, k in (("Mean", 1), ("fused", 2)):
        acc = np.array([a[k] for a in accuracies])
        rows.append((label, M, float(acc.mean()), float(acc.std())))
    return rows


def read_csv_exact(path):
    """A CSV of decimal numbers as a float matrix (one row per line)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return np.array([[float(c) for c in row] for row in csv.reader(fh) if row],
                         dtype=float)


def bit_identical(a, b):
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
