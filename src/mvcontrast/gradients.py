"""Analytic gradients of the objective blocks, plus a directional check.

The alternating scheme optimizes two kinds of blocks:

  * each coefficient column w_i^m, against the partial objective
    sum_{v != m} [ -log softmax_i(sim(w_i^m, w_.^v)) ]
      + alpha ||P_m^T x_i^m - P_m^T X^m w_i^m||^2 + beta ||w_i^m||^2
  * the stacked projection P, against the total loss, whose P-dependent
    part is the sample-level InfoNCE plus the (lam * alpha)-weighted
    reconstruction residual.

Gradients are derived from the implemented losses (grad_P from the pairing
of losses.sample_logits) and validated against central differences along
random directions: grad_w against w_subobjective, grad_P against
losses.total_loss itself.
"""

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError, NumericError

_NORM_FLOOR = 1e-300
# random directions along which check_gradients probes grad_P
P_DIRECTIONS = 4


def w_subobjective(i, m, w, P, W, ds, h):
    """Partial objective seen by coefficient column w_i^m (others fixed)."""
    w = np.asarray(w, dtype=float)
    value = 0.0
    for v in range(W.V):
        if v == m:
            continue
        sims = losses.sim_matrix(w[:, None], W.W[v], h.tau2, h.norm_eps)[0][0]
        value += float(losses.logsumexp(sims) - sims[i])
    B = losses.view_embeddings(P, ds)[m]
    residual = B[:, i] - B @ w
    value += h.alpha * float(residual @ residual)
    value += h.beta * float(w @ w)
    return value


def column_context(m, P, W, ds, h):
    """G (n x n), whose column i is the gradient of w_subobjective at w_i^m.

    Column i reads W^m only through w_i^m, so G holds while other columns of
    W^m move, not after P or another W^v does.  Per other view v, with
    Q = n_v n_w^T + norm_eps over the column norms of W^v and W^m and
    S = (W^v)^T W^m / (Q tau), column i sums C_ki (u_k / (Q_ki tau) -
    S_ki n_v,k w_i / (Q_ki n_w,i)) over the columns u_k of W^v, with
    C = (softmax of each column of S) - I."""
    Wm = W.W[m]
    B = losses.view_embeddings(P, ds)[m]
    nw = np.maximum(np.linalg.norm(Wm, axis=0), _NORM_FLOOR)
    # every norm's n x n temporary is freed before the buffers exist
    others = [(W.W[v], np.linalg.norm(W.W[v], axis=0)) for v in range(W.V) if v != m]
    G = np.zeros_like(Wm)
    # three n x n buffers, reused across the other views
    Q, S, C = np.empty_like(Wm), np.empty_like(Wm), np.empty_like(Wm)
    for Wv, nv in others:
        np.outer(nv, nw, out=Q)
        Q += h.norm_eps
        np.multiply(Q, h.tau2, out=C)
        np.matmul(Wv.T, Wm, out=S)
        S /= C
        np.subtract(S, S.max(axis=0), out=C)
        np.exp(C, out=C)
        C /= C.sum(axis=0)
        np.fill_diagonal(C, C.diagonal() - 1.0)
        # colsum(C * S * n_v / Q) / n_w, with S's buffer as the product
        np.multiply(C, S, out=S)
        S *= nv[:, None]
        S /= Q
        shrink = S.sum(axis=0) / nw
        np.multiply(Q, h.tau2, out=S)
        C /= S
        G += np.matmul(Wv, C, out=S)
        G -= np.multiply(Wm, shrink, out=S)
    del Q, S, C
    G += 2.0 * h.alpha * (B.T @ (B @ Wm - B)) + 2.0 * h.beta * Wm
    return G


def grad_w(i, m, P, W, ds, h, ctx=None):
    """Column i of `ctx`, which is `column_context(m, P, W, ds, h)` (built
    here when not given): the gradient of w_subobjective at w_i^m."""
    G = column_context(m, P, W, ds, h) if ctx is None else ctx
    grad = G[:, i].copy()
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient for column ({i}, view {m})")
    return grad


def grad_P(P, W, ds, h):
    """Gradient of total_loss with respect to the stacked projection."""
    Y = losses.view_embeddings(P, ds)
    norms = [np.linalg.norm(y, axis=0) for y in Y]
    n, V = ds.n, ds.V
    blocks = [np.zeros_like(P.block(m)) for m in range(V)]

    for m in range(V):
        others, sims, logits, pos = losses.sample_logits(Y, m, h)
        # softmax over every comparison pair, and over the positives only
        zmax = logits.max(axis=1, keepdims=True)
        exps = np.subtract(logits, zmax)
        np.exp(exps, out=exps)
        denom_all = exps.sum(axis=1)
        pexp = np.exp(pos - zmax)
        denom_pos = pexp.sum(axis=1)
        nm = np.maximum(norms[m], _NORM_FLOOR)
        G, ratio = np.empty((n, n)), np.empty((n, n))

        for j, (v, (S, Q)) in enumerate(zip(others, sims)):
            # omega is built in ratio's buffer, and ratio overwrites it once
            # G is taken; the block of exps it came from holds the products
            block = exps[:, j * n:(j + 1) * n]
            omega = np.divide(block, denom_all[:, None], out=ratio)
            np.fill_diagonal(omega, omega.diagonal() - pexp[:, j] / denom_pos)
            omega /= n
            np.multiply(Q, h.tau1, out=G)
            np.divide(omega, G, out=G)
            np.multiply(omega, S, out=ratio)
            ratio /= Q
            nv = np.maximum(norms[v], _NORM_FLOOR)
            # anchor-side rows live in block m, comparison-side in block v
            r_anchor = np.multiply(ratio, norms[v][None, :], out=block).sum(axis=1) / nm
            r_comp = np.multiply(ratio, norms[m][:, None], out=block).sum(axis=0) / nv
            blocks[m] += ds.views[m] @ (G @ Y[v].T - r_anchor[:, None] * Y[m].T)
            blocks[v] += ds.views[v] @ (G.T @ Y[m].T - r_comp[:, None] * Y[v].T)
        # free anchor m's blocks before the next anchor's are built
        del sims, logits, exps, G, ratio, S, Q, omega, block

    for m in range(V):
        R = Y[m] - Y[m] @ W.W[m]
        blocks[m] += 2.0 * h.lam * h.alpha * (ds.views[m] @ (R - R @ W.W[m].T).T)

    grad = np.vstack(blocks)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite projection gradient")
    return grad


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_block: tuple
    step: float


def check_gradients(P, W, ds, h, step=1e-6):
    """Compare each analytic gradient with a central difference along random
    unit directions u, drawn from a fixed seed so reports are deterministic.

    Every coefficient column w_i^m gets one direction, against
    w_subobjective; the stacked projection gets P_DIRECTIONS, against
    total_loss.  A direction scores |<g, u> - fd| / max(||g||, |fd|, 1e-12),
    so one nearly orthogonal to g cannot fail spuriously.  The report holds
    the worst score and its block, ("w", m, i) or ("P",).
    """
    if not (np.isfinite(step) and step > 0):
        raise ConfigError(f"gradient check step must be finite and > 0, got {step}")
    rng = np.random.default_rng(0)
    worst = GradCheckReport(max_rel_err=-1.0, worst_block=(), step=step)

    def consider(block, f, x, analytic):
        nonlocal worst
        u = rng.normal(size=x.shape)
        u /= np.linalg.norm(u)
        fp, fm = f(x + step * u), f(x - step * u)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite objective value probing block {block}")
        numeric = (fp - fm) / (2.0 * step)
        err = abs(float(np.sum(analytic * u)) - numeric) / max(
            float(np.linalg.norm(analytic)), abs(numeric), 1e-12)
        if err > worst.max_rel_err:
            worst = GradCheckReport(max_rel_err=err, worst_block=block, step=step)

    for m in range(W.V):
        ctx = column_context(m, P, W, ds, h)
        for i in range(W.n):
            consider(("w", m, i),
                     lambda w: w_subobjective(i, m, w, P, W, ds, h),
                     W.W[m][:, i], grad_w(i, m, P, W, ds, h, ctx=ctx))

    analytic = grad_P(P, W, ds, h)
    for _ in range(P_DIRECTIONS):
        consider(("P",),
                 lambda p: losses.total_loss(
                     losses.ProjectionStack(p, ds.view_dims), W, ds, h),
                 P.P, analytic)
    return worst
