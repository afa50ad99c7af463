"""Analytic gradients of the objective blocks, plus a finite-difference oracle.

The alternating scheme optimizes two kinds of blocks:

  * one coefficient column w_i^m at a time, against the partial objective
    sum_{v != m} [ -log softmax_i(sim(w_i^m, w_.^v)) ]
      + alpha ||P_m^T x_i^m - P_m^T X^m w_i^m||^2 + beta ||w_i^m||^2
  * the stacked projection P, against the total loss, whose P-dependent
    part is the sample-level InfoNCE plus the (lam * alpha)-weighted
    reconstruction residual.

Gradients are derived from the implemented losses and validated against
central finite differences: grad_w against w_subobjective, grad_P against
losses.total_loss itself.
"""

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import NumericError

_NORM_FLOOR = 1e-300


def _softmax(s):
    z = s - np.max(s)
    e = np.exp(z)
    return e / e.sum()


def w_subobjective(i, m, w, P, W, ds, h, contrastive_weight=1.0):
    """Partial objective seen by coefficient column w_i^m (others fixed)."""
    w = np.asarray(w, dtype=float)
    value = 0.0
    if contrastive_weight != 0.0:
        for v in range(W.V):
            if v == m:
                continue
            sims = losses.sim_matrix(w[:, None], W.W[v], h.tau2, h.norm_eps)[0][0]
            value += contrastive_weight * float(losses.logsumexp(sims) - sims[i])
    B = P.block(m).T @ ds.views[m]
    residual = B[:, i] - B @ w
    value += h.alpha * float(residual @ residual)
    value += h.beta * float(w @ w)
    return value


def column_context(m, P, W, ds):
    """What every grad_w(., m) call shares: (B_m, {v: column norms of W^v}).

    Valid only while W^m is the only block that changes; rebuild it after P
    or any other W^v moves.
    """
    B = P.block(m).T @ ds.views[m]
    norms = {v: np.linalg.norm(W.W[v], axis=0) for v in range(W.V) if v != m}
    return B, norms


def grad_w(i, m, P, W, ds, h, contrastive_weight=1.0, ctx=None):
    """Gradient of w_subobjective at the current column w_i^m.

    `ctx` is `column_context(m, P, W, ds)`, built here when not given.  Per
    other view v, with q_k = ||w|| ||u_k|| + norm_eps over the columns u_k of
    W^v, d sim(w, u_k)/dw = u_k / (q_k tau) - (s_k ||u_k|| / (q_k ||w||)) w.
    """
    B, norms = column_context(m, P, W, ds) if ctx is None else ctx
    w = W.W[m][:, i]
    grad = np.zeros_like(w)
    if contrastive_weight != 0.0:
        nw = max(np.linalg.norm(w), _NORM_FLOOR)
        for v, nu in norms.items():
            U = W.W[v]
            q = nw * nu + h.norm_eps
            s = (U.T @ w) / (q * h.tau2)
            coeff = _softmax(s)
            coeff[i] -= 1.0
            grad += contrastive_weight * (
                U @ (coeff / (q * h.tau2))
                - float(np.sum(coeff * s * nu / q)) / nw * w)
    grad += 2.0 * h.alpha * (B.T @ (B @ w - B[:, i])) + 2.0 * h.beta * w
    if not np.all(np.isfinite(grad)):
        raise NumericError(f"non-finite gradient for column ({i}, view {m})")
    return grad


def grad_P(P, W, ds, h):
    """Gradient of total_loss with respect to the stacked projection."""
    Y = losses.view_embeddings(P, ds)
    norms = [np.linalg.norm(y, axis=0) for y in Y]
    n, V = ds.n, ds.V
    blocks = [np.zeros_like(P.block(m)) for m in range(V)]

    for m in range(V):
        others = [v for v in range(V) if v != m]
        sims = {}
        for v in others:
            S, Q, _, _ = losses.sim_matrix(Y[m], Y[v], h.tau1, h.norm_eps)
            sims[v] = (S, Q)
        stacked = np.concatenate([sims[v][0] for v in others], axis=1)
        # softmax over every comparison pair, and over the positives only
        zmax = stacked.max(axis=1, keepdims=True)
        exps = np.exp(stacked - zmax)
        denom_all = exps.sum(axis=1)
        pos = np.stack([np.diagonal(sims[v][0]) for v in others], axis=1)
        pexp = np.exp(pos - zmax)
        denom_pos = pexp.sum(axis=1)

        for j, v in enumerate(others):
            S, Q = sims[v]
            omega = exps[:, j * n:(j + 1) * n] / denom_all[:, None]
            np.fill_diagonal(omega, omega.diagonal() - pexp[:, j] / denom_pos)
            omega /= n
            G = omega / (Q * h.tau1)
            ratio = omega * S / Q
            nm = np.maximum(norms[m], _NORM_FLOOR)
            nv = np.maximum(norms[v], _NORM_FLOOR)
            # anchor-side rows live in block m, comparison-side in block v
            r_anchor = (ratio * norms[v][None, :]).sum(axis=1) / nm
            r_comp = (ratio * norms[m][:, None]).sum(axis=0) / nv
            blocks[m] += ds.views[m] @ (G @ Y[v].T - r_anchor[:, None] * Y[m].T)
            blocks[v] += ds.views[v] @ (G.T @ Y[m].T - r_comp[:, None] * Y[v].T)

    for m in range(V):
        IW = np.eye(n) - W.W[m]
        M = IW @ IW.T
        blocks[m] += 2.0 * h.lam * h.alpha * (ds.views[m] @ M @ ds.views[m].T
                                              @ P.block(m))

    grad = np.vstack(blocks)
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite projection gradient")
    return grad


def fd_gradient(f, x, step):
    """Central finite differences of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xp[j] += step
        fp = f(xp)
        xm = x.copy()
        xm[j] -= step
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value at coordinate {j}")
        grad[j] = (fp - fm) / (2.0 * step)
    return grad


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_coordinate: tuple
    step: float


def _rel_err(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def check_gradients(P, W, ds, h, step=1e-6):
    """Compare every analytic block gradient against the FD oracle."""
    worst = GradCheckReport(max_rel_err=-1.0, worst_coordinate=(), step=step)

    def consider(tag, analytic, numeric):
        nonlocal worst
        err = _rel_err(analytic, numeric)
        if err > worst.max_rel_err:
            j = int(np.argmax(np.abs(analytic - numeric)))
            worst = GradCheckReport(max_rel_err=err,
                                    worst_coordinate=tag + (j,), step=step)

    for m in range(W.V):
        for i in range(W.n):
            analytic = grad_w(i, m, P, W, ds, h)
            numeric = fd_gradient(
                lambda w: w_subobjective(i, m, w, P, W, ds, h),
                W.W[m][:, i], step)
            consider(("w", m, i), analytic, numeric)

    analytic = grad_P(P, W, ds, h).ravel()
    numeric = fd_gradient(
        lambda p: losses.total_loss(
            losses.ProjectionStack(p.reshape(P.P.shape), ds.view_dims), W, ds, h),
        P.P.ravel(), step)
    consider(("P",), analytic, numeric)
    return worst
