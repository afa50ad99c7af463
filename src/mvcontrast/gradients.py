"""Analytic gradients of the objective blocks, plus a directional check.

The alternating scheme optimizes two kinds of blocks:

  * one coefficient column w_i^m at a time, against the partial objective
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


def _softmax(s):
    z = s - np.max(s)
    e = np.exp(z)
    return e / e.sum()


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


def column_context(m, P, W, ds):
    """What every grad_w(., m) call shares: (B_m, {v: column norms of W^v}).

    Valid only while W^m is the only block that changes; rebuild it after P
    or any other W^v moves.
    """
    B = losses.view_embeddings(P, ds)[m]
    norms = {v: np.linalg.norm(W.W[v], axis=0) for v in range(W.V) if v != m}
    return B, norms


def grad_w(i, m, P, W, ds, h, ctx=None):
    """Gradient of w_subobjective at the current column w_i^m.

    `ctx` is `column_context(m, P, W, ds)`, built here when not given.  Per
    other view v, with q_k = ||w|| ||u_k|| + norm_eps over the columns u_k of
    W^v, d sim(w, u_k)/dw = u_k / (q_k tau) - (s_k ||u_k|| / (q_k ||w||)) w.
    """
    B, norms = column_context(m, P, W, ds) if ctx is None else ctx
    w = W.W[m][:, i]
    grad = np.zeros_like(w)
    nw = max(np.linalg.norm(w), _NORM_FLOOR)
    for v, nu in norms.items():
        U = W.W[v]
        q = nw * nu + h.norm_eps
        s = (U.T @ w) / (q * h.tau2)
        coeff = _softmax(s)
        coeff[i] -= 1.0
        grad += (U @ (coeff / (q * h.tau2))
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
        others, sims, logits, pos = losses.sample_logits(Y, m, h)
        # softmax over every comparison pair, and over the positives only
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
            nm = np.maximum(norms[m], _NORM_FLOOR)
            nv = np.maximum(norms[v], _NORM_FLOOR)
            # anchor-side rows live in block m, comparison-side in block v
            r_anchor = (ratio * norms[v][None, :]).sum(axis=1) / nm
            r_comp = (ratio * norms[m][:, None]).sum(axis=0) / nv
            blocks[m] += ds.views[m] @ (G @ Y[v].T - r_anchor[:, None] * Y[m].T)
            blocks[v] += ds.views[v] @ (G.T @ Y[m].T - r_comp[:, None] * Y[v].T)
        del sims, S, Q  # free view m's (S, Q) pairs before the next view's are built

    for m in range(V):
        IW = np.eye(n) - W.W[m]
        M = IW @ IW.T
        blocks[m] += 2.0 * h.lam * h.alpha * (ds.views[m] @ M @ ds.views[m].T
                                              @ P.block(m))

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
        ctx = column_context(m, P, W, ds)
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
