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
random directions: column_context against view_subobjectives, grad_P
against the P-dependent terms of losses.total_loss.  Both heads score pairs
with losses.similarity, so both gradients go through its one backward,
cosine_backward, which rebuilds Q one block of rows at a time as similarity
does; grad_P sums its softmax denominators with losses.shifted_exp_sums, as
row_logsumexp does.
"""

from dataclasses import dataclass

import numpy as np

from . import losses
from .errors import ConfigError, NumericError

_NORM_FLOOR = 1e-300  # where cosine_backward divides by a column norm
# random directions along which check_gradients probes grad_P
P_DIRECTIONS = 4


def view_subobjectives(m, Wm, P, W, ds, h):
    """Entry i is the partial objective of column w_i^m with W^m replaced by
    Wm, other blocks fixed; it reads Wm only through column i."""
    values = sum(losses._structural_terms(Wm, W.W[v], h) for v in range(W.V) if v != m)
    B = losses.view_embeddings(P, ds)[m]
    R = B - B @ Wm
    return values + h.alpha * (R * R).sum(axis=0) + h.beta * (Wm * Wm).sum(axis=0)


def cosine_backward(S, omega, na, nb, tau, norm_eps):
    """Spend S = A^T B / (Q tau), Q = na nb^T + norm_eps, built by
    losses.similarity from column norms na and nb, and omega = dL/dS, on the
    backward of L = <omega, S>: returns (ra, rb) with

        dL/dA = B omega'^T - A diag(ra),   dL/dB = A omega' - B diag(rb),

    where omega' = omega / (Q tau) is written over omega, and S's buffer is
    used as scratch.  Q is rebuilt one block of rows at a time; a zero norm
    is floored only where ra and rb divide by it."""
    ra = np.empty(S.shape[0])
    for rows, q in losses.row_blocks(*S.shape):
        losses.q_rows(na, nb, rows, norm_eps, q)
        ratio = S[rows]
        ratio *= omega[rows]
        ratio /= q
        q *= tau
        omega[rows] /= q
        ra[rows] = np.multiply(ratio, nb, out=q).sum(axis=1)
    ra /= np.maximum(na, _NORM_FLOOR)
    rb = np.multiply(S, na[:, None], out=S).sum(axis=0) / np.maximum(nb, _NORM_FLOOR)
    return ra, rb


def column_context(m, P, W, ds, h):
    """G (n x n), whose column i is the gradient of entry i of
    view_subobjectives at w_i^m.

    Column i reads W^m only through w_i^m, so G holds while other columns of
    W^m move, not after P or another W^v does.  Per other view v, S is the
    similarity of W^v and W^m that structural_contrastive builds for that
    pair and C = (softmax of each column of S) - I is dL/dS; cosine_backward
    turns them into the W^m side of the gradient.  Raises NumericError naming
    the first column of G that is not finite."""
    Wm = W.W[m]
    B = losses.view_embeddings(P, ds)[m]
    nw = np.linalg.norm(Wm, axis=0)
    # every norm's n x n temporary is freed before the buffers exist
    others = [(W.W[v], np.linalg.norm(W.W[v], axis=0)) for v in range(W.V) if v != m]
    G = np.zeros_like(Wm)
    # two n x n buffers, reused across the other views
    S, C = np.empty_like(Wm), np.empty_like(Wm)
    for Wv, nv in others:
        losses.similarity(Wv, Wm, nv, nw, h.tau2, h.norm_eps, out=S)
        np.subtract(S, S.max(axis=0), out=C)
        np.exp(C, out=C)
        C /= C.sum(axis=0)
        np.fill_diagonal(C, C.diagonal() - 1.0)
        shrink = cosine_backward(S, C, nv, nw, h.tau2, h.norm_eps)[1]
        G += np.matmul(Wv, C, out=S)
        G -= np.multiply(Wm, shrink, out=S)
    # the reconstruction and ridge terms, in C's and S's buffers
    recon = np.matmul(B.T, B @ Wm - B, out=C)
    recon *= 2.0 * h.alpha
    recon += np.multiply(Wm, 2.0 * h.beta, out=S)
    G += recon
    del S, C, recon
    finite = np.isfinite(G).all(axis=0)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NumericError(f"non-finite gradient for column ({bad}, view {m})")
    return G


def grad_w(i, m, P, W, ds, h, ctx=None):
    """Column i of `ctx`, which is `column_context(m, P, W, ds, h)` (built
    here when not given): the gradient of entry i of view_subobjectives at
    w_i^m.  A view of `ctx`, whose finiteness column_context has checked."""
    G = column_context(m, P, W, ds, h) if ctx is None else ctx
    return G[:, i]


def grad_P(P, W, ds, h):
    """Gradient of total_loss with respect to the stacked projection:
    X^m dY^m^T per view, with dY^m the gradient with respect to Y^m."""
    Y = losses.view_embeddings(P, ds)
    norms = [np.linalg.norm(y, axis=0) for y in Y]
    n = ds.n
    dY = []  # the reconstruction term's, then each pair's added
    for y, Wm in zip(Y, W.W):
        R = y - y @ Wm
        dY.append(2.0 * h.lam * h.alpha * (R - R @ Wm.T))
    for m in range(ds.V):
        others, logits, pos = losses.sample_logits(Y, m, h)
        # softmax over every comparison pair, and over the positives only
        zmax = logits.max(axis=1, keepdims=True)
        denom_all = losses.shifted_exp_sums(logits, zmax)
        pexp = np.exp(pos - zmax)
        denom_pos = pexp.sum(axis=1)
        # allocated after the logits and freed with them: held across anchors,
        # it left fit-wide's peak RSS one n x n higher after a dozen fits
        omega = np.empty((n, n))
        for j, v in enumerate(others):
            # omega = dL/dS from this pair's exps, rebuilt here
            S = logits[:, j * n:(j + 1) * n]
            np.subtract(S, zmax, out=omega)
            np.exp(omega, out=omega)
            omega /= denom_all[:, None]
            np.fill_diagonal(omega, omega.diagonal() - pexp[:, j] / denom_pos)
            omega /= n
            ra, rb = cosine_backward(S, omega, norms[m], norms[v], h.tau1, h.norm_eps)
            dY[m] += Y[v] @ omega.T - Y[m] * ra
            dY[v] += Y[m] @ omega - Y[v] * rb
        # free anchor m's buffers before the next anchor's are built
        del logits, S, omega
    grad = np.vstack([X @ dy.T for X, dy in zip(ds.views, dY)])
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

    Every coefficient column w_i^m gets one direction, and one pair of
    view_subobjectives calls probes all n columns of a view; the stacked
    projection gets P_DIRECTIONS, against the terms of total_loss that read
    P (sample_infonce + lam * reconstruction_penalty).  A direction scores
    |<g, u> - fd| / max(||g||, |fd|, 1e-12), so one nearly orthogonal to g
    cannot fail spuriously.  The report holds the worst score and its block,
    ("w", m, i) or ("P",).
    """
    if not (np.isfinite(step) and step > 0):
        raise ConfigError(f"gradient check step must be finite and > 0, got {step}")
    rng = np.random.default_rng(0)

    def probe(blocks, f, X, G, U):
        """(score, block) of the worst of the probes of blocks[j] along
        column j of U, normalized, against output j of f and column j of G."""
        U = U / np.linalg.norm(U, axis=0)
        fp, fm = np.atleast_1d(f(X + step * U)), np.atleast_1d(f(X - step * U))
        bad = ~(np.isfinite(fp) & np.isfinite(fm))
        if bad.any():
            raise NumericError("non-finite objective value probing block "
                               f"{blocks[int(np.argmax(bad))]}")
        numeric = (fp - fm) / (2.0 * step)
        err = np.abs((G * U).sum(axis=0) - numeric) / np.maximum(
            np.maximum(np.linalg.norm(G, axis=0), np.abs(numeric)), 1e-12)
        j = int(np.argmax(err))
        return float(err[j]), blocks[j]

    # column i of each view's draw holds column i's n draws, in per-column order
    scores = [probe([("w", m, i) for i in range(W.n)],
                    lambda Wm: view_subobjectives(m, Wm, P, W, ds, h), W.W[m],
                    column_context(m, P, W, ds, h), rng.normal(size=(W.n, W.n)).T)
              for m in range(W.V)]

    def p_terms(p):
        """The terms of total_loss that read P, at P = p."""
        Pp = losses.ProjectionStack(p.reshape(P.P.shape), ds.view_dims)
        return (losses.sample_infonce(Pp, ds, h)
                + h.lam * losses.reconstruction_penalty(Pp, ds, W, h))

    analytic = grad_P(P, W, ds, h).reshape(-1, 1)
    scores += [probe([("P",)], p_terms, P.P.reshape(-1, 1), analytic,
                     rng.normal(size=analytic.shape))
               for _ in range(P_DIRECTIONS)]
    # the first of equal scores, as a strict running maximum would keep
    err, block = max(scores, key=lambda score: score[0])
    return GradCheckReport(max_rel_err=err, worst_block=block, step=step)
