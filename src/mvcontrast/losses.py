"""The dual contrastive objective.

Three pieces:
  * sample-level InfoNCE over the embeddings Y^m = P_m^T X^m, with the
    cross-view pairing (same sample in other views = positives, other
    samples in other views = negatives);
  * structural-level InfoNCE over the columns of the per-view
    self-reconstruction matrices W^m;
  * a reconstruction penalty  alpha * ||Y^m - Y^m W^m||_F^2 + beta * ||W^m||_F^2
    tying the coefficients to the embedded data.

Total objective: sample_infonce + lam * (structural_contrastive +
reconstruction_penalty).  Every softmax-style term goes through a max-shifted
log-sum-exp path.  Y^m is formed only in `view_embeddings`, the pairing
only in `sample_logits`.
"""

from dataclasses import dataclass

import numpy as np

from .data import view_offsets
from .errors import DataError, NumericError


@dataclass
class ProjectionStack:
    """Stacked projection P (D x d) with per-view row offsets."""

    P: np.ndarray
    view_dims: list

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        if self.P.ndim != 2:
            raise DataError("P must be a matrix")
        if self.P.shape[0] != sum(self.view_dims):
            raise DataError(
                f"P has {self.P.shape[0]} rows, view dims sum to {sum(self.view_dims)}")
        self.offsets = view_offsets(self.view_dims)

    def block(self, m):
        """The per-view projection P_m (D_m x d)."""
        o = self.offsets[m]
        return self.P[o:o + self.view_dims[m], :]

    @classmethod
    def from_blocks(cls, blocks):
        return cls(P=np.vstack(blocks), view_dims=[b.shape[0] for b in blocks])


@dataclass
class CoefficientSet:
    """Per-view self-reconstruction matrices W^m (n x n, columns w_i^m)."""

    W: list

    def __post_init__(self):
        self.W = [np.asarray(w, dtype=float) for w in self.W]
        n = self.W[0].shape[0]
        for m, w in enumerate(self.W):
            if w.shape != (n, n):
                raise DataError(f"W[{m}] has shape {w.shape}, expected ({n}, {n})")
            if not np.all(np.isfinite(w)):
                raise DataError(f"W[{m}] contains non-finite entries")

    @property
    def V(self):
        return len(self.W)

    @property
    def n(self):
        return self.W[0].shape[0]

    def copy(self):
        return CoefficientSet([w.copy() for w in self.W])


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along `axis` (over all entries when None).

    The maximum is subtracted before exponentiating, so no term overflows.
    """
    return _logsumexp_inplace(np.array(a, dtype=float), axis)


def _logsumexp_inplace(a, axis):
    """logsumexp(a, axis) for a float array `a`, which it overwrites: the
    shift and exp run in `a`, so the only new memory is the reduced shape."""
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    np.subtract(a, shift, out=a)
    np.exp(a, out=a)
    out = np.log(np.sum(a, axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


def view_embeddings(P, ds):
    """Per-view embeddings Y^m = P_m^T X^m (d x n each)."""
    return [P.block(m).T @ ds.views[m] for m in range(ds.V)]


def sim_matrix(A, B, tau, norm_eps, out=None):
    """Pairwise temperature-scaled cosine similarities between columns.

    Returns (S, Q, na, nb): similarities, guarded denominators, column norms.
    S is written into `out` when given (any float64 view of the right shape).
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    na = np.linalg.norm(A, axis=0)
    nb = np.linalg.norm(B, axis=0)
    Q = np.outer(na, nb)
    Q += norm_eps
    S = np.matmul(A.T, B, out=out)
    S /= Q * tau
    return S, Q, na, nb


def sample_logits(Y, m, h):
    """Anchor view m's pairing, (others, sims, logits, pos): the other views
    v, their sim_matrix(Y^m, Y^v) pairs (S, Q), the S side by side
    (n x (V-1)n, each S a view of its block) and the positives diag(S)
    (n x (V-1))."""
    others = [v for v in range(len(Y)) if v != m]
    n = Y[m].shape[1]
    logits = np.empty((n, len(others) * n))
    sims = [sim_matrix(Y[m], Y[v], h.tau1, h.norm_eps,
                       out=logits[:, j * n:(j + 1) * n])[:2]
            for j, v in enumerate(others)]
    pos = np.stack([np.diagonal(S) for S, _ in sims], axis=1)
    return others, sims, logits, pos


def sample_infonce(P, ds, h):
    """Sample-level InfoNCE with cross-view pairing, summed over views.

    For anchor y_i^m the positives are {y_i^v : v != m} and the negatives are
    {y_k^v : v != m, k != i} (see sample_logits); each anchor contributes
    -log(sum_pos e^sim / (sum_pos e^sim + sum_neg e^sim)) and anchors are
    averaged within each view.  With n = 1 there are no negatives and the
    loss is exactly 0.
    """
    Y = view_embeddings(P, ds)
    total = 0.0
    for m in range(ds.V):
        logits, pos = sample_logits(Y, m, h)[2:]
        terms = _logsumexp_inplace(logits, 1) - logsumexp(pos, axis=1)
        del logits  # free this anchor's logits before the next anchor's are built
        if not np.all(np.isfinite(terms)):
            bad = int(np.flatnonzero(~np.isfinite(terms))[0])
            raise NumericError(f"non-finite InfoNCE term at view {m}, anchor {bad}")
        total += float(np.mean(terms))
    return total


def structural_contrastive(W, h):
    """Structural-level InfoNCE over reconstruction-coefficient columns.

    sum over ordered view pairs (m, v != m) of the mean over anchors i of
    -log(e^{sim(w_i^m, w_i^v)} / sum_k e^{sim(w_i^m, w_k^v)}); the
    denominator includes k = i.
    """
    total = 0.0
    for m in range(W.V):
        for v in range(W.V):
            if v == m:
                continue
            S = sim_matrix(W.W[m], W.W[v], h.tau2, h.norm_eps)[0]
            diag = np.diagonal(S).copy()
            terms = _logsumexp_inplace(S, 1) - diag
            del S  # free this pair's S before the next pair's is built
            if not np.all(np.isfinite(terms)):
                bad = int(np.flatnonzero(~np.isfinite(terms))[0])
                raise NumericError(
                    f"non-finite structural term at pair ({m},{v}), anchor {bad}")
            total += float(np.mean(terms))
    return total


def reconstruction_penalty(P, ds, W, h):
    """sum_m alpha ||Y^m - Y^m W^m||_F^2 + beta ||W^m||_F^2."""
    total = 0.0
    for Ym, Wm in zip(view_embeddings(P, ds), W.W):
        residual = Ym - Ym @ Wm
        total += h.alpha * float(np.sum(residual ** 2))
        total += h.beta * float(np.sum(Wm ** 2))
    return total


def total_loss(P, W, ds, h):
    """sample_infonce + lam * (structural_contrastive + reconstruction_penalty)."""
    value = (sample_infonce(P, ds, h)
             + h.lam * (structural_contrastive(W, h)
                        + reconstruction_penalty(P, ds, W, h)))
    if not np.isfinite(value):
        raise NumericError(f"total loss is non-finite: {value}")
    return value
