"""The dual contrastive objective.

Three pieces:
  * sample-level InfoNCE over projected embeddings, with the cross-view
    pairing (same sample in other views = positives, other samples in other
    views = negatives);
  * structural-level InfoNCE over the columns of the per-view
    self-reconstruction matrices W^m;
  * a reconstruction penalty  alpha * ||Y^m - Y^m W^m||_F^2 + beta * ||W^m||_F^2
    tying the coefficients to the embedded data.

Total objective: sample_infonce + lam * (structural_contrastive +
reconstruction_penalty).  Every softmax-style term goes through a max-shifted
log-sum-exp path.
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

    @property
    def d(self):
        return self.P.shape[1]

    @property
    def V(self):
        return len(self.view_dims)

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
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


def view_embeddings(P, ds):
    """Per-view embeddings Y^m = P_m^T X^m (d x n each)."""
    return [P.block(m).T @ ds.views[m] for m in range(ds.V)]


def sim_matrix(A, B, tau, norm_eps):
    """Pairwise temperature-scaled cosine similarities between columns.

    Returns (S, Q, na, nb): similarities, guarded denominators, column norms.
    """
    na = np.linalg.norm(A, axis=0)
    nb = np.linalg.norm(B, axis=0)
    Q = np.outer(na, nb) + norm_eps
    S = (A.T @ B) / (Q * tau)
    return S, Q, na, nb


def sample_infonce(P, ds, h):
    """Sample-level InfoNCE with cross-view pairing, summed over views.

    For anchor y_i^m the positives are {y_i^v : v != m} and the negatives are
    {y_k^v : v != m, k != i}; each anchor contributes
    -log(sum_pos e^sim / (sum_pos e^sim + sum_neg e^sim)) and anchors are
    averaged within each view.  With n = 1 there are no negatives and the
    loss is exactly 0.
    """
    Y = view_embeddings(P, ds)
    n, V = ds.n, ds.V
    # S[m][v]: anchors of view m (rows) against comparisons of view v (cols)
    total = 0.0
    for m in range(V):
        others = [v for v in range(V) if v != m]
        all_sims = np.concatenate(
            [sim_matrix(Y[m], Y[v], h.tau1, h.norm_eps)[0] for v in others], axis=1)
        pos = np.concatenate(
            [all_sims[:, j * n:(j + 1) * n].diagonal()[:, None]
             for j in range(len(others))], axis=1)
        terms = logsumexp(all_sims, axis=1) - logsumexp(pos, axis=1)
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
            S, _, _, _ = sim_matrix(W.W[m], W.W[v], h.tau2, h.norm_eps)
            terms = logsumexp(S, axis=1) - np.diagonal(S)
            if not np.all(np.isfinite(terms)):
                bad = int(np.flatnonzero(~np.isfinite(terms))[0])
                raise NumericError(
                    f"non-finite structural term at pair ({m},{v}), anchor {bad}")
            total += float(np.mean(terms))
    return total


def reconstruction_penalty(P, ds, W, h):
    """sum_m alpha ||Y^m - Y^m W^m||_F^2 + beta ||W^m||_F^2."""
    total = 0.0
    for m in range(ds.V):
        Ym = P.block(m).T @ ds.views[m]
        residual = Ym - Ym @ W.W[m]
        total += h.alpha * float(np.sum(residual ** 2))
        total += h.beta * float(np.sum(W.W[m] ** 2))
    return total


def total_loss(P, W, ds, h):
    """sample_infonce + lam * (structural_contrastive + reconstruction_penalty)."""
    value = (sample_infonce(P, ds, h)
             + h.lam * (structural_contrastive(W, h)
                        + reconstruction_penalty(P, ds, W, h)))
    if not np.isfinite(value):
        raise NumericError(f"total loss is non-finite: {value}")
    return value
