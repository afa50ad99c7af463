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
reconstruction_penalty).  Both heads score pairs with one cosine similarity
(`similarity`) and one max-shifted row log-sum-exp (`row_logsumexp`), which
form their n x n intermediates one block of rows at a time (`row_blocks`), as
the gradients and 1-NN's distances do.  In this module Y^m is formed only in
`view_embeddings` (`evaluation.project` forms it for 1-NN), the pairing only
in `sample_logits`.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import DataError, NumericError

_BLOCK_BYTES = 1 << 18  # one block of row_blocks' scratch; 256 KiB stays in L2 cache


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
        self.offsets = [int(o) for o in np.cumsum([0, *self.view_dims])[:-1]]

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


def view_embeddings(P, ds):
    """Per-view embeddings Y^m = P_m^T X^m (d x n each)."""
    return [P.block(m).T @ ds.views[m] for m in range(ds.V)]


def row_blocks(n_rows, width):
    """[(rows, buf)] over consecutive blocks of rows of an n_rows x `width`
    float64 array: `rows` a slice of about _BLOCK_BYTES of rows and at least
    two (a one-row matrix product goes through gemv, which may round
    differently from gemm, so a one-row tail joins the block before it);
    `buf` a rows x width view of one scratch array the blocks share."""
    step = max(2, _BLOCK_BYTES // (8 * width))
    stops = [*range(step, n_rows - 1, step), n_rows]
    scratch = np.empty((min(step + 1, n_rows), width))
    return [(slice(start, stop), scratch[:stop - start])
            for start, stop in zip([0, *stops], stops)]


def q_rows(a, b, rows, norm_eps, out):
    """Rows `rows` of the similarity denominator Q = a b^T + norm_eps over
    the column norms a and b, written into `out` in np.outer's arithmetic."""
    np.multiply(a[rows, None], b, out=out)
    out += norm_eps


def similarity(A, B, na, nb, tau, norm_eps, out=None):
    """S = A^T B / (Q tau), Q = na nb^T + norm_eps: the temperature-scaled
    cosine similarities between the columns of A and B, given their column
    norms na and nb.  S is written into `out` when given (any float64 view
    of the right shape); Q is formed one block of rows at a time."""
    S = np.matmul(A.T, B, out=out)
    for rows, q in row_blocks(*S.shape):
        q_rows(na, nb, rows, norm_eps, q)
        q *= tau
        S[rows] /= q
    return S


def sim_matrix(A, B, tau, norm_eps, out=None):
    """Pairwise temperature-scaled cosine similarities between columns,
    S = A^T B / (Q tau) with Q = ||a_i|| ||b_k|| + norm_eps (see similarity).
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return similarity(A, B, np.linalg.norm(A, axis=0), np.linalg.norm(B, axis=0),
                      tau, norm_eps, out)


def shifted_exp_sums(a, shift):
    """Row sums of exp(a - shift) for a 2-D array `a` and a column of
    shifts, one block of rows at a time."""
    sums = np.empty(a.shape[0])
    for rows, e in row_blocks(*a.shape):
        np.subtract(a[rows], shift[rows], out=e)
        sums[rows] = np.exp(e, out=e).sum(axis=1)
    return sums


def row_logsumexp(a):
    """log(sum(exp(row))) for each row of a 2-D float array.  Each row's
    maximum (0 where it is not finite) is subtracted before exponentiating,
    so no term overflows."""
    shift = a.max(axis=1, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    return np.log(shifted_exp_sums(a, shift)) + shift[:, 0]


def sample_logits(Y, m, h):
    """Anchor view m's pairing, (others, logits, pos): the other views v,
    their similarities sim_matrix(Y^m, Y^v) side by side (n x (V-1)n, column
    block j the pair with others[j]) and the positives, the diagonal of each
    block (n x (V-1))."""
    others = [v for v in range(len(Y)) if v != m]
    n = Y[m].shape[1]
    logits = np.empty((n, len(others) * n))
    sims = [sim_matrix(Y[m], Y[v], h.tau1, h.norm_eps,
                       out=logits[:, j * n:(j + 1) * n])
            for j, v in enumerate(others)]
    pos = np.stack([np.diagonal(S) for S in sims], axis=1)
    return others, logits, pos


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
        logits, pos = sample_logits(Y, m, h)[1:]
        terms = row_logsumexp(logits) - row_logsumexp(pos)
        del logits  # free this anchor's logits before the next anchor's are built
        if not np.all(np.isfinite(terms)):
            bad = int(np.flatnonzero(~np.isfinite(terms))[0])
            raise NumericError(f"non-finite InfoNCE term at view {m}, anchor {bad}")
        total += float(np.mean(terms))
    return total


def _structural_terms(Wm, Wv, h):
    """The per-anchor terms of structural_contrastive's pair (m, v); entry i
    reads W^m only through its column i."""
    S = sim_matrix(Wm, Wv, h.tau2, h.norm_eps)
    return row_logsumexp(S) - np.diagonal(S)


def structural_contrastive(W, h):
    """Structural-level InfoNCE over reconstruction-coefficient columns.

    sum over ordered view pairs (m, v != m) of the mean over anchors i of
    -log(e^{sim(w_i^m, w_i^v)} / sum_k e^{sim(w_i^m, w_k^v)}); the
    denominator includes k = i.
    """
    total = 0.0
    for m, v in permutations(range(W.V), 2):
        terms = _structural_terms(W.W[m], W.W[v], h)
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
