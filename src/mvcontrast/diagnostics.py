"""Numeric checks of the algebra behind the reconstruction term.

For a coefficient matrix W whose columns each sum to 1:
  * every column of (I - W)(I - W)^T sums to 0;
  * ||Y - Y W||_F^2 = 1/2 sum_{i,k} ||y_i - y_k||^2 S_{i,k}
    with the scatter matrix S = W + W^T - W W^T.

Both facts require L1 column normalization (sums of 1), not unit L2 norms,
and the pairwise form carries the explicit 1/2.
"""

import numpy as np

from .errors import ConfigError


def scatter_matrix(Wm):
    """S = W + W^T - W W^T; symmetric for any square W."""
    Wm = np.asarray(Wm, dtype=float)
    return Wm + Wm.T - Wm @ Wm.T


def normalize_columns_l1(Wm):
    """Rescale each column to sum to 1 (columns with zero sum are rejected)."""
    Wm = np.asarray(Wm, dtype=float)
    sums = Wm.sum(axis=0)
    if np.any(np.abs(sums) < 1e-12):
        raise ConfigError("cannot L1-normalize a column with zero sum")
    return Wm / sums


def _require_unit_column_sums(Wm, tol=1e-8):
    sums = Wm.sum(axis=0)
    if np.max(np.abs(sums - 1.0)) > tol:
        raise ConfigError(
            f"columns must sum to 1 (worst deviation {np.max(np.abs(sums - 1.0)):.3g})")


def column_sum_residual(Wm):
    """max_k |sum_i [(I - W)(I - W)^T]_{i,k}| ; ~0 when columns sum to 1."""
    Wm = np.asarray(Wm, dtype=float)
    _require_unit_column_sums(Wm)
    IW = np.eye(Wm.shape[0]) - Wm
    # Left-associate 1^T (I-W)(I-W)^T so the small factor 1^T(I-W) is formed
    # first; summing the product matrix directly loses the cancellation when
    # normalization has amplified individual entries.
    residuals = IW.sum(axis=0) @ IW.T
    return float(np.max(np.abs(residuals)))


def laplacian_equivalence_gap(Y, Wm):
    """| tr(Y (I-W)(I-W)^T Y^T) - 1/2 sum ||y_i - y_k||^2 S_{i,k} |."""
    Y = np.asarray(Y, dtype=float)
    Wm = np.asarray(Wm, dtype=float)
    _require_unit_column_sums(Wm)
    n = Wm.shape[0]
    IW = np.eye(n) - Wm
    lhs = float(np.trace(Y @ IW @ IW.T @ Y.T))
    S = scatter_matrix(Wm)
    sq = np.sum(Y ** 2, axis=0)
    dist2 = sq[:, None] + sq[None, :] - 2.0 * (Y.T @ Y)
    rhs = 0.5 * float(np.sum(dist2 * S))
    return abs(lhs - rhs)


def cross_view_alignment(W):
    """Mean cosine between same-sample coefficient columns across view pairs."""
    if W.V < 2:
        raise ConfigError("alignment needs at least 2 views")
    norms = [np.linalg.norm(Wm, axis=0) for Wm in W.W]
    values = [np.sum(W.W[m] * W.W[v], axis=0) / (norms[m] * norms[v] + 1e-12)
              for m in range(W.V) for v in range(W.V) if v != m]
    return float(np.mean(values))
