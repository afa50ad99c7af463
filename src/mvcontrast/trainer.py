"""Alternating Adam optimization of the dual contrastive objective.

One outer iteration = a Gauss-Seidel sweep over the views, which steps every
coefficient column of view m with Adam from one gradient matrix built after
view m-1 is written, followed by one Adam update of the stacked projection.
The loop stops when the total loss changes by at most `tol` or after
`max_iters` iterations.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import gradients, losses
from .data import _view_names, read_json, read_matrix, write_json, write_matrix
from .errors import ConfigError, DataError, NumericError, numeric_errors
from .params import Hyperparams


@dataclass
class AdamState:
    m1: np.ndarray
    m2: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, param):
        return cls(m1=np.zeros_like(param), m2=np.zeros_like(param), t=0)


def adam_step(param, grad, st, h):
    """One bias-corrected Adam update; returns (new param, new state)."""
    grad = np.asarray(grad, dtype=float)
    t = st.t + 1
    m1 = h.b1 * st.m1 + (1.0 - h.b1) * grad
    m2 = h.b2 * st.m2 + (1.0 - h.b2) * grad ** 2
    m1_hat = m1 / (1.0 - h.b1 ** t)
    m2_hat = m2 / (1.0 - h.b2 ** t)
    # NaN or inf in grad, or a grad² that overflows, leaves m2_hat non-finite;
    # an infinite m2_hat would make every later step 0, a false convergence
    if not np.isfinite(m2_hat).all():
        raise NumericError("non-finite gradient or squared gradient in adam_step")
    new_param = param - h.gamma * m1_hat / (np.sqrt(m2_hat) + h.eps_adam)
    return new_param, AdamState(m1=m1, m2=m2, t=t)


@dataclass
class TrainState:
    P: losses.ProjectionStack
    W: losses.CoefficientSet
    adam_P: AdamState
    adam_W: list  # adam_W[m][i] is the state of column w_i^m
    iter: int = 0
    loss_history: list = field(default_factory=list)
    last_max_step: float = 0.0


@dataclass
class Model:
    projections: list  # P_m, each D_m x d
    hyper: Hyperparams
    meta: dict
    view_names: list = field(default_factory=list)  # view0, view1, ... if empty

    def __post_init__(self):
        self.projections = [np.asarray(Pm, dtype=float) for Pm in self.projections]
        self.view_names = _view_names(self.view_names, len(self.projections),
                                      ConfigError)
        # each as save_model writes it and load_model reads it back
        if not all(Pm.ndim == 2 and Pm.size and Pm.shape[1] == self.hyper.d
                   and np.isfinite(Pm).all() for Pm in self.projections):
            raise ConfigError(f"projections must be non-empty finite matrices of "
                              f"hyper.d={self.hyper.d} columns, got shapes "
                              f"{[Pm.shape for Pm in self.projections]}")


def init_state(ds, h, seed):
    """Seeded start: per-view QR-orthonormal P_m; W columns near-uniform.

    Each coefficient column starts at 1/n plus a small per-view Gaussian
    jitter.  The jitter keeps the views' coefficient structures distinct at
    step 0 (identical starts would pin the cross-view alignment at its
    maximum) while preserving nonzero column norms for the cosine terms.
    """
    h.validate_dims(ds.view_dims)
    rng = np.random.default_rng([int(seed)])
    blocks = []
    for dim in ds.view_dims:
        q, _ = np.linalg.qr(rng.normal(size=(dim, h.d)))
        blocks.append(q)
    P = losses.ProjectionStack.from_blocks(blocks)
    n = ds.n
    W = losses.CoefficientSet(
        [np.full((n, n), 1.0 / n) + rng.normal(scale=0.5 / n, size=(n, n))
         for _ in range(ds.V)])
    adam_W = [[AdamState.zeros_like(W.W[m][:, i]) for i in range(n)]
              for m in range(ds.V)]
    state = TrainState(P=P, W=W, adam_P=AdamState.zeros_like(P.P),
                       adam_W=adam_W)
    state.loss_history.append(losses.total_loss(P, W, ds, h))
    return state


def sweep_W(state, ds, h):
    """One Gauss-Seidel pass over the views of per-column Adam updates.

    View m's gradients are one matrix, built after view m-1 is written; its
    column i reads only w_i^m, so it stays exact while other columns step.
    """
    W = state.W
    max_step = 0.0
    for m in range(W.V):
        ctx = gradients.column_context(m, state.P, W, ds, h)
        Wm, adam_m = W.W[m], state.adam_W[m]
        step = Wm.copy()
        for i in range(W.n):
            g = gradients.grad_w(i, m, state.P, W, ds, h, ctx=ctx)
            Wm[:, i], adam_m[i] = adam_step(Wm[:, i], g, adam_m[i], h)
        # |W^m after - W^m before|, in the buffer that held the copy
        np.subtract(Wm, step, out=step)
        max_step = max(max_step, float(np.abs(step, out=step).max()))
        # free view m's n x n blocks before view m+1's are built; g is a
        # column of ctx and holds it
        del ctx, step, g
    state.last_max_step = max_step
    return state


def fit(ds, h, seed):
    """Run the alternating scheme to convergence; returns (Model, TrainState).

    An overflow or invalid operation, or an iteration in which every step
    rounds to 0, raises NumericError naming the iteration, 0 for the initial
    loss, rather than letting the steps stall into a false convergence.
    """
    converged = False
    with numeric_errors("in iteration 0") as guard:
        state = init_state(ds, h, seed)
        while state.iter < h.max_iters:
            guard.where = f"in iteration {state.iter + 1}"
            sweep_W(state, ds, h)
            g = gradients.grad_P(state.P, state.W, ds, h)
            new_P, state.adam_P = adam_step(state.P.P, g, state.adam_P, h)
            state.last_max_step = max(state.last_max_step,
                                      float(np.max(np.abs(new_P - state.P.P))))
            if state.last_max_step == 0.0:
                raise NumericError(f"every step rounded to 0 {guard.where}")
            state.P = losses.ProjectionStack(P=new_P, view_dims=ds.view_dims)
            state.iter += 1
            state.loss_history.append(losses.total_loss(state.P, state.W, ds, h))
            if abs(state.loss_history[-2] - state.loss_history[-1]) <= h.tol:
                converged = True
                break
    model = Model(
        projections=[state.P.block(m).copy() for m in range(ds.V)],
        hyper=h,
        meta={
            "seed": int(seed),
            "iterations": state.iter,
            "converged": converged,
            "final_loss": state.loss_history[-1],
        },
        view_names=ds.view_names)
    return model, state


def save_model(model, directory):
    """Write the model as a JSON manifest plus one CSV per view projection."""
    os.makedirs(directory, exist_ok=True)
    files = []
    for name, Pm in zip(model.view_names, model.projections):
        fname = f"projection_{name}.csv"
        write_matrix(os.path.join(directory, fname), Pm)
        files.append(fname)
    manifest = {
        "projection_files": files,
        "view_names": model.view_names,
        "hyperparams": model.hyper.as_dict(),
        "meta": model.meta,
    }
    return write_json(os.path.join(directory, "manifest.json"), manifest)


def load_model(model_dir):
    """Read a model written by `save_model`; any defect is a DataError."""
    path = os.path.join(model_dir, "manifest.json")
    manifest = read_json(path, "model manifest", DataError)
    try:
        files = manifest["projection_files"]
        if not all(os.path.basename(f) == f not in ("", ".", "..") for f in files):
            raise DataError(f"model manifest {path}: projection_files must be plain "
                            f"file names, got {files!r}")
        return Model(projections=[read_matrix(os.path.join(model_dir, f))
                                  for f in files],
                     hyper=Hyperparams(**manifest["hyperparams"]),
                     meta=manifest.get("meta", {}), view_names=manifest["view_names"])
    except KeyError as exc:
        raise DataError(f"model manifest {path} lacks key {exc}") from None
    except (TypeError, ConfigError) as exc:
        raise DataError(f"model manifest {path}: {exc}") from None
