"""Alternating Adam optimization of the dual contrastive objective.

One outer iteration = a Gauss-Seidel sweep over the views, which steps every
coefficient column of view m with Adam from one gradient matrix built after
view m-1 is written, followed by one Adam update of the stacked projection.
The loop stops when the total loss changes by at most `tol` or after
`max_iters` iterations.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import gradients, losses
from .data import read_matrix, write_matrix
from .errors import ConfigError, DataError, NumericError
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
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient passed to adam_step")
    t = st.t + 1
    m1 = h.b1 * st.m1 + (1.0 - h.b1) * grad
    m2 = h.b2 * st.m2 + (1.0 - h.b2) * grad ** 2
    m1_hat = m1 / (1.0 - h.b1 ** t)
    m2_hat = m2 / (1.0 - h.b2 ** t)
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
        del ctx, step  # free view m's n x n blocks before view m+1's are built
    state.last_max_step = max_step
    return state


def fit(ds, h, seed):
    """Run the alternating scheme to convergence; returns (Model, TrainState)."""
    t0 = time.perf_counter()
    state = init_state(ds, h, seed)
    converged = False
    while state.iter < h.max_iters:
        sweep_W(state, ds, h)
        g = gradients.grad_P(state.P, state.W, ds, h)
        new_P, state.adam_P = adam_step(state.P.P, g, state.adam_P, h)
        state.last_max_step = max(state.last_max_step,
                                  float(np.max(np.abs(new_P - state.P.P))))
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
            "wall_clock_s": time.perf_counter() - t0,
        })
    return model, state


def save_model(model, out_dir, view_names=None):
    """Write the model as a JSON manifest plus one CSV per view projection."""
    os.makedirs(out_dir, exist_ok=True)
    view_names = view_names or [f"view{m}" for m in range(len(model.projections))]
    files = []
    for name, Pm in zip(view_names, model.projections):
        fname = f"projection_{name}.csv"
        write_matrix(os.path.join(out_dir, fname), Pm)
        files.append(fname)
    manifest = {
        "projection_files": files,
        "view_names": view_names,
        "view_dims": [int(p.shape[0]) for p in model.projections],
        "d": int(model.projections[0].shape[1]),
        "hyperparams": model.hyper.as_dict(),
        "meta": model.meta,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def load_model(model_dir):
    """Read a model written by `save_model`; any defect is a DataError."""
    path = os.path.join(model_dir, "manifest.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model manifest {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"model manifest {path} is not valid JSON: {exc}") from None
    try:
        h = Hyperparams(**manifest["hyperparams"])
        shapes = [(dim, manifest["d"]) for dim in manifest["view_dims"]]
        paths = [os.path.join(model_dir, f) for f in manifest["projection_files"]]
    except KeyError as exc:
        raise DataError(f"model manifest {path} lacks key {exc}") from None
    except (TypeError, ConfigError) as exc:
        raise DataError(f"model manifest {path}: {exc}") from None
    projections = []
    for p, shape in zip(paths, shapes):
        Pm = read_matrix(p)
        if Pm.shape != shape:
            raise DataError(f"{p}: shape {Pm.shape} does not match manifest")
        if not np.all(np.isfinite(Pm)):
            raise DataError(f"{p}: projection contains non-finite entries")
        projections.append(Pm)
    return Model(projections=projections, hyper=h, meta=manifest.get("meta", {}))
