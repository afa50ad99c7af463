"""Multi-view data: matrix files, validation, synthesis, splitting.

On disk a view is CSV with one row per sample; in memory every view is kept
feature-major (D_m x n) so each sample is a column vector.  `read_matrix`
and `write_matrix` are the only code that knows the on-disk matrix format.
"""

import itertools
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

@dataclass
class MultiViewDataset:
    """V aligned views (D_m x n each) plus optional integer labels."""

    views: list
    labels: Optional[np.ndarray] = None
    view_names: list = field(default_factory=list)

    def __post_init__(self):
        self.views = [np.asarray(v, dtype=float) for v in self.views]
        if len(self.views) < 2:
            raise DataError(f"need at least 2 views, got {len(self.views)}")
        n = self.views[0].shape[1]
        for m, v in enumerate(self.views):
            if v.ndim != 2:
                raise DataError(f"view {m} is not a matrix")
            if v.shape[1] != n:
                raise DataError(
                    f"view {m} has {v.shape[1]} samples, view 0 has {n}")
            if not np.all(np.isfinite(v)):
                raise DataError(f"view {m} contains non-finite entries")
        if n < 1:
            raise DataError("views are empty")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (n,):
                raise DataError(
                    f"labels length {self.labels.shape} does not match n={n}")
        if not self.view_names:
            self.view_names = [f"view{m}" for m in range(len(self.views))]
        elif len(self.view_names) != len(self.views):
            raise DataError("view_names length does not match view count")

    @property
    def V(self):
        return len(self.views)

    @property
    def n(self):
        return self.views[0].shape[1]

    @property
    def view_dims(self):
        return [v.shape[0] for v in self.views]

    def class_sizes(self):
        if self.labels is None:
            raise ConfigError("dataset has no labels")
        _, counts = np.unique(self.labels, return_counts=True)
        return counts


@dataclass
class SplitSpec:
    per_class: int
    seed: int
    repeat_index: int = 0

    def __post_init__(self):
        if self.per_class < 1:
            raise ConfigError(f"per_class must be >= 1, got {self.per_class}")


def read_matrix(path):
    """Read a CSV matrix file into a 2-D float array.

    Blank and whitespace-only lines are skipped; every other line must hold
    the same number of comma-separated numbers.  `#` is not a comment.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = (line for line in fh if line.strip())
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            return np.loadtxt(itertools.chain([first], rows), delimiter=",",
                              ndmin=2, comments=None)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # ragged row, non-numeric cell or bad UTF-8; numpy names row and column
        raise DataError(f"{path}: {exc}") from None


def write_matrix(path, matrix):
    """Write a 2-D array as CSV that `read_matrix` reads back bit-exactly."""
    # %.17g round-trips IEEE-754 doubles exactly through text
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")


def load_views(view_paths, label_path=None):
    """Read sample-major CSV views (and optional labels) into a dataset."""
    matrices = [read_matrix(p) for p in view_paths]
    n_rows = {m.shape[0] for m in matrices}
    if len(n_rows) > 1:
        counts = ", ".join(f"{p}: {m.shape[0]}" for p, m in zip(view_paths, matrices))
        raise DataError(f"view files disagree on sample count ({counts})")
    if matrices[0].shape[0] < 2:
        raise DataError(f"need at least 2 samples, got {matrices[0].shape[0]}")
    labels = None
    if label_path is not None:
        raw = read_matrix(label_path)
        if raw.shape[1] != 1:
            raise DataError(f"{label_path}: expected one integer per line")
        # beyond 2**53 a double no longer tells neighbouring integers apart
        if not np.all((np.abs(raw) < 2.0 ** 53) & (raw == np.round(raw))):
            raise DataError(
                f"{label_path}: labels must be integers of magnitude below 2**53")
        labels = raw[:, 0].astype(int)
        if labels.shape[0] != matrices[0].shape[0]:
            raise DataError(
                f"{label_path}: {labels.shape[0]} labels for {matrices[0].shape[0]} samples")
    names = [os.path.splitext(os.path.basename(p))[0] for p in view_paths]
    return MultiViewDataset(views=[m.T for m in matrices], labels=labels,
                            view_names=names)


def save_views(ds, out_dir, basenames=None):
    """Write the dataset back to sample-major CSV files; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    basenames = basenames or ds.view_names
    paths = []
    for name, view in zip(basenames, ds.views):
        path = os.path.join(out_dir, f"{name}.csv")
        write_matrix(path, view.T)
        paths.append(path)
    label_path = None
    if ds.labels is not None:
        label_path = os.path.join(out_dir, "labels.csv")
        write_matrix(label_path, ds.labels[:, None])
    return paths, label_path


def view_offsets(view_dims):
    """Row offset of each view block inside the stacked D x n frame."""
    return [int(o) for o in np.concatenate([[0], np.cumsum(view_dims)[:-1]])]


def _split_rng(spec):
    # one independent, reproducible PCG64 stream per (seed, repeat)
    return np.random.default_rng([int(spec.seed), int(spec.repeat_index)])


def split(ds, spec):
    """Pick per_class training samples per class; the rest become the test set."""
    if ds.labels is None:
        raise ConfigError("split requires labels")
    sizes = ds.class_sizes()
    if spec.per_class >= sizes.min():
        raise ConfigError(
            f"per_class={spec.per_class} must be smaller than the smallest "
            f"class size {sizes.min()}")
    rng = _split_rng(spec)
    train_idx = []
    for cls in np.unique(ds.labels):
        members = np.flatnonzero(ds.labels == cls)
        chosen = rng.choice(members, size=spec.per_class, replace=False)
        train_idx.extend(chosen.tolist())
    train_idx = np.sort(np.array(train_idx, dtype=int))
    mask = np.zeros(ds.n, dtype=bool)
    mask[train_idx] = True
    test_idx = np.flatnonzero(~mask)

    def take(idx):
        return MultiViewDataset(
            views=[v[:, idx] for v in ds.views],
            labels=ds.labels[idx],
            view_names=list(ds.view_names))

    return take(train_idx), take(test_idx)


def synth_blobs(V, classes, per_class, dims, noise_sigma, seed,
                center_scale=3.0):
    """Gaussian blob views: one latent center per (class, view), shared labels."""
    if V < 1 or classes < 1 or per_class < 1:
        raise ConfigError("V, classes and per_class must all be >= 1")
    if len(dims) != V:
        raise ConfigError(f"dims has {len(dims)} entries for V={V}")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng([int(seed)])
    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    views = []
    for dim in dims:
        centers = rng.normal(scale=center_scale, size=(classes, dim))
        samples = centers[labels] + rng.normal(scale=noise_sigma, size=(n, dim))
        views.append(samples.T)
    return MultiViewDataset(views=views, labels=labels)


def standardize(ds):
    """Per-feature zero-mean/unit-variance copy (constant features left centered)."""
    views = []
    for v in ds.views:
        mu = v.mean(axis=1, keepdims=True)
        sd = v.std(axis=1, keepdims=True)
        sd[sd == 0] = 1.0
        views.append((v - mu) / sd)
    return MultiViewDataset(views=views, labels=ds.labels,
                            view_names=list(ds.view_names))
