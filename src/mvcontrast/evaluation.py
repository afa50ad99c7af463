"""Embedding, 1-NN classification, and the repeated-split experiment.

Per repeat: draw a fresh per-class train/test split, train on the training
views, then score a 1-NN classifier on every per-view embedding (strategy I),
their per-repeat mean, and the summed fusion embedding (strategy II).
Accuracies are aggregated over repeats as mean and population standard
deviation.
"""

from dataclasses import dataclass, field

import numpy as np

from . import trainer
from .data import SplitSpec, split
from .errors import ConfigError, DataError, NumericError


def project(model, ds):
    """Per-view embeddings Y_m = P_m^T X_m; one that overflows or is not
    finite raises NumericError naming its view."""
    if len(model.projections) != ds.V:
        raise DataError(f"model has {len(model.projections)} views, data has {ds.V}")
    out = []
    for m, Pm in enumerate(model.projections):
        if Pm.shape[0] != ds.view_dims[m]:
            raise DataError(
                f"view {m}: model expects dimension {Pm.shape[0]}, "
                f"data has {ds.view_dims[m]}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                Ym = Pm.T @ ds.views[m]
        except FloatingPointError as exc:
            raise NumericError(f"floating-point {exc} projecting view {m}") from exc
        if not np.isfinite(Ym).all():
            raise NumericError(f"non-finite embedding of view {m}")
        out.append(Ym)
    return out


def knn_accuracy(train_emb, train_labels, test_emb, test_labels):
    """1-NN accuracy under squared Euclidean distance; ties go to the
    smallest training index."""
    train_emb = np.asarray(train_emb, dtype=float)
    test_emb = np.asarray(test_emb, dtype=float)
    if train_emb.shape[1] == 0:
        raise ConfigError("empty training set")
    if train_emb.shape[0] != test_emb.shape[0]:
        raise DataError(
            f"embedding dims differ: train {train_emb.shape[0]}, "
            f"test {test_emb.shape[0]}")
    train_labels, test_labels = np.asarray(train_labels), np.asarray(test_labels)
    for name, labels, emb in (("train", train_labels, train_emb),
                              ("test", test_labels, test_emb)):
        if labels.shape != (emb.shape[1],):
            raise DataError(
                f"{name} labels of shape {labels.shape} for {emb.shape[1]} samples")
    try:
        with np.errstate(over="raise", invalid="raise"):
            sq_tr = np.sum(train_emb ** 2, axis=0)
            # squared distances, test rows x train cols; argmin takes the
            # first (smallest-index) minimizer
            d2 = sq_tr[None, :] - 2.0 * (test_emb.T @ train_emb)
    except FloatingPointError as exc:
        raise NumericError(f"floating-point {exc} in 1-NN distances") from exc
    if not np.all(np.isfinite(d2)):
        raise NumericError("non-finite 1-NN distances")
    nearest = np.argmin(d2, axis=1)
    predicted = train_labels[nearest]
    return float(np.mean(predicted == test_labels))


@dataclass
class ResultsTable:
    """Accuracy mean/std per (row label, M), aggregated over repeats."""

    rows: list = field(default_factory=list)  # dicts: row_label, M, mean, std
    repeats: int = 1

    def add(self, row_label, M, accuracies):
        acc = np.asarray(accuracies, dtype=float)
        if np.any(acc < 0) or np.any(acc > 1):
            raise DataError(f"accuracy outside [0, 1] for row {row_label}")
        self.rows.append({
            "row_label": row_label,
            "M": int(M),
            "mean": float(acc.mean()),
            "std": float(acc.std()),  # population std over repeats
        })

    def to_csv(self):
        lines = ["row_label,M,mean,std,repeats"]
        for r in self.rows:
            lines.append(f"{r['row_label']},{r['M']},{r['mean']:.6f},"
                         f"{r['std']:.6f},{self.repeats}")
        return "\n".join(lines) + "\n"

    def to_text(self):
        """Aligned table, one section per M, accuracies as percent."""
        out = []
        for M in sorted({r["M"] for r in self.rows}):
            out.append(f"Train-{M}")
            for r in self.rows:
                if r["M"] != M:
                    continue
                out.append(f"  {r['row_label']:<10s} "
                           f"{100 * r['mean']:6.2f} +/- {100 * r['std']:.2f}")
        return "\n".join(out) + "\n"


def evaluate_split(model, train_ds, test_ds):
    """Accuracy per view, their mean, and the fused embedding, on one split."""
    train_views = project(model, train_ds)
    test_views = project(model, test_ds)
    per_view = [knn_accuracy(tr, train_ds.labels, te, test_ds.labels)
                for tr, te in zip(train_views, test_views)]
    fused = knn_accuracy(np.sum(train_views, axis=0), train_ds.labels,
                         np.sum(test_views, axis=0), test_ds.labels)
    return per_view, float(np.mean(per_view)), fused


def run_experiment(ds, h, M, repeats, base_seed, fixed_model=None):
    """The repeated-split protocol for one training-set size M.

    Each repeat draws the split from (base_seed, repeat) and, unless a
    pre-trained `fixed_model` is supplied, fits a fresh model on the
    training half with the same derived seed.
    """
    if ds.labels is None:
        raise ConfigError("run_experiment requires labels")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    rows = []  # per repeat: the per-view accuracies, their mean, fused
    for r in range(repeats):
        spec = SplitSpec(per_class=M, seed=base_seed, repeat_index=r)
        train_ds, test_ds = split(ds, spec)
        if fixed_model is None:
            model, _ = trainer.fit(train_ds, h, seed=int(base_seed) + r)
        else:
            model = fixed_model
        per_view, mean_acc, fused_acc = evaluate_split(model, train_ds, test_ds)
        rows.append([*per_view, mean_acc, fused_acc])
    table = ResultsTable(repeats=repeats)
    for label, accuracies in zip([*ds.view_names, "Mean", "fused"], zip(*rows)):
        table.add(label, M, accuracies)
    return table


def merge_tables(tables):
    """Concatenate per-M tables into one (same repeat count required)."""
    repeats = {t.repeats for t in tables}
    if len(repeats) != 1:
        raise ConfigError("cannot merge tables with differing repeat counts")
    merged = ResultsTable(repeats=repeats.pop())
    for t in tables:
        merged.rows.extend(t.rows)
    return merged
