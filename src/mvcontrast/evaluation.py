"""Embedding, 1-NN classification, and the repeated-split experiment.

Per repeat: draw a fresh per-class train/test split, train on the training
views, then score a 1-NN classifier on every per-view embedding (strategy I),
their per-repeat mean, and the summed fusion embedding (strategy II).
Accuracies are aggregated over repeats as mean and population standard
deviation.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, params, trainer
from .data import SplitSpec, split
from .errors import ConfigError, DataError, NumericError, numeric_errors


def project(model, ds):
    """Per-view embeddings Y_m = P_m^T X_m of the model's views, the data's by
    name; one that overflows or is not finite raises NumericError naming it."""
    if model.view_names != ds.view_names:
        raise DataError(f"model has views {model.view_names}, data has {ds.view_names}")
    out = []
    for m, Pm in enumerate(model.projections):
        if Pm.shape[0] != ds.view_dims[m]:
            raise DataError(
                f"view {m}: model expects dimension {Pm.shape[0]}, "
                f"data has {ds.view_dims[m]}")
        with numeric_errors(f"projecting view {m}"):
            Ym = Pm.T @ ds.views[m]
        if not np.isfinite(Ym).all():
            raise NumericError(f"non-finite embedding of view {m}")
        out.append(Ym)
    return out


def _distance_blocks(train_emb, test_emb):
    """Yield (start, D) per block of test samples (losses.row_blocks),
    D[i, j] = |tr_j|^2 - 2 te_(start+i).tr_j in one reused buffer (the
    distance less |te|^2)."""
    sq_tr = np.sum(train_emb ** 2, axis=0)
    for rows, d in losses.row_blocks(test_emb.shape[1], train_emb.shape[1]):
        np.matmul(test_emb[:, rows].T, train_emb, out=d)
        d *= 2.0
        yield rows.start, np.subtract(sq_tr, d, out=d)


def knn_accuracy(train_emb, train_labels, test_emb, test_labels):
    """1-NN accuracy under squared Euclidean distance; ties go to the
    smallest training index."""
    train_emb = np.asarray(train_emb, dtype=float)
    test_emb = np.asarray(test_emb, dtype=float)
    train_labels, test_labels = np.asarray(train_labels), np.asarray(test_labels)
    for name, labels, emb in (("train", train_labels, train_emb),
                              ("test", test_labels, test_emb)):
        if emb.shape[1] == 0:
            raise ConfigError(f"empty {name} set")
        if labels.shape != (emb.shape[1],):
            raise DataError(
                f"{name} labels of shape {labels.shape} for {emb.shape[1]} samples")
    if train_emb.shape[0] != test_emb.shape[0]:
        raise DataError(
            f"embedding dims differ: train {train_emb.shape[0]}, "
            f"test {test_emb.shape[0]}")
    nearest = np.empty(test_emb.shape[1], dtype=np.intp)
    with numeric_errors("in 1-NN distances"):
        for start, d2 in _distance_blocks(train_emb, test_emb):
            if not np.isfinite(d2).all():
                raise NumericError("non-finite 1-NN distances")
            # argmin takes the first (smallest-index) minimizer
            nearest[start:start + len(d2)] = np.argmin(d2, axis=1)
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


# each format eval writes, as results.<format>, and its renderer
FORMATS = {"csv": ResultsTable.to_csv, "txt": ResultsTable.to_text}


def _output_args(formats=[*FORMATS]):
    """The config's output section, which only eval reads, as a dict."""
    known = [*FORMATS]
    params._require(isinstance(formats, list) and all(f in known for f in formats),
                    "output.formats", f"a list drawn from {known}", formats)
    return dict(formats=list(formats))


def evaluate_split(Y, labels, train_idx, test_idx):
    """Accuracy per view, their mean, and the fused embedding, on the
    train_idx/test_idx split of every sample's per-view embeddings Y."""
    def score(E):
        return knn_accuracy(E[:, train_idx], labels[train_idx],
                            E[:, test_idx], labels[test_idx])

    per_view = [score(E) for E in Y]
    return per_view, float(np.mean(per_view)), score(np.sum(Y, axis=0))


def run_experiment(ds, h, M, repeats, base_seed, fixed_model=None):
    """The repeated-split protocol for one training-set size M.

    Each repeat draws the split from (base_seed, repeat) and, unless a
    pre-trained `fixed_model` is supplied, fits a fresh model on the
    training samples with the same derived seed; each model projects ds once.
    """
    repeats = params._integer("repeats", repeats, 1)
    Y = None if fixed_model is None else project(fixed_model, ds)
    rows = []  # per repeat: the per-view accuracies, their mean, fused
    for r in range(repeats):
        spec = SplitSpec(per_class=M, seed=base_seed, repeat_index=r)
        train_idx, test_idx = split(ds, spec)
        if fixed_model is None:
            model, _ = trainer.fit(ds.subset(train_idx), h, seed=spec.seed + r)
            Y = project(model, ds)
        per_view, mean_acc, fused = evaluate_split(Y, ds.labels, train_idx, test_idx)
        rows.append([*per_view, mean_acc, fused])
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


def _protocol_args(M, repeats, base_seed, d_sweep):
    """run_protocol's section arguments as a dict, checked as a config's experiment
    section: a single M is a list of one, and no M or d_sweep entry repeats."""
    key = "experiment.{}".format
    M = params._integers(key("M"), M if isinstance(M, (list, tuple)) else [M], 1)
    repeats = params._integer(key("repeats"), repeats, 1)
    base_seed = params._integer(key("base_seed"), base_seed, 0)
    if d_sweep not in (None, []):  # an empty sweep evaluates h.d alone
        d_sweep = params._integers(key("d_sweep"), d_sweep, 1)
    for name, values in (("M", M), ("d_sweep", d_sweep or [])):
        params._require(len(set(values)) == len(values), key(name),
                        "a list of distinct integers", values)
    return dict(M=M, repeats=repeats, base_seed=base_seed, d_sweep=d_sweep)


def run_protocol(ds, h, M=4, repeats=5, base_seed=0, d_sweep=None, fixed_model=None):
    """run_experiment per M and per d of d_sweep (h.d alone if it is empty, and
    a fixed model's one d), merging per M the table of the best Mean row, the
    first d on a tie; the defaults and checks are the config's experiment section."""
    M, repeats, base_seed, d_sweep = _protocol_args(M, repeats, base_seed,
                                                    d_sweep).values()
    params._require(fixed_model is None or not d_sweep, "experiment.d_sweep",
                    "empty with a fixed model, which has one d", d_sweep)
    hypers = [h]
    if fixed_model is None:
        hypers = [replace(h, d=d) for d in d_sweep or [h.d]]
        for hd in hypers:  # before the first fit, not at the first fit of hd
            hd.validate_dims(ds.view_dims)
    if ds.labels is not None:  # else split says that it needs them
        smallest = np.unique(ds.labels, return_counts=True)[1].min()
        params._require(max(M) < smallest, "experiment.M", "a list of integers "
                        f"below the smallest class size {smallest}", M)
    best = []
    for m in M:
        tables = [run_experiment(ds, hd, M=m, repeats=repeats, base_seed=base_seed,
                                 fixed_model=fixed_model) for hd in hypers]
        best.append(max(tables, key=lambda t: [
            r["mean"] for r in t.rows if r["row_label"] == "Mean"]))
    return merge_tables(best)
