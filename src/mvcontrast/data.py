"""Multi-view data: the file codec, validation, synthesis, splitting, loading.

Every file but the results table is read and written here: CSV matrices, of
finite numbers only, by `read_matrix`/`write_matrix`; the config, `run.json`
and the manifest by `read_json`/`write_json`, which reject a key repeated
within one object.  A view is CSV with one row per sample on disk and D_m x n
in memory, so each sample is a column; `_per_file` maps a reader or writer
over the files, dealing large ones to forked children, one per further usable
core.  A synthetic view fits numpy's address space.
"""

import itertools
import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, MvError
from .params import _defaults, _integer, _integers, _is_number, _merge, _require

# A file below this many CSV bytes is read or written in the calling process.
# Forking a worker and piping its array back costs about 10 ms on a 2-core
# x86 machine, the time parsing 0.3 MiB of CSV takes there; the floor sits a
# few times above that, so that forking a file clearly pays.
_FORK_MIN_BYTES = 1 << 20
# %.17g writes a double in at most 24 characters, its comma included; the
# estimate sizes a matrix's CSV before it is written.
_CSV_BYTES_PER_VALUE = 24
# write_matrix formats about this many values (256 KiB of doubles) at a time.
_WRITE_BLOCK_VALUES = 1 << 15

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
            self.labels = _integer_labels(self.labels, "labels")
            if self.labels.shape != (n,):
                raise DataError(
                    f"labels length {self.labels.shape} does not match n={n}")
        if not self.view_names:
            self.view_names = [f"view{m}" for m in range(len(self.views))]
        elif len(self.view_names) != len(self.views):
            raise DataError("view_names length does not match view count")
        elif (len(set(self.view_names)) != len(self.view_names)
              or {"labels", "Mean", "fused"} & set(self.view_names)):
            # a name keys its files and results row, as labels.csv, Mean and fused do
            raise DataError("view names must be distinct and none of labels, Mean or "
                            f"fused (a file's name is its stem), got {self.view_names}")

    @property
    def V(self):
        return len(self.views)

    @property
    def n(self):
        return self.views[0].shape[1]

    @property
    def view_dims(self):
        return [v.shape[0] for v in self.views]

    def subset(self, idx):
        """The samples at column indices idx, as a new dataset."""
        return MultiViewDataset(
            views=[v[:, idx] for v in self.views],
            labels=None if self.labels is None else self.labels[idx],
            view_names=list(self.view_names))


@dataclass
class SplitSpec:
    per_class: int
    seed: int
    repeat_index: int = 0

    def __post_init__(self):
        self.per_class = _integer("per_class", self.per_class, 1)
        self.seed = _integer("seed", self.seed, 0)
        self.repeat_index = _integer("repeat_index", self.repeat_index, 0)


def read_matrix(path):
    """Read a CSV matrix file into a 2-D array of finite floats.

    Blank and whitespace-only lines are skipped; every other line must hold
    the same number of comma-separated numbers.  `#` is not a comment.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = (line for line in fh if line.strip())
            first = next(rows, None)
            if first is None:
                raise DataError(f"{path}: empty file")
            M = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                           ndmin=2, comments=None)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # ragged row, non-numeric cell or bad UTF-8; numpy counts a ragged row
        # from 1 but a non-numeric cell's row from 0, so that row is shifted
        message = re.sub(r"at row (\d+), column",
                         lambda m: f"at row {int(m[1]) + 1}, column", str(exc))
        raise DataError(f"{path}: {message}") from None
    if not np.isfinite(M).all():  # nan, inf or a cell past the double range
        # rows and columns from 1, blank lines skipped, as in numpy's messages
        r, c = np.argwhere(~np.isfinite(M))[0] + 1
        raise DataError(f"{path}: non-finite value at row {r}, column {c}")
    return M


def write_matrix(path, matrix, header=None):
    """Write a 2-D array (a 1-D one as a column) as CSV that `read_matrix`
    reads back bit-exactly: the bytes of np.savetxt(fmt="%.17g",
    delimiter=","), after the line `header` if one is given."""
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    # %.17g round-trips IEEE-754 doubles exactly through text; Python floats
    # format faster than numpy scalars, so rows are converted a block at a time
    row_fmt = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    step = max(1, _WRITE_BLOCK_VALUES // max(1, matrix.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, matrix.shape[0], step):
            fh.write("".join([row_fmt % tuple(row)
                              for row in matrix[start:start + step].tolist()]))


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a repeated key is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is repeated in one object")
        obj[key] = value
    return obj


def read_json(path, what, error):
    """The JSON at `path`, or `error` naming `what` if it cannot be read or parsed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a repeated key
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def write_json(path, obj):
    """Write `obj` to `path` as sorted, 2-space-indented JSON, making the directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def _usable_cores():
    """The cores this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _attempt(fn, job):
    """(True, fn(*job)) or (False, the exception it raised)."""
    try:
        return True, fn(*job)
    except Exception as exc:  # re-raised by _per_file in file order
        return False, exc


def _per_file(fn, jobs, sizes):
    """[fn(*job) for job in jobs], where job[0] is the file's path and sizes[k]
    job k's CSV bytes; once every job has run, the first to fail raises.

    Jobs of at least _FORK_MIN_BYTES are dealt, largest first, each to
    whichever of this process and its cores - 1 forked children has the
    fewest bytes so far; smaller ones run here, as does a share no process
    can be forked for.  A child gets its share's inputs by fork and sends its
    outcomes back in one pickle.  Children only parse or format text, never
    BLAS, so the threads a BLAS pool keeps are safe to fork past.
    """
    cores = _usable_cores() if hasattr(os, "fork") else 1
    shares, loads = [[] for _ in range(cores)], [0] * cores
    for k in sorted(range(len(jobs)), key=lambda k: -sizes[k]):
        s = loads.index(min(loads)) if sizes[k] >= _FORK_MIN_BYTES else 0
        shares[s].append(k)
        loads[s] += sizes[k]
    outcomes, children = {}, []  # children: (share, process, read end)
    try:
        for share in filter(None, shares[1:]):
            import multiprocessing  # only once a child has a share
            ctx = multiprocessing.get_context("fork")
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=lambda conn, share: conn.send(
                [_attempt(fn, jobs[k]) for k in share]), args=(send_end, share))
            try:
                proc.start()
            except OSError:  # no process to be had: run the share here
                recv_end.close()
                shares[0].extend(share)
                continue
            finally:
                send_end.close()
            children.append((share, proc, recv_end))
        for k in shares[0]:
            outcomes[k] = _attempt(fn, jobs[k])
        for share, proc, conn in children:
            try:
                got = conn.recv()
            except EOFError:  # the child died before sending
                proc.join()
                got = [(False, MvError(f"{jobs[k][0]}: worker process exited "
                                       f"with code {proc.exitcode} before "
                                       "sending its result")) for k in share]
            proc.join()
            outcomes.update(zip(share, got))
    finally:
        for _, proc, conn in children:
            proc.terminate()  # a no-op once joined; an interrupt may skip that
            proc.join()
            conn.close()
    for ok, value in (outcomes[k] for k in range(len(jobs))):
        if not ok:
            raise value
    return [outcomes[k][1] for k in range(len(jobs))]


def _file_bytes(path):
    """The size of `path`, or 0 if it cannot be read (read_matrix says why)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _integer_labels(labels, name):
    """`labels` as ints, or a DataError naming `name` unless each is an integral
    number of magnitude below 2**53, past which doubles skip integers."""
    raw = np.asarray(labels)
    if raw.dtype.kind in "biuf":
        values = raw.astype(float)
        if np.all((np.abs(values) < 2.0 ** 53) & (values == np.round(values))):
            return raw.astype(int)
    raise DataError(f"{name} must be integers of magnitude below 2**53")


def load_views(view_files, label_file=None):
    """Read sample-major CSV views (and optional labels) into a dataset."""
    paths = list(view_files) if label_file is None else [*view_files, label_file]
    matrices = _per_file(read_matrix, [(p,) for p in paths],
                         [_file_bytes(p) for p in paths])
    views = matrices[:len(view_files)]
    n_rows = {m.shape[0] for m in views}
    if len(n_rows) > 1:
        counts = ", ".join(f"{p}: {m.shape[0]}" for p, m in zip(view_files, views))
        raise DataError(f"view files disagree on sample count ({counts})")
    if views[0].shape[0] < 2:
        raise DataError(f"need at least 2 samples, got {views[0].shape[0]}")
    labels = None
    if label_file is not None:
        if matrices[-1].shape[1] != 1:
            raise DataError(f"{label_file}: expected one integer per line")
        labels = _integer_labels(matrices[-1][:, 0], f"{label_file}: labels")
        if labels.shape[0] != views[0].shape[0]:
            raise DataError(
                f"{label_file}: {labels.shape[0]} labels for {views[0].shape[0]} samples")
    names = [os.path.splitext(os.path.basename(p))[0] for p in view_files]
    return MultiViewDataset(views=[m.T for m in views], labels=labels,
                            view_names=names)


def save_views(ds, directory):
    """Write the dataset back to sample-major CSV files; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    jobs = [(os.path.join(directory, f"{name}.csv"), view.T)
            for name, view in zip(ds.view_names, ds.views)]
    label_file = None
    if ds.labels is not None:
        label_file = os.path.join(directory, "labels.csv")
        jobs.append((label_file, ds.labels[:, None]))
    _per_file(write_matrix, jobs, [_CSV_BYTES_PER_VALUE * m.size for _, m in jobs])
    return [path for path, _ in jobs[:ds.V]], label_file


def split(ds, spec):
    """Ascending (train_idx, test_idx): per_class samples per class train."""
    if ds.labels is None:
        raise ConfigError("split requires labels")
    classes, sizes = np.unique(ds.labels, return_counts=True)
    if spec.per_class >= sizes.min():
        raise ConfigError(
            f"per_class={spec.per_class} must be smaller than the smallest "
            f"class size {sizes.min()}")
    # one independent, reproducible PCG64 stream per (seed, repeat)
    rng = np.random.default_rng([spec.seed, spec.repeat_index])
    train_idx = []
    for cls in classes:
        members = np.flatnonzero(ds.labels == cls)
        chosen = rng.choice(members, size=spec.per_class, replace=False)
        train_idx.extend(chosen.tolist())
    train_idx = np.sort(np.array(train_idx, dtype=int))
    mask = np.zeros(ds.n, dtype=bool)
    mask[train_idx] = True
    return train_idx, np.flatnonzero(~mask)


def _synth_args(V, classes, per_class, dims, noise_sigma, seed, center_scale):
    """synth_blobs' arguments, in its order, as a dict checked the way the
    config checks its dataset.synth section: counts as ints, dims a list."""
    key = "dataset.synth.{}".format
    V = _integer(key("V"), V, 2)
    classes = _integer(key("classes"), classes, 1)
    per_class = _integer(key("per_class"), per_class, 1)
    seed = _integer(key("seed"), seed, 0)
    dims = _integers(key("dims"), dims, 1)
    _require(len(dims) == V, key("dims"), f"a list of V={V} integers", dims)
    # one view's bytes bound np.repeat's count, np.arange's length and each draw
    _require(classes * per_class * max(dims) * 8 <= np.iinfo(np.intp).max,
             "dataset.synth classes * per_class * max(dims) * 8", "at most "
             f"{np.iinfo(np.intp).max}, the bytes numpy can address in one array",
             f"{classes} * {per_class} * {max(dims)} * 8")
    for name, value in (("noise_sigma", noise_sigma), ("center_scale", center_scale)):
        _require(_is_number(value) and value >= 0, key(name), "a finite number >= 0",
                 value)
    return dict(V=V, classes=classes, per_class=per_class, dims=dims,
                noise_sigma=noise_sigma, seed=seed, center_scale=center_scale)


def synth_blobs(V=2, classes=3, per_class=10, dims=(8, 8), noise_sigma=0.5, seed=0,
                center_scale=3.0):
    """Gaussian blob views: one latent center per (class, view), shared labels;
    the defaults and checks are the config's dataset.synth section."""
    V, classes, per_class, dims, noise_sigma, seed, center_scale = _synth_args(
        V, classes, per_class, dims, noise_sigma, seed, center_scale).values()
    rng = np.random.default_rng([seed])
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


def _dataset_args(views, labels, synth, standardize):
    """load_dataset's arguments as a dict, checked as a config's dataset section:
    exactly one of views and synth, synth merged with synth_blobs' defaults."""
    if (views is None) == (synth is None):
        raise ConfigError(
            "dataset section must contain exactly one of 'views' or 'synth'")
    _require(labels is None or isinstance(labels, str), "dataset.labels",
             "a file path", labels)
    _require(isinstance(standardize, bool), "dataset.standardize",
             "true or false", standardize)
    if views is None:
        if labels is not None:
            raise ConfigError("dataset.labels cannot be given with dataset.synth")
        synth = _synth_args(**_merge("dataset.synth",
                                     _defaults(synth_blobs, _synth_args), synth))
    else:
        # one view has no other view to contrast with, as synth.V = 1
        _require(isinstance(views, list) and len(views) >= 2, "dataset.views",
                 "a list of at least 2 file paths", views)
        views = [_require(isinstance(p, str), "dataset.views", "file paths", p)
                 for p in views]
    return dict(views=views, labels=labels, synth=synth, standardize=standardize)


def load_dataset(views=None, labels=None, synth=None, standardize=False):
    """load_views(views, labels) or synth_blobs(**synth), standardized if asked;
    the defaults and checks are the config's dataset section."""
    views, labels, synth, scaled = _dataset_args(views, labels, synth,
                                                 standardize).values()
    ds = load_views(views, labels) if synth is None else synth_blobs(**synth)
    # the flag's name hides this module's standardize function
    return globals()["standardize"](ds) if scaled else ds
