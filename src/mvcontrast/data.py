"""Multi-view data: matrix files, validation, synthesis, splitting.

On disk a view is CSV with one row per sample; in memory every view is kept
feature-major (D_m x n) so each sample is a column vector.  `read_matrix`
and `write_matrix` are the only code that knows the on-disk matrix format.
`load_views` and `save_views` hand their files to `_per_file`, which reads or
writes large files concurrently, one per forked worker process, with the same
results and errors as one file after another.
"""

import itertools
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, MvError

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
    """Write a 2-D array (a 1-D one as a column) as CSV that `read_matrix`
    reads back bit-exactly: the bytes of np.savetxt(fmt="%.17g",
    delimiter=",")."""
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    # %.17g round-trips IEEE-754 doubles exactly through text; Python floats
    # format faster than numpy scalars, so rows are converted a block at a time
    row_fmt = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    step = max(1, _WRITE_BLOCK_VALUES // max(1, matrix.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, matrix.shape[0], step):
            fh.write("".join([row_fmt % tuple(row)
                              for row in matrix[start:start + step].tolist()]))


def _usable_cores():
    """The cores this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _attempt(fn, job):
    """(True, fn(*job)) or (False, the exception it raised)."""
    try:
        return True, fn(*job)
    except Exception as exc:  # re-raised by _per_file in file order
        return False, exc


def _worker(fn, job, conn):
    """Run fn(*job) in a forked child; send its exception, None or array."""
    ok, value = _attempt(fn, job)
    if not ok:
        conn.send(("raise", value))
    elif value is None:
        conn.send(("none",))
    else:
        value = np.ascontiguousarray(value)
        conn.send(("array", value.shape, value.dtype.str))
        conn.send_bytes(value.reshape(-1).view(np.uint8))


def _receive(conn, proc, path):
    """The (ok, value) a child sent for `path`; joins the child."""
    try:
        kind, *header = conn.recv()
        if kind == "array":
            value = np.empty(*header)
            # a 1-D byte view: recv_bytes_into sizes a buffer by len() * itemsize
            conn.recv_bytes_into(value.reshape(-1).view(np.uint8))
            outcome = True, value
        else:
            outcome = (False, header[0]) if kind == "raise" else (True, None)
    except EOFError:
        outcome = None
    finally:
        conn.close()
        proc.join()
    if outcome is None:
        return False, MvError(f"{path}: worker process exited with code "
                              f"{proc.exitcode} before sending its result")
    return outcome


def _per_file(fn, jobs, sizes):
    """[(ok, fn(*job) or the exception it raised) for job in jobs], where
    job[0] is the file's path and sizes[k] job k's CSV bytes.

    Every job runs, even after one fails.  With more than one usable core,
    the largest job and every job under _FORK_MIN_BYTES run here, and each
    other job runs in a child started by fork, at most (cores - 1) at a time
    (or here, if no process can be made).  A child gets its inputs by fork
    and sends an array back as a header and its raw bytes.  Children only
    parse or format text, never BLAS, so the threads a BLAS pool keeps are
    safe to fork past.
    """
    order = sorted(range(len(jobs)), key=lambda k: -sizes[k])
    pending = [k for k in order[1:] if sizes[k] >= _FORK_MIN_BYTES]
    slots = _usable_cores() - 1
    if not pending or slots < 1 or not hasattr(os, "fork"):
        return [_attempt(fn, job) for job in jobs]
    import multiprocessing
    import multiprocessing.connection

    ctx = multiprocessing.get_context("fork")
    local = [k for k in order if k not in pending]
    pending.reverse()  # pop() takes the largest
    outcomes, running = {}, {}  # running: read end -> (job index, process)

    def start():
        while pending and len(running) < slots:
            k = pending.pop()
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(fn, jobs[k], send_end))
            try:
                proc.start()
            except OSError:  # no process to be had: do the job here
                recv_end.close()
                outcomes[k] = _attempt(fn, jobs[k])
                continue
            finally:
                send_end.close()
            running[recv_end] = k, proc

    def collect(timeout=None):
        for conn in multiprocessing.connection.wait(list(running), timeout):
            k, proc = running.pop(conn)
            outcomes[k] = _receive(conn, proc, jobs[k][0])

    try:
        start()
        for k in local:
            outcomes[k] = _attempt(fn, jobs[k])
            collect(timeout=0)
            start()
        while running:
            collect()
            start()
    finally:
        for conn, (_, proc) in running.items():  # left only by an interrupt
            proc.terminate()
            proc.join()
            conn.close()
    return [outcomes[k] for k in range(len(jobs))]


def _value(outcome):
    """The value of an (ok, value) outcome of `_per_file`, or raise it."""
    ok, value = outcome
    if not ok:
        raise value
    return value


def _file_bytes(path):
    """The size of `path`, or 0 if it cannot be read (read_matrix says why)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def load_views(view_paths, label_path=None):
    """Read sample-major CSV views (and optional labels) into a dataset."""
    paths = list(view_paths) if label_path is None else [*view_paths, label_path]
    outcomes = _per_file(read_matrix, [(p,) for p in paths],
                         [_file_bytes(p) for p in paths])
    matrices = [_value(o) for o in outcomes[:len(view_paths)]]
    n_rows = {m.shape[0] for m in matrices}
    if len(n_rows) > 1:
        counts = ", ".join(f"{p}: {m.shape[0]}" for p, m in zip(view_paths, matrices))
        raise DataError(f"view files disagree on sample count ({counts})")
    if matrices[0].shape[0] < 2:
        raise DataError(f"need at least 2 samples, got {matrices[0].shape[0]}")
    labels = None
    if label_path is not None:
        raw = _value(outcomes[-1])
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


def save_views(ds, out_dir):
    """Write the dataset back to sample-major CSV files; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = [(os.path.join(out_dir, f"{name}.csv"), view.T)
            for name, view in zip(ds.view_names, ds.views)]
    label_path = None
    if ds.labels is not None:
        label_path = os.path.join(out_dir, "labels.csv")
        jobs.append((label_path, ds.labels[:, None]))
    outcomes = _per_file(write_matrix, jobs,
                         [_CSV_BYTES_PER_VALUE * m.size for _, m in jobs])
    for outcome in outcomes:
        _value(outcome)
    return [path for path, _ in jobs[:ds.V]], label_path


def view_offsets(view_dims):
    """Row offset of each view block inside the stacked D x n frame."""
    return [int(o) for o in np.concatenate([[0], np.cumsum(view_dims)[:-1]])]


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
    rng = np.random.default_rng([int(spec.seed), int(spec.repeat_index)])
    train_idx = []
    for cls in classes:
        members = np.flatnonzero(ds.labels == cls)
        chosen = rng.choice(members, size=spec.per_class, replace=False)
        train_idx.extend(chosen.tolist())
    train_idx = np.sort(np.array(train_idx, dtype=int))
    mask = np.zeros(ds.n, dtype=bool)
    mask[train_idx] = True
    return train_idx, np.flatnonzero(~mask)


def synth_blobs(V, classes, per_class, dims, noise_sigma, seed,
                center_scale=3.0):
    """Gaussian blob views: one latent center per (class, view), shared labels."""
    if V < 2 or classes < 1 or per_class < 1:
        raise ConfigError("V must be >= 2, classes and per_class >= 1")
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
