import contextlib
import json
import multiprocessing
import os
import pathlib
import re
import signal
import time

import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast import data
from mvcontrast.cli import main
from mvcontrast.config import build_config
from mvcontrast.errors import ConfigError, DataError, MvError


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


class TestLoadViews:
    def test_shapes_and_transposition(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(10, 3))
        b = rng.normal(size=(10, 5))
        write_csv(tmp_path / "a.csv", a.tolist())
        write_csv(tmp_path / "b.csv", b.tolist())
        ds = mv.load_views([tmp_path / "a.csv", tmp_path / "b.csv"])
        assert ds.V == 2
        assert ds.n == 10
        assert ds.view_dims == [3, 5]
        assert np.allclose(ds.views[0], a.T)

    def test_row_count_mismatch(self, tmp_path):
        write_csv(tmp_path / "a.csv", np.ones((10, 3)).tolist())
        write_csv(tmp_path / "b.csv", np.ones((9, 5)).tolist())
        with pytest.raises(DataError, match="sample count"):
            mv.load_views([tmp_path / "a.csv", tmp_path / "b.csv"])

    def test_non_numeric_label(self, tmp_path):
        write_csv(tmp_path / "a.csv", np.ones((3, 2)).tolist())
        write_csv(tmp_path / "b.csv", np.ones((3, 2)).tolist())
        (tmp_path / "labels.csv").write_text("0\ncat\n1\n")
        with pytest.raises(DataError, match="row 2, column 1"):
            mv.load_views([tmp_path / "a.csv", tmp_path / "b.csv"],
                          tmp_path / "labels.csv")

    def test_too_few_samples(self, tmp_path):
        write_csv(tmp_path / "a.csv", [[1.0, 2.0]])
        write_csv(tmp_path / "b.csv", [[1.0]])
        with pytest.raises(DataError, match="at least 2"):
            mv.load_views([tmp_path / "a.csv", tmp_path / "b.csv"])

    def test_whitespace_only_lines_skipped(self, tmp_path):
        (tmp_path / "a.csv").write_text("\n1,2\n  \n\t\n3,4\r\n \n5,6\n\n")
        write_csv(tmp_path / "b.csv", [[1.0], [2.0], [3.0]])
        (tmp_path / "labels.csv").write_text("0\n\n1\n \n0\n")
        ds = mv.load_views([tmp_path / "a.csv", tmp_path / "b.csv"],
                           tmp_path / "labels.csv")
        assert np.array_equal(ds.views[0], [[1, 3, 5], [2, 4, 6]])
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_non_finite_cell_named(self, tmp_path):
        # rows count from 1 and skip blank lines, as numpy's ragged-row message does
        path = tmp_path / "a.csv"
        path.write_text("\n1,2,3\n  \n4,nan,6\n7,8,inf\n")
        with pytest.raises(DataError, match=re.escape(
                f"{path}: non-finite value at row 2, column 2")):
            data.read_matrix(path)

    @pytest.mark.parametrize(
        "text", ["{},2\n3,4\n", "1,2\n3,{}\n", "1,2\n\n3,4\n{},6\n"],
        ids=["first line", "second line", "after a blank line"])
    def test_non_numeric_cell_numbered_as_non_finite(self, tmp_path, text):
        # one row numbering for every cell: a word is reported where a nan is
        where = []
        for cell in ("x", "nan"):
            path = tmp_path / f"{cell}.csv"
            path.write_text(text.format(cell))
            with pytest.raises(DataError) as exc:
                data.read_matrix(path)
            where.append(re.search(r"at row \d+, column \d+", str(exc.value))[0])
        assert where[0] == where[1]

    def test_roundtrip_exact(self, tmp_path):
        ds = mv.synth_blobs(2, 3, 4, [3, 2], 0.7, 5)
        mv.save_views(ds, tmp_path)
        back = mv.load_views([tmp_path / "view0.csv", tmp_path / "view1.csv"],
                             tmp_path / "labels.csv")
        for v0, v1 in zip(ds.views, back.views):
            assert np.array_equal(v0, v1)
        assert np.array_equal(ds.labels, back.labels)


def savetxt_bytes(path, matrix):
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
    return path.read_bytes()


class TestWriteMatrix:
    """write_matrix writes the bytes np.savetxt(fmt="%.17g") writes."""

    CASES = {
        "extremes": np.array([[-0.0, 5e-324, 1.797e308], [-1.797e308, 1 / 3, 0.0]]),
        "int labels": np.array([3, 0, -2, 2 ** 60 + 1, 7])[:, None],
        "1-D": np.array([0.1, -2.5, 1e-300, 4.0]),
        "transposed view": np.random.default_rng(1).normal(size=(3, 11)).T,
        "one row": np.array([[1.5, -7.25e10]]),
    }

    @pytest.mark.parametrize("matrix", CASES.values(), ids=CASES.keys())
    def test_bytes_equal_savetxt(self, tmp_path, matrix):
        data.write_matrix(tmp_path / "got.csv", matrix)
        assert (tmp_path / "got.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "want.csv", matrix)

    def test_header_line_then_savetxt_bytes(self, tmp_path):
        matrix = self.CASES["transposed view"]
        data.write_matrix(tmp_path / "got.csv", matrix, header="a,b")
        assert (tmp_path / "got.csv").read_bytes() == \
            b"a,b\n" + savetxt_bytes(tmp_path / "want.csv", matrix)

    @pytest.mark.parametrize("block_values", [1, 2, 7, 30])
    def test_rows_not_a_multiple_of_the_block(self, tmp_path, monkeypatch,
                                              block_values):
        # 3 columns: blocks of 1, 1, 2 and 10 rows over 11 rows
        monkeypatch.setattr(data, "_WRITE_BLOCK_VALUES", block_values)
        matrix = self.CASES["transposed view"]
        data.write_matrix(tmp_path / "got.csv", matrix)
        assert (tmp_path / "got.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "want.csv", matrix)
        assert np.array_equal(data.read_matrix(tmp_path / "got.csv"), matrix)


def pid_logging(fn, log):
    """fn, appending the pid of each process that calls it to `log`."""
    def logged(*args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args)
    return logged


def callers(log):
    return set(log.read_text().split()) if log.exists() else set()


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test with TimeoutError instead of hanging past `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(params=[2, 4], ids=["1-worker", "3-workers"])
def forked(request, monkeypatch):
    """Force the worker path: no byte floor, and 2 or 4 usable cores."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(data, "_FORK_MIN_BYTES", 0)
    monkeypatch.setattr(data, "_usable_cores", lambda: request.param)
    with deadline(60):
        yield
    assert multiprocessing.active_children() == []


def views_config(tmp_path, paths):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"views": [str(p) for p in paths]}}))
    return str(path)


class TestPerFileWorkers:
    """load_views and save_views through forked workers: the same arrays,
    bytes, errors and exit codes as one file after another."""

    DS = dict(V=3, classes=3, per_class=7, dims=[5, 4, 3], noise_sigma=0.7, seed=2)

    def test_identical_to_serial(self, tmp_path, monkeypatch, forked):
        ds = mv.synth_blobs(**self.DS)
        serial = mv.save_views(ds, tmp_path / "serial")
        for name in ("read_matrix", "write_matrix"):
            monkeypatch.setattr(data, name, pid_logging(getattr(data, name),
                                                         tmp_path / f"{name}.pids"))
        paths, label_path = mv.save_views(ds, tmp_path / "forked")
        assert multiprocessing.active_children() == []
        for a, b in zip([*serial[0], serial[1]], [*paths, label_path]):
            assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()
        back = mv.load_views(paths, label_path)
        assert multiprocessing.active_children() == []
        for name in ("read_matrix", "write_matrix"):
            assert len(callers(tmp_path / f"{name}.pids")) > 1  # workers ran
        want = mv.load_views(*serial)
        for got, ref in zip([*back.views, back.labels], [*want.views, want.labels]):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert back.view_names == want.view_names

    def ragged_pair(self, tmp_path, second):
        """Two 6-row views, the first wider; `second` replaces row 3 of the other."""
        write_csv(tmp_path / "a.csv", np.ones((6, 4)).tolist())
        rows = [",".join(["2.5"] * 2)] * 6
        rows[3] = second
        (tmp_path / "b.csv").write_text("\n".join(rows) + "\n")
        return [tmp_path / "a.csv", tmp_path / "b.csv"]

    def test_ragged_second_view(self, tmp_path, capsys, forked, monkeypatch):
        # a ragged row, then a non-finite cell: numpy's check, then read_matrix's
        for second in ("1,2,3", "2.5,nan"):
            monkeypatch.setattr(data, "_FORK_MIN_BYTES", 0)
            paths = self.ragged_pair(tmp_path, second)
            cfg = views_config(tmp_path, paths)
            with pytest.raises(DataError) as in_worker:
                mv.load_views(paths)
            assert multiprocessing.active_children() == []
            assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
            worker_err = capsys.readouterr().err
            monkeypatch.setattr(data, "_FORK_MIN_BYTES", 1 << 40)
            with pytest.raises(DataError) as serial:
                mv.load_views(paths)
            assert str(in_worker.value) == str(serial.value)
            assert "b.csv" in str(serial.value)
            assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
            assert worker_err == capsys.readouterr().err

    def test_first_bad_view_named(self, tmp_path, forked):
        # the smaller, first file is the one a worker reads
        write_csv(tmp_path / "a.csv", [[1.0, 2.0], [3.0]])
        (tmp_path / "b.csv").write_text("1,2,3,4\n5,6,7,cat\n")
        with pytest.raises(DataError, match="a.csv"):
            mv.load_views([tmp_path / "a.csv", tmp_path / "b.csv"])
        assert multiprocessing.active_children() == []

    def test_unwritable_target_in_worker(self, tmp_path, capsys, forked):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": {"synth": {
            "classes": 2, "per_class": 4, "dims": [5, 3]}}}))
        out = tmp_path / "out"
        (out / "view1.csv").mkdir(parents=True)  # a worker writes view1.csv
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: ConfigError: cannot write output" in err
        assert "view1.csv" in err
        assert multiprocessing.active_children() == []

    def test_worker_dying_without_result(self, tmp_path, monkeypatch, forked):
        paths = self.ragged_pair(tmp_path, "1,2")
        here, read = os.getpid(), data.read_matrix

        def die_in_worker(path):
            if os.getpid() != here:
                os._exit(1)
            return read(path)

        monkeypatch.setattr(data, "read_matrix", die_in_worker)
        with pytest.raises(MvError, match="b.csv.*exited with code 1"):
            mv.load_views(paths)
        assert multiprocessing.active_children() == []

    def test_failed_fork_reads_here(self, tmp_path, monkeypatch, forked):
        paths = self.ragged_pair(tmp_path, "1,2")

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        want = np.full((6, 2), 2.5)
        want[3] = [1, 2]
        assert np.array_equal(mv.load_views(paths).views[1], want.T)

    def test_one_child_per_usable_core(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_FORK_MIN_BYTES", 0)
        monkeypatch.setattr(data, "_usable_cores", lambda: 2)
        ds = mv.synth_blobs(4, 2, 5, [3, 4, 5, 6], 0.5, 1)
        ds = mv.MultiViewDataset(views=ds.views)  # 4 files: the views alone
        for name in ("read_matrix", "write_matrix"):
            monkeypatch.setattr(data, name, pid_logging(getattr(data, name),
                                                         tmp_path / f"{name}.pids"))
        with deadline(60):
            paths, _ = mv.save_views(ds, tmp_path / "views")
            mv.load_views(paths)
        for name in ("read_matrix", "write_matrix"):
            pids = callers(tmp_path / f"{name}.pids")
            assert len(pids) == 2 and str(os.getpid()) in pids
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_every_child(self, tmp_path, monkeypatch, forked):
        paths = self.ragged_pair(tmp_path, "1,2")
        here = os.getpid()

        def interrupted_here(path):
            if os.getpid() == here:
                raise KeyboardInterrupt
            time.sleep(120)  # past the deadline: only terminate() ends it

        monkeypatch.setattr(data, "read_matrix", interrupted_here)
        with pytest.raises(KeyboardInterrupt):
            mv.load_views(paths)
        assert multiprocessing.active_children() == []

    def test_small_files_stay_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_usable_cores", lambda: 4)
        log = tmp_path / "pids"
        monkeypatch.setattr(data, "write_matrix", pid_logging(data.write_matrix, log))
        monkeypatch.setattr(data, "read_matrix", pid_logging(data.read_matrix, log))
        paths, label_path = mv.save_views(mv.synth_blobs(**self.DS), tmp_path)
        mv.load_views(paths, label_path)
        assert callers(log) == {str(os.getpid())}


class TestViewOffsets:
    def test_offsets(self):
        assert mv.ProjectionStack(np.zeros((9, 2)), [3, 2, 4]).offsets == [0, 3, 5]


class TestSplit:
    def make_labeled(self, classes=3, per_class=10, seed=1):
        return mv.synth_blobs(2, classes, per_class, [4, 4], 0.5, seed)

    def test_counts(self):
        ds = self.make_labeled()
        train_idx, test_idx = mv.split(ds, mv.SplitSpec(per_class=4, seed=0))
        assert train_idx.size == 12
        assert test_idx.size == 18
        _, counts = np.unique(ds.labels[train_idx], return_counts=True)
        assert np.all(counts == 4)

    def test_deterministic(self):
        ds = self.make_labeled()
        spec = mv.SplitSpec(per_class=4, seed=123, repeat_index=2)
        for a, b in zip(mv.split(ds, spec), mv.split(ds, spec)):
            assert np.array_equal(a, b)

    def test_repeat_index_changes_split(self):
        ds = self.make_labeled()
        t1, _ = mv.split(ds, mv.SplitSpec(per_class=4, seed=0, repeat_index=0))
        t2, _ = mv.split(ds, mv.SplitSpec(per_class=4, seed=0, repeat_index=1))
        assert not np.array_equal(t1, t2)

    def test_per_class_too_large(self):
        ds = self.make_labeled(per_class=10)
        with pytest.raises(ConfigError, match="smaller"):
            mv.split(ds, mv.SplitSpec(per_class=10, seed=0))

    def test_missing_labels(self):
        ds = mv.MultiViewDataset(views=[np.ones((2, 4)), np.ones((3, 4))])
        with pytest.raises(ConfigError, match="label"):
            mv.split(ds, mv.SplitSpec(per_class=1, seed=0))

    def test_partition_property(self):
        ds = self.make_labeled()
        for seed in range(5):
            train_idx, test_idx = mv.split(ds, mv.SplitSpec(per_class=3, seed=seed))
            # both ascending, and every sample in exactly one of them
            for idx in (train_idx, test_idx):
                assert np.all(np.diff(idx) > 0)
            assert np.array_equal(np.sort(np.concatenate([train_idx, test_idx])),
                                  np.arange(ds.n))

    def test_subset_takes_columns(self):
        ds = self.make_labeled()
        idx = np.array([4, 0, 7])
        sub = ds.subset(idx)
        for v, full in zip(sub.views, ds.views):
            assert np.array_equal(v, full[:, idx])
        assert np.array_equal(sub.labels, ds.labels[idx])
        assert sub.view_names == ds.view_names
        unlabeled = mv.MultiViewDataset(views=ds.views).subset(idx)
        assert unlabeled.labels is None and unlabeled.n == 3


class TestSynthBlobs:
    def test_zero_noise_degenerate(self):
        ds = mv.synth_blobs(2, 3, 10, [8, 8], 0.0, 0)
        for cls in range(3):
            cols = ds.views[0][:, ds.labels == cls]
            assert np.allclose(cols, cols[:, :1])
        train, test = map(ds.subset, mv.split(ds, mv.SplitSpec(per_class=4, seed=0)))
        acc = mv.knn_accuracy(np.vstack(train.views), train.labels,
                              np.vstack(test.views), test.labels)
        assert acc == 1.0

    def test_small_noise_high_accuracy(self):
        # centers at scale 3 sit >= 5 apart for this seed; sigma 0.1 is tiny
        ds = mv.synth_blobs(2, 3, 10, [8, 8], 0.1, 0)
        centers = [ds.views[0][:, ds.labels == c].mean(axis=1) for c in range(3)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.linalg.norm(centers[a] - centers[b]) >= 5
        train, test = map(ds.subset, mv.split(ds, mv.SplitSpec(per_class=4, seed=0)))
        acc = mv.knn_accuracy(np.vstack(train.views), train.labels,
                              np.vstack(test.views), test.labels)
        assert acc >= 0.95

    def test_single_class(self):
        ds = mv.synth_blobs(2, 1, 6, [3, 3], 0.5, 0)
        assert np.all(ds.labels == 0)

    def test_deterministic(self):
        a = mv.synth_blobs(2, 2, 3, [4, 4], 0.3, 9)
        b = mv.synth_blobs(2, 2, 3, [4, 4], 0.3, 9)
        assert all(np.array_equal(x, y) for x, y in zip(a.views, b.views))

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            mv.synth_blobs(2, 0, 3, [4, 4], 0.3, 0)
        with pytest.raises(ConfigError):
            mv.synth_blobs(2, 2, 3, [4, 4], -0.1, 0)
        with pytest.raises(ConfigError):
            mv.synth_blobs(2, 2, 3, [4], 0.3, 0)

    # numpy would raise TypeError or ValueError on these, or draw a 0-feature view
    @pytest.mark.parametrize("kw,key", [
        (dict(per_class=2.5), "per_class"),
        (dict(dims=[2.5, 3]), "dims"),
        (dict(seed=-1), "seed"),
        (dict(center_scale=-1), "center_scale"),
        (dict(dims=[0, 3]), "dims"),
    ], ids=["fractional per_class", "fractional dim", "negative seed",
            "negative center_scale", "zero dim"])
    def test_checked_as_the_config_checks(self, kw, key):
        with pytest.raises(ConfigError, match=f"^dataset.synth.{key} must be"):
            mv.synth_blobs(**kw)
        with pytest.raises(ConfigError, match=f"^dataset.synth.{key} must be"):
            build_config({"dataset": {"synth": kw}})

    # only sizes above the bound: one below it may allocate gigabytes
    @pytest.mark.parametrize("kw,factors", [
        (dict(per_class=1e20), "3 * 100000000000000000000 * 8 * 8"),
        (dict(dims=[1e19, 3]), "3 * 10 * 10000000000000000000 * 8"),
        (dict(classes=1e19), "10000000000000000000 * 10 * 8 * 8"),
    ], ids=["per_class", "dim", "classes"])
    def test_view_beyond_numpy_addressing(self, tmp_path, capsys, kw, factors):
        match = (r"^dataset.synth classes \* per_class \* max\(dims\) \* 8 must be "
                 rf"at most {np.iinfo(np.intp).max}.*got '{re.escape(factors)}'$")
        with pytest.raises(ConfigError, match=match):
            mv.synth_blobs(**kw)
        with pytest.raises(ConfigError, match=match):
            build_config({"dataset": {"synth": kw}})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dataset": {"synth": kw}}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "error: ConfigError: dataset.synth classes" in capsys.readouterr().err

    def test_defaults_are_the_config_defaults(self):
        ours = mv.synth_blobs()
        config = mv.load_dataset(**build_config({"dataset": {"synth": {}}}).dataset)
        assert all(np.array_equal(a, b) for a, b in zip(ours.views, config.views))
        assert ours.view_dims == [8, 8] and ours.n == 30


class TestLoadDataset:
    @pytest.mark.parametrize("kw,message", [
        ({}, "dataset section must contain exactly one of 'views' or 'synth'"),
        (dict(views=["a.csv"]), "dataset.views must be a list of at least 2"),
        (dict(views=["a.csv", 3]), "dataset.views must be file paths"),
        (dict(synth={}, labels="l.csv"), "dataset.labels cannot be given"),
        (dict(synth={}, standardize=1), "dataset.standardize must be true or false"),
        (dict(synth={"V": 1}), "dataset.synth.V must be"),
        (dict(synth={"dim": 3}), "unknown key 'dim' in section 'dataset.synth'"),
    ], ids=["neither", "one view", "integer path", "labels with synth",
            "integer standardize", "one synth view", "unknown synth key"])
    def test_checked_as_the_config_checks(self, kw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            mv.load_dataset(**kw)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            build_config({"dataset": kw})

    def test_views_or_synth_standardized_if_asked(self, tmp_path):
        ds = mv.synth_blobs(seed=3)
        paths, label_path = mv.save_views(ds, tmp_path)
        for got, want in [
                (mv.load_dataset(synth={"seed": 3}), ds),
                (mv.load_dataset(synth={"seed": 3}, standardize=True),
                 mv.standardize(ds)),
                (mv.load_dataset(views=paths, labels=label_path),
                 mv.load_views(paths, label_path))]:
            assert all(np.array_equal(a, b) for a, b in zip(got.views, want.views))
            assert np.array_equal(got.labels, want.labels)
            assert got.view_names == want.view_names


class TestStandardize:
    def test_zero_mean_unit_variance(self):
        ds = mv.synth_blobs(2, 3, 10, [5, 6], 1.0, 3)
        std = mv.standardize(ds)
        for v in std.views:
            assert np.allclose(v.mean(axis=1), 0, atol=1e-12)
            assert np.allclose(v.std(axis=1), 1, atol=1e-12)


class TestDatasetValidation:
    def test_single_view_rejected(self):
        with pytest.raises(DataError, match="2 views"):
            mv.MultiViewDataset(views=[np.ones((2, 3))])

    def test_nonfinite_rejected(self):
        bad = np.ones((2, 3))
        bad[0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            mv.MultiViewDataset(views=[bad, np.ones((2, 3))])

    # labels.csv holds the labels; Mean and fused label results rows
    @pytest.mark.parametrize("name", ["labels", "Mean", "fused"])
    def test_reserved_view_names(self, name):
        with pytest.raises(DataError, match="none of labels, Mean or fused"):
            mv.MultiViewDataset(views=[np.ones((2, 3)), np.ones((2, 3))],
                                view_names=[name, "b"])

    # labels are read as load_views reads a label file: integers below 2**53
    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.2], [np.nan, 1, 2],
                                        [1e300, 1, 2], ["a", "b", "c"]],
                             ids=["fractional", "NaN", "huge", "strings"])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(DataError, match="labels must be integers"):
            mv.MultiViewDataset(views=[np.ones((2, 3)), np.ones((2, 3))],
                                labels=labels)

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0.0, 1.0, 2.0],
                                        [False, True, True]])
    def test_integral_labels_kept(self, labels):
        ds = mv.MultiViewDataset(views=[np.ones((2, 3)), np.ones((2, 3))],
                                 labels=labels)
        assert ds.labels.dtype == int
        assert ds.labels.tolist() == np.asarray(labels).astype(int).tolist()

    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            mv.MultiViewDataset(views=[np.ones((2, 3)), np.ones((2, 3))],
                                labels=[0, 1])
