import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.data import view_offsets
from mvcontrast.errors import ConfigError, DataError


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
        with pytest.raises(DataError, match="row 1"):
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

    def test_roundtrip_exact(self, tmp_path):
        ds = mv.synth_blobs(2, 3, 4, [3, 2], 0.7, 5)
        mv.save_views(ds, tmp_path)
        back = mv.load_views([tmp_path / "view0.csv", tmp_path / "view1.csv"],
                             tmp_path / "labels.csv")
        for v0, v1 in zip(ds.views, back.views):
            assert np.array_equal(v0, v1)
        assert np.array_equal(ds.labels, back.labels)


class TestViewOffsets:
    def test_offsets(self):
        assert view_offsets([3, 2, 4]) == [0, 3, 5]


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

    def test_label_length_mismatch(self):
        with pytest.raises(DataError, match="labels"):
            mv.MultiViewDataset(views=[np.ones((2, 3)), np.ones((2, 3))],
                                labels=[0, 1])
