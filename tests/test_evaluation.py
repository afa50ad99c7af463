import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.errors import ConfigError, DataError, NumericError
from mvcontrast.evaluation import evaluate_split, merge_tables
from mvcontrast.trainer import Model


def make_model(projections, d=2):
    return Model(projections=[np.asarray(p, dtype=float) for p in projections],
                 hyper=mv.Hyperparams(d=d), meta={})


class TestProject:
    def test_identity_projection(self):
        rng = np.random.default_rng(0)
        ds = mv.MultiViewDataset(views=[rng.normal(size=(3, 4)),
                                        rng.normal(size=(3, 4))])
        model = make_model([np.eye(3), np.eye(3)], d=3)
        Y = mv.project(model, ds)
        assert np.array_equal(Y[0], ds.views[0])
        assert np.array_equal(Y[1], ds.views[1])

    def test_zero_projection(self):
        ds = mv.MultiViewDataset(views=[np.ones((3, 4)), np.ones((2, 4))])
        model = make_model([np.zeros((3, 2)), np.zeros((2, 2))])
        Y = mv.project(model, ds)
        assert np.all(Y[0] == 0) and np.all(Y[1] == 0)

    def test_matches_direct_product(self):
        rng = np.random.default_rng(1)
        P1, P2 = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        X1, X2 = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        ds = mv.MultiViewDataset(views=[X1, X2])
        Y = mv.project(make_model([P1, P2]), ds)
        assert np.allclose(Y[0], P1.T @ X1, atol=1e-15)
        assert np.allclose(Y[1], P2.T @ X2, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        P1, P2 = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        model = make_model([P1, P2])
        A = rng.normal(size=(3, 4))
        B = rng.normal(size=(3, 4))
        dsA = mv.MultiViewDataset(views=[A, A])
        dsB = mv.MultiViewDataset(views=[B, B])
        dsC = mv.MultiViewDataset(views=[2 * A + 3 * B, 2 * A + 3 * B])
        YA, YB, YC = (mv.project(model, d) for d in (dsA, dsB, dsC))
        for m in range(2):
            assert np.allclose(YC[m], 2 * YA[m] + 3 * YB[m], atol=1e-12)

    def test_dim_mismatch(self):
        ds = mv.MultiViewDataset(views=[np.ones((3, 4)), np.ones((2, 4))])
        model = make_model([np.zeros((4, 2)), np.zeros((2, 2))])
        with pytest.raises(DataError, match="dimension"):
            mv.project(model, ds)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [1e308, np.inf, np.nan])
    def test_overflowing_or_non_finite_embedding_names_view(self, bad):
        # 1e308 is finite, but P_m^T X^m overflows against entries >= 10
        rng = np.random.default_rng(3)
        ds = mv.MultiViewDataset(views=[rng.normal(size=(3, 4)),
                                        10.0 + rng.uniform(size=(3, 4))])
        model = make_model([rng.normal(size=(3, 2)), np.ones((3, 2))])
        # Model rejects inf and nan, so the bad value is written in after
        model.projections[1][:] = bad
        with pytest.raises(NumericError, match="view 1"):
            mv.project(model, ds)


class TestKnnAccuracy:
    def test_exact_match_wins(self):
        train = np.array([[0.0, 1.0], [0.0, 1.0]])
        labels = [0, 1]
        test = np.array([[1.0], [1.0]])
        assert mv.knn_accuracy(train, labels, test, [1]) == 1.0

    def test_tie_breaks_to_smallest_index(self):
        # two training points at the same location with different labels
        train = np.array([[1.0, 1.0], [0.0, 0.0]])
        labels = [7, 8]
        test = np.array([[1.0], [0.0]])
        assert mv.knn_accuracy(train, labels, test, [7]) == 1.0
        assert mv.knn_accuracy(train, labels, test, [8]) == 0.0

    def test_single_class_train(self):
        train = np.zeros((2, 3))
        labels = [1, 1, 1]
        test = np.random.default_rng(0).normal(size=(2, 10))
        test_labels = [1] * 6 + [0] * 4
        assert mv.knn_accuracy(train, labels, test, test_labels) == 0.6

    def test_hand_geometry(self):
        train = np.array([[0.0, 10.0], [0.0, 10.0]])
        labels = ["A", "B"]
        test = np.array([[1.0, 9.0], [1.0, 9.0]])
        assert mv.knn_accuracy(train, labels, test, ["A", "B"]) == 1.0

    def test_isometry_invariance(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(3, 20))
        test = rng.normal(size=(3, 15))
        tl = rng.integers(0, 3, size=20)
        sl = rng.integers(0, 3, size=15)
        base = mv.knn_accuracy(train, tl, test, sl)
        for seed in range(5):
            Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            shift = np.random.default_rng(seed + 50).normal(size=(3, 1))
            assert mv.knn_accuracy(Q @ train + shift, tl,
                                   Q @ test + shift, sl) == base

    def test_label_count_mismatch(self):
        with pytest.raises(DataError, match="train labels"):
            mv.knn_accuracy(np.ones((2, 3)), [0, 1], np.ones((2, 1)), [0])
        with pytest.raises(DataError, match="test labels"):
            mv.knn_accuracy(np.ones((2, 3)), [0, 1, 0], np.ones((2, 2)), [0])

    def test_empty_train(self):
        with pytest.raises(ConfigError):
            mv.knn_accuracy(np.ones((2, 0)), [], np.ones((2, 1)), [0])

    def test_empty_test(self):
        with pytest.raises(ConfigError, match="empty test set"):
            mv.knn_accuracy(np.ones((2, 3)), [0, 1, 0], np.ones((2, 0)), [])

    @pytest.mark.parametrize("bad", [1e155, np.inf, np.nan])
    def test_non_finite_distances_raise(self, bad):
        # 1e155 is finite, but its square overflows the squared distances
        rng = np.random.default_rng(7)
        train, test = rng.normal(size=(2, 3)), rng.normal(size=(2, 4))
        train[0, 1] = bad
        with pytest.raises(NumericError, match="1-NN distances"):
            mv.knn_accuracy(train, [0, 1, 2], test, [0, 1, 2, 0])


class TestRunExperiment:
    def small_h(self, **kw):
        base = dict(d=2, max_iters=5, tol=1e-12)
        base.update(kw)
        return mv.Hyperparams(**base)

    def test_single_repeat_zero_std(self):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.3, 0)
        table = mv.run_experiment(ds, self.small_h(), M=2, repeats=1, base_seed=0)
        assert all(r["std"] == 0.0 for r in table.rows)

    def test_noise_free_blobs_all_ones(self):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.0, 0)
        table = mv.run_experiment(ds, self.small_h(), M=2, repeats=2, base_seed=0)
        assert all(r["mean"] == 1.0 for r in table.rows)

    def test_row_structure(self):
        ds = mv.synth_blobs(2, 2, 5, [3, 3], 0.3, 1)
        table = mv.run_experiment(ds, self.small_h(), M=2, repeats=2, base_seed=5)
        labels = [r["row_label"] for r in table.rows]
        assert labels == ["view0", "view1", "Mean", "fused"]
        assert all(r["M"] == 2 for r in table.rows)

    def test_mean_row_is_view_average(self):
        ds = mv.synth_blobs(2, 2, 5, [3, 3], 0.8, 1)
        table = mv.run_experiment(ds, self.small_h(), M=2, repeats=1, base_seed=5)
        by_label = {r["row_label"]: r["mean"] for r in table.rows}
        assert by_label["Mean"] == pytest.approx(
            (by_label["view0"] + by_label["view1"]) / 2)

    def test_bit_reproducible(self):
        ds = mv.synth_blobs(2, 2, 5, [3, 3], 0.4, 1)
        t1 = mv.run_experiment(ds, self.small_h(), M=2, repeats=2, base_seed=3)
        t2 = mv.run_experiment(ds, self.small_h(), M=2, repeats=2, base_seed=3)
        assert t1.to_csv() == t2.to_csv()
        assert t1.rows == t2.rows

    def test_requires_labels(self):
        ds = mv.MultiViewDataset(views=[np.ones((2, 4)), np.ones((2, 4))])
        with pytest.raises(ConfigError):
            mv.run_experiment(ds, self.small_h(), M=1, repeats=1, base_seed=0)

    def test_fixed_model_skips_training(self):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.0, 0)
        model = make_model([np.eye(4)[:, :2], np.eye(4)[:, :2]])
        table = mv.run_experiment(ds, self.small_h(), M=2, repeats=2,
                                  base_seed=0, fixed_model=model)
        assert all(r["mean"] == 1.0 for r in table.rows)

    @pytest.mark.parametrize("kw,name", [
        (dict(M=2.5), "per_class"),
        (dict(repeats=2.5), "repeats"),
        (dict(base_seed=-1), "seed"),
        (dict(base_seed=1.5), "seed"),
    ], ids=["fractional M", "fractional repeats", "negative base_seed",
            "fractional base_seed"])
    def test_bad_count_or_seed(self, kw, name):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.0, 0)
        model = make_model([np.eye(4)[:, :2], np.eye(4)[:, :2]])
        args = dict(dict(M=2, repeats=2, base_seed=0), **kw)
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            mv.run_experiment(ds, self.small_h(), fixed_model=model, **args)

    def test_csv_format(self):
        ds = mv.synth_blobs(2, 2, 5, [3, 3], 0.0, 1)
        table = mv.run_experiment(ds, self.small_h(), M=2, repeats=1, base_seed=0)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "row_label,M,mean,std,repeats"
        assert lines[1].startswith("view0,2,1.000000,0.000000,1")


class TestEvaluateSplit:
    def test_fused_row_scores_the_fusion_embedding(self):
        # scoring columns of the whole dataset's embeddings equals projecting
        # each half of the split on its own
        ds = mv.synth_blobs(2, 3, 8, [4, 5], 1.5, 2)
        rng = np.random.default_rng(3)
        model = make_model([rng.normal(size=(4, 2)), rng.normal(size=(5, 2))])
        train_idx, test_idx = mv.split(ds, mv.SplitSpec(per_class=3, seed=1))
        per_view, mean_acc, fused = evaluate_split(mv.project(model, ds), ds.labels,
                                                   train_idx, test_idx)
        train_ds, test_ds = ds.subset(train_idx), ds.subset(test_idx)
        assert per_view == [
            mv.knn_accuracy(tr, train_ds.labels, te, test_ds.labels)
            for tr, te in zip(mv.project(model, train_ds), mv.project(model, test_ds))]
        assert mean_acc == np.mean(per_view)
        assert fused == mv.knn_accuracy(
            np.sum(mv.project(model, train_ds), axis=0), train_ds.labels,
            np.sum(mv.project(model, test_ds), axis=0), test_ds.labels)


class TestMergeTables:
    def test_merge_preserves_rows(self):
        ds = mv.synth_blobs(2, 2, 6, [3, 3], 0.0, 1)
        h = mv.Hyperparams(d=2, max_iters=2, tol=1e-12)
        t1 = mv.run_experiment(ds, h, M=2, repeats=1, base_seed=0)
        t2 = mv.run_experiment(ds, h, M=3, repeats=1, base_seed=0)
        merged = merge_tables([t1, t2])
        assert len(merged.rows) == len(t1.rows) + len(t2.rows)
        assert {r["M"] for r in merged.rows} == {2, 3}


class TestRunProtocol:
    def test_every_d_checked_before_fitting(self, monkeypatch):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.3, 0)
        fits = []
        fit = mv.trainer.fit
        monkeypatch.setattr(mv.trainer, "fit",
                            lambda *a, **kw: fits.append(a) or fit(*a, **kw))
        with pytest.raises(ConfigError, match="^embedding dimension d=9 exceeds"):
            mv.run_protocol(ds, mv.Hyperparams(d=2, max_iters=300), M=[3, 5],
                            repeats=3, d_sweep=[1, 2, 9])
        assert fits == []

    def test_every_M_checked_before_fitting(self, monkeypatch):
        ds = mv.synth_blobs(2, 2, 6, [4, 4], 0.3, 0)
        fits = []
        fit = mv.trainer.fit
        monkeypatch.setattr(mv.trainer, "fit",
                            lambda *a, **kw: fits.append(a) or fit(*a, **kw))
        message = (r"^experiment.M must be a list of integers below the smallest "
                   r"class size 6, got \[2, 3, 6\]$")
        with pytest.raises(ConfigError, match=message):
            mv.run_protocol(ds, mv.Hyperparams(d=2, max_iters=300), M=[2, 3, 6],
                            repeats=3)
        assert fits == []

    def test_fixed_model_rejects_a_sweep(self, monkeypatch):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.0, 0)
        model = make_model([np.eye(4)[:, :2], np.eye(4)[:, :2]])
        scored = []
        run = mv.evaluation.run_experiment
        monkeypatch.setattr(mv.evaluation, "run_experiment",
                            lambda *a, **kw: scored.append(kw["M"]) or run(*a, **kw))
        with pytest.raises(ConfigError, match=r"^experiment.d_sweep must be empty "
                           r"with a fixed model, which has one d, got \[1, 2\]$"):
            mv.run_protocol(ds, mv.Hyperparams(d=2), M=2, repeats=1,
                            d_sweep=[1, 2], fixed_model=model)
        assert scored == []
        for d_sweep in (None, []):
            table = mv.run_protocol(ds, mv.Hyperparams(d=2), M=2, repeats=1,
                                    d_sweep=d_sweep, fixed_model=model)
            labels = [r["row_label"] for r in table.rows]
            assert labels == ["view0", "view1", "Mean", "fused"]
        assert scored == [2, 2]

    @pytest.mark.parametrize("key,value", [("M", [3, 2, 3]), ("d_sweep", [2, 2])])
    def test_repeated_entry_named(self, key, value):
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.3, 0)
        with pytest.raises(ConfigError, match=f"^experiment.{key} must be a list of "
                                              "distinct integers"):
            mv.run_protocol(ds, mv.Hyperparams(d=2), **{key: value})

    def test_best_mean_row_per_M_first_d_on_a_tie(self, monkeypatch):
        # Mean accuracy by (M, d): M=2 peaks at d=3, M=3 ties between d=1 and d=3
        mean = {(2, 1): 0.5, (2, 2): 0.6, (2, 3): 0.7,
                (3, 1): 0.8, (3, 2): 0.4, (3, 3): 0.8}

        def fake_experiment(ds, h, M, repeats, base_seed, fixed_model=None):
            table = mv.ResultsTable(repeats=repeats)
            table.add("Mean", M, [mean[M, h.d]])
            table.rows[0]["d"] = h.d
            return table

        monkeypatch.setattr(mv.evaluation, "run_experiment", fake_experiment)
        ds = mv.synth_blobs(2, 3, 6, [4, 4], 0.3, 0)
        table = mv.run_protocol(ds, mv.Hyperparams(d=2), M=[2, 3], d_sweep=[1, 2, 3])
        assert [(r["M"], r["d"]) for r in table.rows] == [(2, 3), (3, 1)]
