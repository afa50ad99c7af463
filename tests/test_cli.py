import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mvcontrast as mv
from mvcontrast.cli import COMMANDS, main
from mvcontrast.config import build_config, parse_config
from mvcontrast.errors import ConfigError, DataError
from mvcontrast.evaluation import FORMATS


def write_config(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SYNTH_SMALL = {
    "dataset": {"synth": {"classes": 2, "per_class": 4, "dims": [4, 4],
                          "noise_sigma": 0.2}},
    "hyper": {"max_iters": 3, "tol": 1e-12},
    "experiment": {"M": 2, "repeats": 2},
}


def run_module(*argv):
    """Exit code, stdout and stderr of `python -m mvcontrast.cli` run apart."""
    proc = subprocess.run([sys.executable, "-m", "mvcontrast.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    return proc.returncode, proc.stdout, proc.stderr


def write_file_dataset(tmp_path):
    """A small labelled two-view CSV set, its config and a d=2 model."""
    ds = mv.synth_blobs(2, 2, 4, [4, 4], 0.2, 0)
    paths, label_path = mv.save_views(ds, tmp_path / "data")
    obj = dict(SYNTH_SMALL, dataset={"views": paths, "labels": label_path})
    model = mv.Model(projections=[np.eye(4)[:, :2], np.eye(4)[:, 2:]],
                     hyper=mv.Hyperparams(d=2), meta={})
    mv.save_model(model, tmp_path / "model")
    return write_config(tmp_path / "c.json", obj), paths, label_path


class TestBuildConfig:
    def test_defaults_filled(self):
        cfg = build_config({"dataset": {"synth": {}}})
        assert cfg.hyper.d == 2
        assert cfg.hyper.lam == 1.0
        assert cfg.hyper.max_iters == 500
        assert cfg.experiment["M"] == [4]
        assert cfg.experiment["repeats"] == 5
        assert cfg.output["formats"] == ["csv", "txt"]

    def test_output_dir_is_an_unknown_key(self):
        # --out is the one output directory of every command that writes
        with pytest.raises(ConfigError,
                           match="^unknown key 'dir' in section 'output'$"):
            build_config({"dataset": {"synth": {}}, "output": {"dir": "results"}})

    def test_hyper_defaults_are_the_library_defaults(self):
        assert build_config({"dataset": {"synth": {}}}).hyper == mv.Hyperparams()

    def test_lambda_key_maps_to_lam(self):
        cfg = build_config({"dataset": {"synth": {}}, "hyper": {"lambda": 2.5}})
        assert cfg.hyper.lam == 2.5

    def test_hyper_section_round_trips(self):
        h = mv.Hyperparams(d=3, lam=0.25, tol=float("inf"), max_iters=7)
        section = h.as_section()
        assert section["lambda"] == 0.25 and "lam" not in section
        assert mv.Hyperparams.from_section(**section) == h
        assert build_config({"dataset": {"synth": {}}, "hyper": section}).hyper == h

    def test_scalar_M_promoted_to_list(self):
        cfg = build_config({"dataset": {"synth": {}}, "experiment": {"M": 6}})
        assert cfg.experiment["M"] == [6]

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section 'extra'"):
            build_config({"dataset": {"synth": {}}, "extra": {}})

    def test_unknown_hyper_key_named(self):
        with pytest.raises(ConfigError, match="'learning_rate'"):
            build_config({"dataset": {"synth": {}},
                          "hyper": {"learning_rate": 0.1}})

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"dataset": {"synth": {}}, "hyper": {"lambda": -1.0}})

    def test_views_and_synth_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            build_config({"dataset": {"views": ["a.csv"], "synth": {}}})

    def test_neither_views_nor_synth(self):
        with pytest.raises(ConfigError, match="exactly one"):
            build_config({"dataset": {}})

    def test_dims_length_must_match_V(self):
        with pytest.raises(ConfigError, match="dims"):
            build_config({"dataset": {"synth": {"V": 3, "dims": [4, 4]}}})

    def test_bad_repeats(self):
        with pytest.raises(ConfigError, match="repeats"):
            build_config({"dataset": {"synth": {}},
                          "experiment": {"repeats": 0}})

    def test_echo_reloads_as_the_same_config(self, tmp_path):
        files = {"dataset": {"views": ["a.csv", "b.csv"], "labels": "l.csv"},
                 "hyper": {"tol": float("inf")}, "experiment": {"d_sweep": [1, 2]}}
        for k, obj in enumerate([SYNTH_SMALL, files]):
            echo = build_config(obj).write_echo(tmp_path / f"{k}a")
            again = parse_config(echo).write_echo(tmp_path / f"{k}b")
            with open(echo, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()

    def test_byte_order_mark_skipped(self, tmp_path):
        # spreadsheets and some editors save UTF-8 with a leading BOM
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(SYNTH_SMALL).encode("utf-8"))
        assert parse_config(str(path)) == build_config(SYNTH_SMALL)

    def test_parse_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "absent.json"))

    def test_parse_config_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(str(p))

    def test_repeated_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"dataset": {"synth": {}}, "hyper": {"d": 2, "d": 9}}')
        out = tmp_path / "m"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"error: ConfigError: config {cfg} is not valid JSON: key 'd' is "
                "repeated in one object") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        (b'{"dataset": {"synth": {}}, "output": {"dir": "\xff"}}', "'utf-8' codec"),
        (b"[" * 100000 + b"]" * 100000, "maximum recursion depth"),
    ], ids=["not UTF-8", "nested too deep"])
    def test_undecodable_config_exit_1(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(text)
        assert main(["gradcheck", "--config", str(cfg)]) == 1
        assert (f"error: ConfigError: config {cfg} is not valid JSON: {message}"
                in capsys.readouterr().err)


class TestSynthTrainEval:
    def test_synth_writes_csvs_and_echo(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        out = tmp_path / "data"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert "labels.csv" in names
        assert "run.json" in names
        assert sum(n.startswith("view") and n.endswith(".csv")
                   for n in names) == 2
        echoed = json.loads((out / "run.json").read_text())
        assert echoed["hyper"]["gamma"] == 0.001

    def test_train_then_eval_on_generated_files(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        data_dir = tmp_path / "data"
        main(["synth", "--config", cfg, "--out", str(data_dir)])

        file_cfg = dict(SYNTH_SMALL)
        file_cfg["dataset"] = {
            "views": [str(data_dir / "view0.csv"), str(data_dir / "view1.csv")],
            "labels": str(data_dir / "labels.csv"),
        }
        cfg2 = write_config(tmp_path / "c2.json", file_cfg)

        model_dir = tmp_path / "model"
        assert main(["train", "--config", cfg2, "--out", str(model_dir)]) == 0
        assert (model_dir / "manifest.json").exists()
        assert (model_dir / "loss_history.csv").exists()
        history = (model_dir / "loss_history.csv").read_text().strip().split("\n")
        assert history[0] == "iteration,total_loss"
        assert len(history) >= 2

        eval_dir = tmp_path / "results"
        assert main(["eval", "--config", cfg2, "--model", str(model_dir),
                     "--out", str(eval_dir)]) == 0
        csv = (eval_dir / "results.csv").read_text().strip().split("\n")
        assert csv[0] == "row_label,M,mean,std,repeats"
        labels = [line.split(",")[0] for line in csv[1:]]
        assert labels == ["view0", "view1", "Mean", "fused"]
        assert (eval_dir / "results.txt").exists()

    def test_train_files_in_the_codec_formats(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path / "c.json", SYNTH_SMALL), tmp_path / "m"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        run = build_config(SYNTH_SMALL)
        _, state = mv.fit(mv.load_dataset(**run.dataset), run.hyper,
                          seed=run.experiment["base_seed"])
        assert (out / "loss_history.csv").read_text() == "iteration,total_loss\n" + \
            "".join(f"{i},{v:.17g}\n" for i, v in enumerate(state.loss_history))
        for name in ("run.json", "manifest.json"):
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)

    def test_eval_retrains_without_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        out = tmp_path / "results"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "results.csv").exists()

    def test_eval_deterministic_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["eval", "--config", cfg, "--out", str(out1)])
        main(["eval", "--config", cfg, "--out", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_eval_d_sweep(self, tmp_path, capsys):
        obj = json.loads(json.dumps(SYNTH_SMALL))
        obj["experiment"]["d_sweep"] = [1, 2]
        cfg = write_config(tmp_path / "c.json", obj)
        out = tmp_path / "results"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        csv = (out / "results.csv").read_text().strip().split("\n")
        assert len(csv) == 5  # header + 4 rows for the single M

    def test_eval_multiple_M(self, tmp_path, capsys):
        obj = json.loads(json.dumps(SYNTH_SMALL))
        obj["experiment"]["M"] = [2, 3]
        cfg = write_config(tmp_path / "c.json", obj)
        out = tmp_path / "results"
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        csv = (out / "results.csv").read_text().strip().split("\n")
        Ms = {line.split(",")[1] for line in csv[1:]}
        assert Ms == {"2", "3"}

    def test_eval_model_runs_once_per_M(self, tmp_path, capsys, monkeypatch):
        # a fixed model has one d, and an empty sweep runs it as no sweep does
        cfg, paths, label_path = write_file_dataset(tmp_path)
        calls = []
        run = mv.evaluation.run_experiment
        monkeypatch.setattr(mv.evaluation, "run_experiment",
                            lambda *a, **kw: calls.append(kw["M"]) or run(*a, **kw))
        tables = []
        for d_sweep in (None, []):
            obj = dict(SYNTH_SMALL, dataset={"views": paths, "labels": label_path},
                       experiment={"M": [2, 3], "repeats": 2, "d_sweep": d_sweep})
            out = tmp_path / f"r{len(tables)}"
            assert main(["eval", "--config", write_config(tmp_path / "c2.json", obj),
                         "--model", str(tmp_path / "model"), "--out", str(out)]) == 0
            tables.append((out / "results.csv").read_bytes())
        assert calls == [2, 3, 2, 3]
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("names", [["view1", "view0"], ["a", "b"]],
                             ids=["swapped", "renamed"])
    def test_eval_model_on_other_views_exit_2(self, tmp_path, capsys, monkeypatch,
                                              names):
        # the model's views are view0 and view1, of equal dims; the config lists
        # the same files in the other order, or under other names
        _, paths, label_path = write_file_dataset(tmp_path)
        views = []
        for name, path in zip(names, paths):
            views.append(str(tmp_path / f"{name}.csv"))
            shutil.copyfile(path, views[-1])
        splits = []
        split = mv.evaluation.split
        monkeypatch.setattr(mv.evaluation, "split",
                            lambda *a: splits.append(a) or split(*a))
        cfg = write_config(tmp_path / "c2.json", dict(
            SYNTH_SMALL, dataset={"views": views, "labels": label_path}))
        out = tmp_path / "r"
        assert main(["eval", "--config", cfg, "--model", str(tmp_path / "model"),
                     "--out", str(out)]) == 2
        assert (f"error: DataError: model has views ['view0', 'view1'], data has "
                f"{names}") in capsys.readouterr().err
        assert splits == [] and os.listdir(out) == []

    def test_eval_model_with_d_sweep_exit_1(self, tmp_path, capsys):
        synth = {"classes": 3, "per_class": 8, "dims": [5, 4]}
        mv.save_model(mv.Model(projections=[np.eye(5)[:, :2], np.eye(4)[:, :2]],
                               hyper=mv.Hyperparams(d=2), meta={}),
                      tmp_path / "model")
        obj = {"dataset": {"synth": synth}, "experiment": {"d_sweep": [1, 2, 3]}}
        out = tmp_path / "r"
        assert main(["eval", "--config", write_config(tmp_path / "c.json", obj),
                     "--model", str(tmp_path / "model"), "--out", str(out)]) == 1
        assert ("error: ConfigError: experiment.d_sweep must be empty with a fixed "
                "model, which has one d, got [1, 2, 3]") in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_mismatched_model_dims_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        model_dir = tmp_path / "model"
        main(["train", "--config", cfg, "--out", str(model_dir)])
        obj = json.loads(json.dumps(SYNTH_SMALL))
        obj["dataset"]["synth"]["dims"] = [5, 5]
        cfg2 = write_config(tmp_path / "c2.json", obj)
        splits = []
        split = mv.evaluation.split
        monkeypatch.setattr(mv.evaluation, "split",
                            lambda *a: splits.append(a) or split(*a))
        code = main(["eval", "--config", cfg2, "--model", str(model_dir),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "error: DataError" in capsys.readouterr().err
        assert splits == []  # the model is checked against the data first


class TestGradcheckDiagnose:
    def test_gradcheck_exit_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {}}})
        assert main(["gradcheck", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out and "OK" in out

    def test_gradcheck_large_step_can_fail(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {}}})
        code = main(["gradcheck", "--config", cfg, "--step", "1.0"])
        assert code in (0, 3)  # either way, no crash and a report line
        assert "max_rel_err" in capsys.readouterr().out

    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.5"])
    def test_gradcheck_bad_step_exit_1(self, tmp_path, capsys, step):
        cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {}}})
        assert main(["gradcheck", "--config", cfg, "--step", step]) == 1
        assert "error: ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_diagnose_no_trials_exit_1(self, tmp_path, capsys, trials):
        cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {}}})
        assert main(["diagnose", "--config", cfg, "--trials", trials]) == 1
        assert "error: ConfigError" in capsys.readouterr().err

    def test_diagnose_exit_0_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {}}})
        assert main(["diagnose", "--config", cfg, "--trials", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "check,trial,value,bound,ok"
        assert len(lines) == 21
        assert all(line.endswith(",1") for line in lines[1:])

    @pytest.mark.parametrize("args,message", [
        (["diagnose", "--config", "CFG", "--trials", "x"], "invalid int value: 'x'"),
        (["gradcheck", "--config", "CFG", "--step", "-1e-6"],
         "--step: expected one argument"),
        (["unknown", "--config", "CFG"], "invalid choice: 'unknown'"),
        ([], "required: command"),
    ], ids=["trials-not-int", "step-read-as-flag", "unknown-command", "no-command"])
    def test_usage_error_exit_1(self, tmp_path, capsys, args, message):
        cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {}}})
        assert main([cfg if a == "CFG" else a for a in args]) == 1
        err = capsys.readouterr().err
        assert "error: ConfigError" in err and message in err

    def test_help_exit_0(self):
        code, out, err = run_module("gradcheck", "--help")
        assert code == 0 and "usage:" in out and err == ""
        # COMMANDS holds the one description of each subcommand
        code, out, err = run_module("--help")
        assert code == 0 and err == ""
        words = " ".join(out.split())
        assert [name for name, (_, help_text, _, _) in COMMANDS.items()
                if f" {name} {help_text} " not in words] == []

    def test_config_error_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"dataset": {}})
        assert main(["gradcheck", "--config", cfg]) == 1
        assert "error: ConfigError" in capsys.readouterr().err

    def test_synth_without_synth_section_exit_1(self, tmp_path, capsys):
        cfg, _, _ = write_file_dataset(tmp_path)
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert ("error: ConfigError: synth subcommand needs a dataset.synth section"
                in capsys.readouterr().err)

    def test_missing_view_file_exit_2(self, tmp_path, capsys):
        views = [str(tmp_path / "nope.csv"), str(tmp_path / "nope2.csv")]
        cfg = write_config(tmp_path / "c.json", {"dataset": {"views": views}})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m")]) == 2
        assert "error: DataError" in capsys.readouterr().err

    def test_view_files_sharing_a_stem_exit_2(self, tmp_path, capsys):
        # each view's projection is saved as projection_<stem>.csv
        data_dir = tmp_path / "data"
        main(["synth", "--config", write_config(tmp_path / "s.json", SYNTH_SMALL),
              "--out", str(data_dir)])
        views = []
        for sub, src in [("a", "view0.csv"), ("b", "view1.csv")]:
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.csv").write_bytes((data_dir / src).read_bytes())
            views.append(str(tmp_path / sub / "x.csv"))
        cfg = write_config(tmp_path / "c.json", dict(SYNTH_SMALL, dataset={
            "views": views, "labels": str(data_dir / "labels.csv")}))
        model = tmp_path / "m"
        assert main(["train", "--config", cfg, "--out", str(model)]) == 2
        assert "error: DataError: view names must be distinct" in \
            capsys.readouterr().err
        assert not (model / "manifest.json").exists()

    def test_reserved_view_name_exit_2(self, tmp_path, capsys):
        # a view named fused would give the results two fused rows
        cfg, paths, label_path = write_file_dataset(tmp_path)
        fused = os.path.join(os.path.dirname(paths[0]), "fused.csv")
        os.rename(paths[0], fused)
        cfg = write_config(tmp_path / "c.json", dict(SYNTH_SMALL, dataset={
            "views": [fused, paths[1]], "labels": label_path}))
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: DataError: view names must be distinct and none of " \
            "labels, Mean or fused" in capsys.readouterr().err
        assert not (tmp_path / "r" / "results.csv").exists()

    def test_zero_step_fit_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "dataset": {"synth": {"classes": 2, "per_class": 4, "dims": [3, 3]}},
            "hyper": {"gamma": 1e-300}})
        model = tmp_path / "m"
        assert main(["train", "--config", cfg, "--out", str(model)]) == 3
        assert "error: NumericError: every step rounded to 0 in iteration 1" in \
            capsys.readouterr().err
        assert not (model / "manifest.json").exists()


class TestFormats:
    """evaluation.FORMATS is the one list of results formats."""

    def test_every_format_accepted(self):
        for fmt in FORMATS:
            cfg = build_config({"dataset": {"synth": {}}, "output": {"formats": [fmt]}})
            assert cfg.output["formats"] == [fmt]

    def test_eval_writes_each_format_by_its_renderer(self, tmp_path, capsys,
                                                     monkeypatch):
        _, paths, label_path = write_file_dataset(tmp_path)
        tables = []
        run = mv.evaluation.run_protocol
        monkeypatch.setattr(mv.evaluation, "run_protocol",
                            lambda *a, **kw: tables.append(run(*a, **kw)) or tables[-1])
        obj = dict(SYNTH_SMALL, dataset={"views": paths, "labels": label_path},
                   output={"formats": [*FORMATS]})
        out = tmp_path / "r"
        assert main(["eval", "--config", write_config(tmp_path / "c2.json", obj),
                     "--model", str(tmp_path / "model"), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == sorted(
            ["run.json", *(f"results.{fmt}" for fmt in FORMATS)])
        for fmt, render in FORMATS.items():
            assert (out / f"results.{fmt}").read_text() == render(tables[0])

    def test_unknown_format_message(self):
        with pytest.raises(ConfigError, match=re.escape(
                "output.formats must be a list drawn from ['csv', 'txt'], "
                "got ['csv', 'pdf']")):
            build_config({"dataset": {"synth": {}},
                          "output": {"formats": ["csv", "pdf"]}})


class TestUnwritableOutput:
    """An output path naming a file is a ConfigError (exit 1), not a traceback."""

    def check(self, code, err, path):
        assert code == 1
        assert "error: ConfigError: cannot write output" in err and str(path) in err
        assert "Traceback" not in err

    def test_synth_out_is_a_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        out = tmp_path / "taken"
        out.write_text("")
        code, _, err = run_module("synth", "--config", cfg, "--out", str(out))
        self.check(code, err, out)

    def test_train_out_below_a_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub"
        code, _, err = run_module("train", "--config", cfg, "--out", str(out))
        self.check(code, err, out)

    def test_eval_output_dir_is_a_file(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        out = tmp_path / "taken"
        out.write_text("")
        code, _, err = run_module("eval", "--config", cfg, "--out", str(out))
        self.check(code, err, out)

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_without_out_exit_1(self, tmp_path, command):
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        code, out, err = run_module(command, "--config", cfg)
        assert code == 1 and out == ""
        assert (f"error: ConfigError: mvcontrast {command}: the following arguments "
                "are required: --out") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_fails_before_fitting(self, tmp_path, capsys, monkeypatch, command):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran before the output path was checked")

        monkeypatch.setattr(mv.trainer, "fit", no_fit)
        cfg = write_config(tmp_path / "c.json", SYNTH_SMALL)
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "sub"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        self.check(1, capsys.readouterr().err, out)


class TestOutputDirectory:
    """`main` makes a writing command's --out before the command runs and
    writes run.json into it only after the command succeeds."""

    @pytest.mark.parametrize("command", ["synth", "train", "eval"])
    def test_run_json_echoes_the_config(self, tmp_path, capsys, command):
        cfg, out = write_config(tmp_path / "c.json", SYNTH_SMALL), tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        echo = build_config(SYNTH_SMALL).write_echo(tmp_path / "echo")
        assert (out / "run.json").read_bytes() == pathlib.Path(echo).read_bytes()

    @pytest.mark.parametrize("command,edit,code", [
        ("synth", lambda obj, views: obj, 1),
        ("train", lambda obj, views: dict(obj, hyper={"gamma": 1e-300}), 3),
        ("eval", lambda obj, views: dict(obj, dataset={"views": [
            views[0], views[0] + ".missing"]}), 2),
    ], ids=["no synth section", "zero step", "missing view file"])
    def test_failure_leaves_out_without_run_json(self, tmp_path, capsys, command,
                                                 edit, code):
        _, views, label_path = write_file_dataset(tmp_path)
        obj = dict(SYNTH_SMALL, dataset={"views": views, "labels": label_path})
        cfg = write_config(tmp_path / "e.json", edit(obj, views))
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert "error: " in capsys.readouterr().err
        assert out.is_dir() and os.listdir(out) == []


BAD_MATRIX_FILES = {
    "ragged row": "1,2,3,4\n5,6,7\n",
    "non-numeric cell": "1,2,3,4\n5,6,x,8\n",
    "hash in a cell": "1,2,3,4\n5,6,7,8 # note\n",
    "comment line": "# header\n1,2,3,4\n",
    "empty file": "",
    "all-blank file": "\n  \n\t\n",
    # 8 rows, as many as the other view: only the cell is at fault
    "NaN cell": "1,2,3,4\n" * 7 + "5,nan,7,8\n",
    "infinite cell": "1,2,3,inf\n" + "5,6,7,8\n" * 7,
    "negative infinite cell": "1,2,3,4\n" * 4 + "-inf,6,7,8\n" * 4,
    "overflowing cell": "1,2,3,4\n" * 5 + "5,6,1e999,8\n" * 3,
}

BAD_MODEL_FILES = {
    "bad manifest JSON": ("manifest.json", lambda text: text[:-2]),
    "missing manifest key": ("manifest.json", lambda text: text.replace(
        '"view_dims"', '"dims"')),
    "unknown hyperparameter": ("manifest.json", lambda text: text.replace(
        '"gamma"', '"learning_rate"')),
    "repeated hyperparameter": ("manifest.json", lambda text: text.replace(
        '"gamma":', '"gamma": 0.5, "gamma":')),
    "non-numeric projection": ("projection_view0.csv",
                               lambda text: "1,0\n0,x\n0,0\n0,0\n"),
    "view_dims one short": ("manifest.json", lambda text: json.dumps(
        dict(json.loads(text), view_dims=[4]))),
    "view_names one short": ("manifest.json", lambda text: json.dumps(
        dict(json.loads(text), view_names=["view0"]))),
    "non-finite projection": ("projection_view0.csv",
                              lambda text: "1,0\n0,nan\n0,0\n0,inf\n"),
    # the file exists and holds view0's projection, but outside the model
    "projection file outside the model": ("manifest.json", lambda text: text.replace(
        '"projection_view0.csv"', '"../model/projection_view0.csv"')),
    "view_names as a string": ("manifest.json", lambda text: json.dumps(
        dict(json.loads(text), view_names="ab"))),
    "hyperparameter d unlike the projections": ("manifest.json", lambda text: json.dumps(
        dict(json.loads(text), hyperparams=dict(json.loads(text)["hyperparams"], d=1)))),
}

BAD_LABEL_FILES = {
    "infinite label": "inf",
    "NaN label": "nan",
    "label of 2**53": "9007199254740992",
}


class TestBadInputFiles:
    @pytest.mark.parametrize("text", BAD_MATRIX_FILES.values(),
                             ids=BAD_MATRIX_FILES.keys())
    def test_bad_view_file_exit_2(self, tmp_path, capsys, text):
        cfg, paths, label_path = write_file_dataset(tmp_path)
        with open(paths[0], "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(DataError, match="view0.csv"):
            mv.load_views(paths, label_path)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: DataError" in capsys.readouterr().err

    @pytest.mark.parametrize("label", BAD_LABEL_FILES.values(),
                             ids=BAD_LABEL_FILES.keys())
    def test_bad_label_exit_2(self, tmp_path, capsys, label):
        cfg, paths, label_path = write_file_dataset(tmp_path)
        with open(label_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(label_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join([label] + lines[1:]) + "\n")
        with pytest.raises(DataError, match="labels.csv"):
            mv.load_views(paths, label_path)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: DataError" in capsys.readouterr().err

    @pytest.mark.parametrize("fname,edit", BAD_MODEL_FILES.values(),
                             ids=BAD_MODEL_FILES.keys())
    def test_bad_model_file_exit_2(self, tmp_path, capsys, fname, edit):
        cfg, _, _ = write_file_dataset(tmp_path)
        model_dir = tmp_path / "model"
        mv.load_model(model_dir)
        path = model_dir / fname
        path.write_text(edit(path.read_text()))
        with pytest.raises(DataError):
            mv.load_model(model_dir)
        assert main(["eval", "--config", cfg, "--model", str(model_dir),
                     "--out", str(tmp_path / "r")]) == 2
        assert "error: DataError" in capsys.readouterr().err

    # a view's name is its file's stem, and one field of its results.csv row
    @pytest.mark.parametrize("stem", ["a,b", '"a"', "a\nb"],
                             ids=["comma", "quotes", "newline"])
    def test_view_file_name_unusable_as_a_field_exit_2(self, tmp_path, capsys, stem):
        cfg, paths, label_path = write_file_dataset(tmp_path)
        renamed = os.path.join(os.path.dirname(paths[0]), f"{stem}.csv")
        os.rename(paths[0], renamed)
        cfg = write_config(tmp_path / "c.json", dict(SYNTH_SMALL, dataset={
            "views": [renamed, paths[1]], "labels": label_path}))
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DataError: view names must be distinct")
        assert repr(renamed) in err
        assert not (tmp_path / "r" / "results.csv").exists()

    def test_missing_or_truncated_json_named(self, tmp_path):
        cfg, _, _ = write_file_dataset(tmp_path)
        manifest = tmp_path / "model" / "manifest.json"
        for path, read, error, what in [
                (pathlib.Path(cfg), parse_config, ConfigError, "config"),
                (manifest, lambda p: mv.load_model(p.parent), DataError,
                 "model manifest")]:
            name = re.escape(str(path))
            path.write_text(path.read_text()[:-2])
            with pytest.raises(error, match=f"^{what} {name} is not valid JSON: "):
                read(path)
            path.unlink()
            with pytest.raises(error, match=f"^cannot read {what} {name}: "):
                read(path)

    def test_overflowing_projection_exit_3(self, tmp_path, capsys):
        cfg, _, _ = write_file_dataset(tmp_path)
        model_dir = tmp_path / "model"
        (model_dir / "projection_view0.csv").write_text("1e300,0\n0,1\n0,0\n0,0\n")
        assert main(["eval", "--config", cfg, "--model", str(model_dir),
                     "--out", str(tmp_path / "r")]) == 3
        assert "error: NumericError: floating-point overflow" in capsys.readouterr().err


BAD_CONFIGS = {
    "labels with synth": {"dataset": {"synth": {}, "labels": "labels.csv"}},
    "unknown output format": {"dataset": {"synth": {}},
                              "output": {"formats": ["csv", "pdf"]}},
    "output formats not a list": {"dataset": {"synth": {}},
                                  "output": {"formats": "csv"}},
    "infinite hyperparameter": {"dataset": {"synth": {}},
                                "hyper": {"gamma": float("inf")}},
    "non-numeric hyperparameter": {"dataset": {"synth": {}},
                                   "hyper": {"gamma": "0.1"}},
    "boolean hyperparameter": {"dataset": {"synth": {}}, "hyper": {"d": True}},
    "integer view paths": {"dataset": {"views": [3, 4]}},
    "string as view list": {"dataset": {"views": "ab"}},
    "integer label path": {"dataset": {"views": ["a.csv"], "labels": 0}},
    "dataset not an object": {"dataset": ["views"]},
    "synth not an object": {"dataset": {"synth": 3}},
    "hyper not an object": {"dataset": {"synth": {}}, "hyper": []},
    "experiment not an object": {"dataset": {"synth": {}}, "experiment": "M"},
    "output not an object": {"dataset": {"synth": {}}, "output": "out"},
    "M as a string": {"dataset": {"synth": {}}, "experiment": {"M": "ab"}},
    "M holding null": {"dataset": {"synth": {}}, "experiment": {"M": [None]}},
    "repeats as a string": {"dataset": {"synth": {}}, "experiment": {"repeats": "x"}},
    "base_seed as a string": {"dataset": {"synth": {}},
                              "experiment": {"base_seed": "x"}},
    "d_sweep as a number": {"dataset": {"synth": {}}, "experiment": {"d_sweep": 5}},
    "repeated M": {"dataset": {"synth": {}}, "experiment": {"M": [3, 3]}},
    "repeated d_sweep entry": {"dataset": {"synth": {}},
                               "experiment": {"d_sweep": [2, 1, 2]}},
    "synth dims as a number": {"dataset": {"synth": {"dims": 8}}},
    "fractional synth per_class": {"dataset": {"synth": {"per_class": 2.5}}},
    "synth noise_sigma as a string": {"dataset": {"synth": {"noise_sigma": "a"}}},
    "synth with one view": {"dataset": {"synth": {"V": 1, "dims": [8]}}},
    "views with one path": {"dataset": {"views": ["a.csv"]}},
}


@pytest.mark.parametrize("obj", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_exit_1(tmp_path, capsys, obj):
    cfg = write_config(tmp_path / "c.json", obj)
    assert main(["gradcheck", "--config", cfg]) == 1
    assert "error: ConfigError" in capsys.readouterr().err


def test_out_of_memory_exit_1(tmp_path):
    # the child caps its own address space at 2 GiB; init_state's 30000 x 30000
    # W needs 6.7 GiB
    resource = pytest.importorskip("resource")
    cfg = write_config(tmp_path / "c.json", {"dataset": {"synth": {
        "classes": 3, "per_class": 10000, "dims": [8, 8]}}})
    cap = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "mvcontrast.cli", "train", "--config", cfg,
         "--out", str(tmp_path / "m")], capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        # one BLAS thread, so that its buffers fit under the cap on any core count
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                 OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"))
    assert proc.returncode == 1, proc.stderr
    assert "error: ConfigError: out of memory in train: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_no_scipy():
    code = ("import sys, mvcontrast.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "[]"
