"""Fuzz the config parser, the matrix-file and model readers, view names, the
numeric CLI flags and `fit` on extreme hyperparameters and degenerate views.

Whatever a config holds, `build_config` either accepts it or raises
ConfigError, and an accepted config's echo reloads as the same echo.
Whatever a view, label or projection file holds, and whatever
`gradcheck --step` or `diagnose --trials` is given, the CLI must end with one
of its exit codes; any other exception escaping `cli.main` fails the test,
and so does a numpy RuntimeWarning (a bad value that got past the readers),
which the pytest configuration turns into an error.  A fit either raises
an MvError or returns a finite state whose convergence is real.
"""

import contextlib
import csv
import dataclasses
import io
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvcontrast as mv
from mvcontrast.cli import main
from mvcontrast.config import build_config, parse_config
from mvcontrast.errors import ConfigError
from test_cli import write_file_dataset

# file name -> (rows, columns) of its valid content
SHAPES = {"view0.csv": (8, 4), "labels.csv": (8, 1),
          "projection_view0.csv": (4, 2)}

CELLS = st.one_of(
    st.sampled_from(["", " ", "#", "# 1", "x", "1e999", "-0", "0x1", "1_0",
                     "nan", "-inf", "\t2", "3 ", "1.5", "\"1\""]),
    st.integers(-2, 2).map(str),
    st.floats().map(repr))


def file_text(shape):
    rows, cols = shape

    def row(n):
        return st.lists(CELLS, min_size=n, max_size=n).map(",".join)

    shaped = st.lists(row(cols), min_size=rows, max_size=rows)
    loose = st.lists(st.integers(0, cols + 1).flatmap(row), max_size=rows + 1)
    return st.one_of(st.text(), shaped.map("\n".join), loose.map("\n".join))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_eval_exits_cleanly_on_arbitrary_files(data):
    name = data.draw(st.sampled_from(sorted(SHAPES)), label="file")
    text = data.draw(file_text(SHAPES[name]), label="text")
    with tempfile.TemporaryDirectory() as root:
        cfg, _, _ = write_file_dataset(pathlib.Path(root))
        folder = "model" if name.startswith("projection") else "data"
        with open(os.path.join(root, folder, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        for extra in ([], ["--model", os.path.join(root, "model")]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["eval", "--config", cfg,
                             "--out", os.path.join(root, "r"), *extra])
            assert code in {0, 1, 2, 3}


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


def mostly(strategy, other=JSON):
    """`strategy` nine draws in ten, `other` in the tenth."""
    return st.integers(0, 9).flatmap(lambda k: other if k == 0 else strategy)


VALUE = mostly(st.integers(-1, 6) | st.floats(-1, 6)
               | st.lists(st.integers(-1, 6), max_size=3))


def section(keys, values=VALUE):
    """An object over the section's keys, or now and then any JSON value."""
    return mostly(st.dictionaries(st.sampled_from(keys), values, max_size=len(keys)))


PATHS = mostly(st.lists(st.text(max_size=4), min_size=1, max_size=3))
DATASET = mostly(st.one_of(
    st.fixed_dictionaries({"synth": section(
        ["V", "classes", "per_class", "dims", "noise_sigma", "seed", "center_scale"])},
        optional={"standardize": mostly(st.booleans())}),
    st.fixed_dictionaries({"views": PATHS}, optional={
        "standardize": mostly(st.booleans()), "labels": mostly(st.text(max_size=4))})))
HYPER = section(["lambda"] + [f.name for f in dataclasses.fields(mv.Hyperparams)
                              if f.name != "lam"])
EXPERIMENT = section(["M", "repeats", "base_seed", "d_sweep"])
OUTPUT = section(["formats"], mostly(
    st.text(max_size=4) | st.lists(st.sampled_from(["csv", "txt", "pdf"]), max_size=3)))
CONFIGS = mostly(st.fixed_dictionaries({"dataset": DATASET}, optional={
    "hyper": HYPER, "experiment": EXPERIMENT, "output": OUTPUT}))


@settings(max_examples=300, deadline=None)
@given(raw=CONFIGS)
def test_build_config_raises_only_config_error(raw):
    try:
        cfg = build_config(raw)
    except ConfigError:
        return
    exp = cfg.experiment
    for values in (exp["M"], exp["d_sweep"] or [],
                   (cfg.dataset["synth"] or {}).get("dims", [])):
        assert all(type(v) is int and v >= 1 for v in values)
    assert type(exp["repeats"]) is int and exp["repeats"] >= 1
    assert type(exp["base_seed"]) is int and exp["base_seed"] >= 0
    with tempfile.TemporaryDirectory() as root:
        echo = cfg.write_echo(os.path.join(root, "a"))
        again = parse_config(echo).write_echo(os.path.join(root, "b"))
        assert pathlib.Path(echo).read_bytes() == pathlib.Path(again).read_bytes()


# two distinct names, mostly printable text (letters, digits, punctuation,
# symbols, spaces), now and then any text or a name at the edge of the rule
NAMES = st.lists(mostly(
    st.text(st.characters(categories=["L", "N", "P", "S", "Zs"]), min_size=1,
            max_size=12),
    st.text(max_size=12) | st.sampled_from(
        ["", ".", "..", "...", ".a", "a.", "a,b", '"a"', "a/b", "a\\b", "labels",
         "Mean", "fused", " a "])), min_size=2, max_size=2, unique=True)


@settings(max_examples=100, deadline=None)
@given(names=NAMES)
def test_view_names_round_trip_or_raise_mv_error(names):
    # a name the rule accepts keys a view file, a projection file and one
    # results.csv field; one it rejects is an MvError wherever it is given
    views = [np.arange(12.0).reshape(2, 6) ** 2, np.ones((2, 6))]
    projections = [np.eye(2)[:, :1]] * 2
    try:
        ds = mv.MultiViewDataset(views=views, labels=[0, 0, 0, 1, 1, 1],
                                 view_names=names)
    except mv.DataError:
        with pytest.raises(mv.ConfigError):
            mv.Model(projections=projections, hyper=mv.Hyperparams(d=1), meta={},
                     view_names=names)
        return
    model = mv.Model(projections=projections, hyper=mv.Hyperparams(d=1), meta={},
                     view_names=names)
    with tempfile.TemporaryDirectory() as root:
        paths, label_path = mv.save_views(ds, os.path.join(root, "data"))
        assert mv.load_views(paths, label_path).view_names == names
        mv.save_model(model, os.path.join(root, "model"))
        assert mv.load_model(os.path.join(root, "model")).view_names == names
        cfg = os.path.join(root, "c.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"dataset": {"views": paths, "labels": label_path},
                       "experiment": {"M": 1, "repeats": 1}}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eval", "--config", cfg, "--model",
                         os.path.join(root, "model"), "--out",
                         os.path.join(root, "r")]) == 0
        with open(os.path.join(root, "r", "results.csv"), newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [5] * 5
    assert [row[0] for row in rows[1:]] == [*names, "Mean", "fused"]


def run_cli(*argv):
    """Exit code and stderr of `cli.main` on a default synthetic config."""
    with tempfile.TemporaryDirectory() as root:
        cfg = os.path.join(root, "c.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write('{"dataset": {"synth": {}}}')
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--config", cfg, *argv[1:]])
    return code, err.getvalue()


# a separate token such as "-1e-06" is read as a flag, not as the value
@settings(max_examples=100, deadline=None)
@given(step=st.floats())
@example(step=0.0)
@example(step=-1e-06)
def test_gradcheck_step_exits_cleanly(step):
    code, err = run_cli("gradcheck", "--step", repr(step))
    assert code in {0, 1, 3}
    assert "Traceback" not in err


def few_trials(text):
    """False for text that int() reads as more than 1000 (a slow run)."""
    try:
        return int(text) <= 1000
    except ValueError:
        return True


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(-5, 30).map(str) | st.text().filter(few_trials))
@example(trials="x")
def test_diagnose_trials_exits_cleanly(trials):
    code, err = run_cli("diagnose", "--trials", trials)
    assert code in {0, 1, 3}
    assert "Traceback" not in err


# a magnitude of 10**u, u in [0, 300]; tiny ones are left out, since a step
# that underflows to 0 is a real stall
HUGE = st.floats(0, 300).map(lambda u: 10.0 ** u)


@settings(max_examples=100, deadline=None)
@given(V=st.integers(2, 3), n=st.integers(2, 9), data=st.data())
def test_fit_raises_or_converges_for_real(V, n, data):
    dims = data.draw(st.lists(st.integers(2, 4), min_size=V, max_size=V), label="dims")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    views = [rng.normal(size=(dim, n)) for dim in dims]
    views[data.draw(st.integers(0, V - 1), label="scaled view")] *= data.draw(
        HUGE, label="scale")
    extreme = data.draw(st.fixed_dictionaries({}, optional={
        name: HUGE for name in ("alpha", "beta", "gamma", "lam")}), label="hyper")
    h = mv.Hyperparams(d=data.draw(st.integers(1, min(dims)), label="d"),
                       max_iters=data.draw(st.integers(1, 20), label="max_iters"),
                       **extreme)
    try:
        model, state = mv.fit(mv.MultiViewDataset(views=views), h, seed=0)
    except mv.NumericError:
        return
    assert np.isfinite(state.P.P).all()
    assert all(np.isfinite(Wm).all() for Wm in state.W.W)
    assert not model.meta["converged"] or state.last_max_step > 0


def magnitude(low, high):
    """10**u for u in [low, high]."""
    return st.floats(low, high).map(lambda u: 10.0 ** u)


# view 0 constant or zero, or every sample of both views the same
DEGENERATE = ["none", "constant view", "zero view", "equal samples"]


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 8]), degenerate=st.sampled_from(DEGENERATE),
       gamma=magnitude(-300, 0), extreme=st.fixed_dictionaries({}, optional={
           name: magnitude(-300, 300)
           for name in ("eps_adam", "tau1", "tau2", "norm_eps")}),
       d=st.integers(1, 3), max_iters=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32 - 1))
# steps too small to move W or P leave the loss unchanged, which meets tol
@example(n=8, degenerate="none", gamma=1e-300, extreme={}, d=2, max_iters=30, seed=0)
@example(n=8, degenerate="none", gamma=1e-3, extreme={"eps_adam": 1e300}, d=2,
         max_iters=30, seed=0)
def test_fit_on_tiny_steps_or_degenerate_views(n, degenerate, gamma, extreme, d,
                                               max_iters, seed):
    rng = np.random.default_rng(seed)
    views = [rng.normal(size=(3, n)) for _ in range(2)]
    if degenerate == "constant view":
        views[0][:] = rng.normal()
    elif degenerate == "zero view":
        views[0][:] = 0.0
    elif degenerate == "equal samples":
        views = [v[:, :1].repeat(n, axis=1) for v in views]
    h = mv.Hyperparams(d=d, gamma=gamma, max_iters=max_iters, **extreme)
    try:
        model, state = mv.fit(mv.MultiViewDataset(views=views), h, seed=0)
    except mv.MvError:
        return
    assert np.isfinite(state.P.P).all()
    assert all(np.isfinite(Wm).all() for Wm in state.W.W)
    assert not model.meta["converged"] or state.last_max_step > 0
