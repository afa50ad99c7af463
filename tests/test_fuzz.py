"""Fuzz the config parser, the matrix-file and model readers and the
numeric CLI flags.

Whatever a config holds, `build_config` either accepts it or raises
ConfigError.  Whatever a view, label or projection file holds, and whatever
`gradcheck --step` or `diagnose --trials` is given, the CLI must end with one
of its exit codes; any other exception escaping `cli.main` fails the test,
and so does a numpy RuntimeWarning (a bad value that got past the readers),
which the pytest configuration turns into an error.
"""

import contextlib
import dataclasses
import io
import os
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvcontrast as mv
from mvcontrast.cli import main
from mvcontrast.config import build_config
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
OUTPUT = section(["dir", "formats"], mostly(
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
    for values in (cfg.M_values, cfg.d_sweep or [], (cfg.synth or {}).get("dims", [])):
        assert all(type(v) is int and v >= 1 for v in values)
    assert type(cfg.repeats) is int and cfg.repeats >= 1
    assert type(cfg.base_seed) is int and cfg.base_seed >= 0


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
