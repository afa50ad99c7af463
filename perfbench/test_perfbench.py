"""The benchmark's own tests: checks pass at reduced sizes and fail on perturbed outputs.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import mvcontrast  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, patched  # noqa: E402


def _run(wl, ops=1):
    wl.prepare()
    results = []
    for _ in range(ops):
        if results:
            results[-1] = wl.light(results[-1])
        results.append(wl.op())
    return results


@pytest.fixture(scope="module")
def c6():
    wl = workloads.C6Protocol(0, None, iters=100, repeats=1)
    return wl, _run(wl)


@pytest.fixture(scope="module")
def wide():
    wl = workloads.FitWide(5, None, per_class=20, iters=2)
    return wl, _run(wl, ops=2)


@pytest.fixture(scope="module")
def evalcsv(tmp_path_factory):
    wl = workloads.EvalCsv(3, str(tmp_path_factory.mktemp("eval")), per_class=150,
                           M=(5, 10), repeats=2)
    return wl, _run(wl, ops=2)


def test_checks_pass_at_reduced_size(c6, wide, evalcsv):
    for wl, results in (c6, wide, evalcsv):
        assert wl.check(results) == [], wl.name


def test_c6_scaled_P_fails_loss_check(c6):
    wl, results = c6
    bad = copy.deepcopy(results)
    bad[-1]["fits"][0]["state"].P.P *= 1.001
    assert any("loss" in f or "term" in f for f in wl.check(bad))


def test_c6_flipped_prediction_fails_accuracy_check(c6):
    wl, results = c6
    bad = copy.deepcopy(results)
    row = bad[-1]["table"].rows[-1]
    row["mean"] += 1.0 / 45  # one of the 45 test samples classified differently
    assert any("brute-force" in f for f in wl.check(bad))


def test_c6_changed_history_fails_determinism_check(c6):
    wl, results = c6
    bad = copy.deepcopy(results)
    hist = bad[-1]["fits"][0]["state"].loss_history
    hist[1] = np.nextafter(hist[1], np.inf)
    assert any("rerun" in f for f in wl.check(bad))


def test_c6_rising_loss_fails(c6):
    wl, results = c6
    bad = copy.deepcopy(results)
    hist = bad[-1]["fits"][0]["state"].loss_history
    hist[0] = hist[-1] - 1.0
    assert any("not below start" in f for f in wl.check(bad))


def test_wide_scaled_P_fails_loss_check(wide):
    wl, results = wide
    bad = copy.deepcopy(results)
    bad[-1]["state"].P.P *= 1.001
    assert any("loss" in f or "term" in f for f in wl.check(bad))


@pytest.mark.parametrize("name", ["grad_P", "grad_w"])
def test_wide_perturbed_gradient_fails(wide, name):
    wl, results = wide

    def scaled(fn):
        return lambda *a, **k: fn(*a, **k) * 1.001

    with patched(f"gradients.{name}", scaled):
        fails = wl.check(results)
    assert any(name in f for f in fails)


def test_wide_other_history_fails_determinism_check(wide):
    wl, results = wide
    bad = copy.deepcopy(results)
    bad[0]["state"].loss_history[-1] += 1e-12
    assert any("differs" in f for f in wl.check(bad))


def test_eval_altered_csv_cell_fails_roundtrip(evalcsv):
    wl, results = evalcsv
    path = os.path.join(wl.data_dir, "view1.csv")
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    lines = original.split("\n")
    cells = lines[7].split(",")
    cells[3] = repr(float(np.nextafter(float(cells[3]), np.inf)))
    lines[7] = ",".join(cells)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        assert any("view1.csv" in f for f in wl.check(results))
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def test_eval_flipped_prediction_fails_accuracy_check(evalcsv):
    wl, results = evalcsv
    bad = copy.deepcopy(results)
    lines = bad[-1]["table"].split("\n")
    label, M, mean, std, reps = lines[4].split(",")  # the fused row at M=5
    n_test = 4 * (150 - int(M))
    lines[4] = ",".join([label, M, f"{float(mean) + 1 / n_test / 2:.6f}", std, reps])
    bad[-1]["table"] = "\n".join(lines)
    assert any("brute-force" in f for f in wl.check(bad))


def test_eval_nonzero_exit_fails(evalcsv):
    wl, results = evalcsv
    bad = copy.deepcopy(results)
    bad[0]["codes"] = (0, 2)
    assert any("exit codes" in f for f in wl.check(bad))


@pytest.mark.parametrize("fixture", ["c6", "wide", "evalcsv"])
def test_traced_call_counts_match_closed_forms(fixture, request):
    wl, _ = request.getfixturevalue(fixture)
    tracer = Tracer()
    with tracer.installed():
        wl.op(True)
    summary = tracer.summary()
    assert run.call_count_fails(wl.calls_per_op(), [summary]) == []
    calls, ms, self_ms = summary["gradients.grad_w"]
    summary["gradients.grad_w"] = (calls + 1, ms, self_ms)
    assert any("grad_w" in f for f in run.call_count_fails(wl.calls_per_op(), [summary]))


def test_tracer_self_time_and_counts():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        return inner_t() + inner_t()

    outer_t = tracer.wrap("m.outer", outer)
    first = tracer.mark()
    outer_t()
    s = tracer.summary(first)
    assert s["m.inner"][0] == 2 and s["m.outer"][0] == 1
    assert s["m.outer"][2] == pytest.approx(s["m.outer"][1] - s["m.inner"][1])
    assert s["m.inner"][2] == pytest.approx(s["m.inner"][1])


def test_patched_reaches_names_imported_into_other_modules():
    calls = []

    def counting(fn):
        return lambda *a, **k: calls.append(1) or fn(*a, **k)

    original = mvcontrast.data.split
    ds = mvcontrast.synth_blobs(2, 2, 4, [3, 3], 0.5, 0)
    with patched("data.split", counting):
        assert mvcontrast.evaluation.split is not original
        mvcontrast.evaluation.split(ds, mvcontrast.SplitSpec(per_class=2, seed=0))
    assert calls == [1]
    assert mvcontrast.evaluation.split is original


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
