"""benchmarks/layers.py runs on today's API: nothing else imports it, so a
renamed function would otherwise break it unseen."""

import importlib.util
import os
import pathlib

import mvcontrast as mv

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def load_script(monkeypatch):
    # the script sets BLAS thread defaults in os.environ when it is loaded;
    # keep them out of the environment later tests start processes with
    monkeypatch.setattr(os, "environ", os.environ.copy())
    spec = importlib.util.spec_from_file_location("layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_size_measures_every_layer(monkeypatch):
    layers = load_script(monkeypatch)
    n, V = 10, len(layers.DIMS)
    run = layers.measure_size(mv, n)
    assert sorted(run["layers"]) == sorted([
        "init_state", "knn_accuracy", "sample_infonce", "structural_contrastive",
        "reconstruction_penalty", "column_context", "grad_P", "sweep_W"])
    for rec in run["layers"].values():
        assert len(rec["times_ms"]) == layers.CALLS and rec["transient_bytes"] > 0
    # P and its two Adam moments, W and its two per-column moments
    assert run["state_bytes"] == 8 * (3 * sum(layers.DIMS) * layers.D + 3 * V * n * n)
    assert run["state_bytes"] == 25_632
