"""Wall time and transient memory of the optimizer's layers, one size at a time.

    python3 benchmarks/layers.py --label change
    python3 benchmarks/layers.py --label parent --src <other checkout>/src

Each size n in {75, 600, 2000} builds a V=3 synthetic blob set (5 classes,
views of dimension 40, 32 and 24, noise 1.0, seed 0) and its `init_state` at
d=8 under the criterion-6 hyperparameters, then measures each layer on that
state:
`init_state`, `sample_infonce`, `structural_contrastive`,
`reconstruction_penalty`, `column_context` (view 0), `grad_P`,
`check_gradients` (at n in {75, 600} only: a check that probes one column
per call takes minutes at n=2000) and, last because it moves W, one
`sweep_W`.  `knn_accuracy` scores n test samples against 80 training samples
(eval-csv's largest training set) of dimension d=8, drawn from a standard
normal with seed 0.  A layer's time is the median
of five untraced calls; its transient is the tracemalloc peak of one more
call, on a state built under tracing, above the memory traced when that call
starts, in bytes and in units of n^2 * 8 B (one n x n matrix), and includes
what the call returns (for init_state, the state).  The state's own bytes
are recorded beside them.

Once, apart from the sizes, it measures perfbench's fit-wide operation: one
2-iteration fit at n=600, V=3 (4 blobs x 150 samples, the same view
dimensions and noise, d=8, tol=1e-12, data and fit seed 1), with the median
of five untraced fits and the tracemalloc peak of one more, which includes
the state the fit builds.

The results go under runs[<label>] of --out (default BENCH_layers.json at the
repository root), next to the labels already there, with a machine record:
Python, numpy, the BLAS build and the BLAS thread variables, which default to
the core count as in perfbench/run.py.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CORES = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, str(CORES))

SIZES, CALLS = (75, 600, 2000), 5
CHECK_SIZES = (75, 600)
DIMS, CLASSES, D = [40, 32, 24], 5, 8
KNN_TRAIN = 80
FIT_WIDE = dict(classes=4, per_class=150, iters=2, seed=1)
C6_HYPER = dict(gamma=0.01, tol=1e-9, alpha=1e-3, beta=1e-3, tau1=0.3, tau2=0.3)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True, help="key of this run in the results file")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the mvcontrast package to measure")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_layers.json"))
    return p.parse_args(argv)


def machine_record():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": CORES,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def timed(call):
    """Wall times in ms of CALLS calls, each result dropped before the next."""
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def traced(call):
    """(peak traced bytes of one call above those traced at its start, its
    result); tracemalloc must be running."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    result = call()
    return tracemalloc.get_traced_memory()[1] - start, result


def state_bytes(state):
    """Bytes of every array a TrainState holds, as perfbench counts them."""
    arrays = [state.P.P, state.adam_P.m1, state.adam_P.m2, *state.W.W]
    arrays += [a for view in state.adam_W for st in view for a in (st.m1, st.m2)]
    return sum(a.nbytes for a in arrays)


def layer_calls(mv, state, ds, h):
    """The layers that read a state, sweep_W (which moves W) last."""
    P, W = state.P, state.W
    calls = {
        "sample_infonce": lambda: mv.sample_infonce(P, ds, h),
        "structural_contrastive": lambda: mv.structural_contrastive(W, h),
        "reconstruction_penalty": lambda: mv.reconstruction_penalty(P, ds, W, h),
        "column_context": lambda: mv.gradients.column_context(0, P, W, ds, h),
        "grad_P": lambda: mv.grad_P(P, W, ds, h),
    }
    if ds.n in CHECK_SIZES:
        calls["check_gradients"] = lambda: mv.check_gradients(P, W, ds, h)
    calls["sweep_W"] = lambda: mv.sweep_W(state, ds, h)
    return calls


def knn_call(mv, n):
    """knn_accuracy on n test samples against KNN_TRAIN training samples."""
    import numpy as np
    rng = np.random.default_rng(0)
    train, test = rng.normal(size=(D, KNN_TRAIN)), rng.normal(size=(D, n))
    labels = rng.integers(0, CLASSES, size=KNN_TRAIN + n)
    return lambda: mv.knn_accuracy(train, labels[:KNN_TRAIN], test, labels[KNN_TRAIN:])


def measure_size(mv, n):
    ds = mv.synth_blobs(len(DIMS), CLASSES, n // CLASSES, DIMS, 1.0, 0)
    h = mv.Hyperparams(d=D, **C6_HYPER)
    init = lambda: mv.init_state(ds, h, 0)  # noqa: E731
    knn = knn_call(mv, n)
    times = {"init_state": timed(init), "knn_accuracy": timed(knn)}
    state = init()
    for name, call in layer_calls(mv, state, ds, h).items():
        times[name] = timed(call)
    del state
    # the traced state is built under tracing, so the arrays a layer frees
    # (sweep_W replaces every Adam moment) are subtracted from its peak
    tracemalloc.start()
    try:
        transient = {}
        transient["init_state"], state = traced(init)
        transient["knn_accuracy"] = traced(knn)[0]
        for name, call in layer_calls(mv, state, ds, h).items():
            transient[name] = traced(call)[0]
    finally:
        tracemalloc.stop()
    layers = {name: {"median_ms": statistics.median(times[name]),
                     "times_ms": times[name],
                     "transient_bytes": transient[name],
                     "transient_n2": transient[name] / (8.0 * n * n)}
              for name in times}
    return {"state_bytes": state_bytes(state), "layers": layers}


def measure_fit_wide(mv):
    """Wall time and tracemalloc peak of perfbench's fit-wide operation."""
    ds = mv.synth_blobs(len(DIMS), FIT_WIDE["classes"], FIT_WIDE["per_class"],
                        DIMS, 1.0, FIT_WIDE["seed"])
    h = mv.Hyperparams(d=D, max_iters=FIT_WIDE["iters"], **dict(C6_HYPER, tol=1e-12))
    fit = lambda: mv.fit(ds, h, seed=FIT_WIDE["seed"])  # noqa: E731
    times = timed(fit)
    tracemalloc.start()
    try:
        peak = traced(fit)[0]
    finally:
        tracemalloc.stop()
    return {"n": ds.n, "median_ms": statistics.median(times), "times_ms": times,
            "peak_bytes": peak, "peak_n2": peak / (8.0 * ds.n * ds.n)}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import mvcontrast as mv

    run = {"machine": machine_record(), "sizes": {}}
    for n in SIZES:
        run["sizes"][str(n)] = measure_size(mv, n)
        for name, rec in run["sizes"][str(n)]["layers"].items():
            print(f"n={n:5d} {name:24s} {rec['median_ms']:10.2f} ms "
                  f"{rec['transient_n2']:7.2f} n^2*8B")
    run["fit_wide"] = rec = measure_fit_wide(mv)
    print(f"fit-wide n={rec['n']} {rec['median_ms']:10.2f} ms "
          f"peak {rec['peak_bytes'] / 1e6:7.2f} MB {rec['peak_n2']:7.2f} n^2*8B")
    results = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            results = json.load(fh)
    results.setdefault("setup", {
        "script": "benchmarks/layers.py", "views": DIMS, "classes": CLASSES,
        "d": D, "hyper": C6_HYPER, "calls": CALLS})
    results["setup"].setdefault("knn_train", KNN_TRAIN)
    results["setup"].setdefault("fit_wide", FIT_WIDE)
    results["setup"].setdefault("check_sizes", list(CHECK_SIZES))
    results.setdefault("runs", {})[args.label] = run
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
