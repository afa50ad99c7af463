"""Run one benchmark workload against the library in ../src and print its metrics.

    python3 perfbench/run.py --workload c6-protocol --seed 1 --seconds 20 --trace 0

Set-up is timed in fresh processes (import plus input construction), then
operations run back to back for --seconds (at least one), then the outputs are
checked.  --trace 0 reports the end-to-end metrics; --trace 1 alternates
untraced and traced operations and reports the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Every metric, the workload-specific figures and a machine record
also go to .perfbench/BENCH_<label>.json; a traced run writes its spans to
.perfbench/SPANS_<label>.npz.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CORES = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Cap BLAS threads at the core count before numpy loads; children inherit it.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(CORES)
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("trainer.sweep_W.self_ms", "ms"),
    ("trainer.adam_step.calls", "count"),
    ("trainer.adam_step.ms", "ms"),
    ("gradients.grad_w.calls", "count"),
    ("gradients.grad_w.ms", "ms"),
    ("gradients.grad_P.ms", "ms"),
    ("losses.total_loss.ms", "ms"),
    ("losses.sample_infonce.ms", "ms"),
    ("losses.structural_contrastive.ms", "ms"),
    ("losses.reconstruction_penalty.ms", "ms"),
    ("losses.sim_matrix.calls", "count"),
    ("trainer.state_bytes", "bytes"),
    ("trainer.init_state.ms", "ms"),
    ("trainer.load_model.ms", "ms"),
    ("data.load_views.ms", "ms"),
    ("data.rows_per_s", "1/s"),
    ("data.save_views.ms", "ms"),
    ("data.split.ms", "ms"),
    ("evaluation.knn_accuracy.ms", "ms"),
    ("evaluation.project.ms", "ms"),
    ("config.parse_config.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("tracing.overhead_ms", "ms"),
)
_QUANTITY = {"calls": 0, "ms": 1, "self_ms": 2}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default=None,
                   help="results file name: .perfbench/BENCH_<label>.json")
    p.add_argument("--setup-only", default=None, metavar="WORKDIR",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    sys.path.insert(0, SRC)
    import mvcontrast
    if not os.path.abspath(mvcontrast.__file__).startswith(SRC + os.sep):
        raise ImportError(f"mvcontrast resolved to {mvcontrast.__file__}")


def machine_record():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": CORES,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def time_setups(args):
    """Wall time of SETUP_REPEATS fresh processes that import and prepare."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = os.path.join(OUT, "work", f"{args.workload}-setup")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", workdir]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.decode()[-2000:]}")
    return times


def run_ops(wl, args, tracer):
    """Operations back to back for args.seconds (at least one round).

    A traced run alternates an untraced and a traced operation.  Returns every
    result, the indices of untraced ones, untraced and traced wall times, one
    span summary per traced operation, and the attempted and failed counts.
    """
    results, plain, times, traced, summaries = [], [], [], [], []
    attempted = failed = 0
    inprocess = tracer is not None
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        for traced_op in ((False, True) if tracer else (False,)):
            if results:
                results[-1] = wl.light(results[-1])
            attempted += 1
            first = tracer.mark() if traced_op else None
            try:
                with tracer.installed() if traced_op else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    res = wl.op(inprocess)
                    elapsed = time.perf_counter() - t0
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if traced_op:
                traced.append(elapsed)
                summaries.append(tracer.summary(first))
            else:
                times.append(elapsed)
                plain.append(len(results))
            results.append(res)
    return results, plain, times, traced, summaries, attempted, failed


def call_count_fails(expected, summaries):
    """Traced operations whose call counts differ from the closed forms."""
    return [f"traced operation {k}: {name} made {s[name][0]} calls, expected {want}"
            for k, s in enumerate(summaries)
            for name, want in expected.items() if s[name][0] != want]


def layer_metrics(wl, results, times, traced, summaries, fails):
    fails += call_count_fails(wl.calls_per_op(), summaries)
    for name in summaries[0]:
        counts = [s[name][0] for s in summaries]
        if len(set(counts)) > 1:
            fails.append(f"{name} call counts differ between traced operations: {counts}")
    values = {}
    for metric, _ in PER_LAYER:
        head, _, quantity = metric.rpartition(".")
        if quantity in _QUANTITY and head.count(".") == 1:
            idx = _QUANTITY[quantity]
            values[metric] = statistics.median(s[head][idx] for s in summaries)
    load_s = values["data.load_views.ms"] / 1e3
    values["data.rows_per_s"] = wl.rows_read() / load_s if load_s > 0 else 0.0
    values["trainer.state_bytes"] = wl.state_bytes(results[-1])
    values["tracing.overhead_ms"] = 1e3 * (statistics.median(traced)
                                           - statistics.median(times))
    return values


def main(argv=None):
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import mvcontrast from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, args.setup_only).prepare()
        return 0

    setup_times = time_setups(args)
    wl = make(args.seed, os.path.join(OUT, "work", args.workload))
    wl.prepare()
    tracer = Tracer() if args.trace else None
    results, plain, times, traced, summaries, attempted, failed = run_ops(wl, args, tracer)
    if not times or (tracer is not None and not traced):
        print("error: every operation failed", file=sys.stderr)
        return 1
    # the peak before checks run; eval-csv's operations run in child processes
    if args.trace:
        peak_rss_mb = None
    elif "rss_mb" in results[-1]:
        peak_rss_mb = max(r["rss_mb"] for r in results)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        fails = wl.check(results)
    except Exception as exc:
        traceback.print_exc()
        fails = [f"checks raised {exc!r}"]

    extras = {name: {"value": v, "unit": u}
              for name, (v, u) in wl.extras([results[i] for i in plain], times).items()}
    if args.trace:
        values = layer_metrics(wl, results, times, traced, summaries, fails)
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "op_s": statistics.median(times), "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for line in fails:
        print(f"CHECK FAILED: {line}")
    print(f"{args.workload}: {attempted} operations, {failed} failed, "
          f"checks {'passed' if not fails else 'FAILED'}")
    for name, m in {**metrics, **extras}.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")

    label = args.label or f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"SPANS_{label}.npz"))
    record = {"label": label, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "correct": not fails,
              "attempted": attempted, "failed": failed, "failures": fails,
              "metrics": metrics, "workload_metrics": extras,
              "op_times_s": times, "traced_op_times_s": traced,
              "setup_times_s": setup_times, "machine": machine_record()}
    with open(os.path.join(OUT, f"BENCH_{label}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
