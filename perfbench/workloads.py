"""The benchmark's workloads: inputs, one timed operation, output checks.

Each workload builds its inputs in `prepare` (the set-up run.py times), runs
one operation per `op` call (closed loop, one caller) and judges the outputs
of every operation of a run in `check`, which returns the failed checks as
strings.  Checks use `reference`, which does not import the library.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import mvcontrast
import mvcontrast.cli
import reference as ref
from tracing import patched

# Criterion-6 hyperparameters (tests/test_acceptance.py), minus the cap.
C6_HYPER = dict(gamma=0.01, tol=1e-9, alpha=1e-3, beta=1e-3, tau1=0.3, tau2=0.3)
LOSS_RTOL = 1e-10
GRAD_RTOL = 1e-4
# fit-wide's gradient checks: random directions for grad_P, and columns per
# view for grad_w
P_DIRECTIONS = 4
W_COLUMNS = 3


def _lib_terms(P, W, ds, h):
    return (mvcontrast.sample_infonce(P, ds, h),
            mvcontrast.structural_contrastive(W, h),
            mvcontrast.reconstruction_penalty(P, ds, W, h))


def _check_terms(tag, ours, P, W, ds, h, final_loss):
    fails = []
    for name, a, b in zip(("sample", "structural", "reconstruction"),
                          ours, _lib_terms(P, W, ds, h)):
        if ref.rel_gap(a, b) > LOSS_RTOL:
            fails.append(f"{tag}: {name} term {b!r} vs reference {a!r}")
    total = ours[0] + h.lam * (ours[1] + ours[2])
    if ref.rel_gap(total, final_loss) > LOSS_RTOL:
        fails.append(f"{tag}: final loss {final_loss!r} vs reference {total!r}")
    return fails


def _embeddings(P, ds):
    return [P.block(m).T @ ds.views[m] for m in range(ds.V)]


def fit_calls(fits, iters, n, V):
    """Calls into the library that `fits` fits of `iters` iterations each make.

    An iteration calls grad_w and adam_step once per coefficient column (V*n),
    then grad_P, adam_step for P and total_loss once each; init_state adds one
    total_loss.  A total_loss builds 2*V*(V-1) similarity matrices (sample and
    structural terms), a grad_P V*(V-1).
    """
    pairs = V * (V - 1)
    return {"trainer.fit": fits,
            "gradients.grad_w": fits * iters * V * n,
            "trainer.adam_step": fits * iters * (V * n + 1),
            "gradients.grad_P": fits * iters,
            "losses.total_loss": fits * (iters + 1),
            "losses.sim_matrix": fits * pairs * (3 * iters + 2)}


class _History:
    """The iteration count and loss history of a finished TrainState."""

    def __init__(self, state):
        self.iter, self.loss_history = state.iter, state.loss_history


def state_bytes(state):
    """Bytes of every array a TrainState holds."""
    arrays = [state.P.P, state.adam_P.m1, state.adam_P.m2, *state.W.W]
    arrays += [a for view in state.adam_W for st in view for a in (st.m1, st.m2)]
    return sum(a.nbytes for a in arrays)


class C6Protocol:
    """The calibrated criterion-6 fixture through run_experiment.

    3 blobs x 40 per view, dims 8+8, noise 2.3, data seed 42; M=25 (n=75
    training samples), d=3, splits and fit seeds from base seed 7.  The
    fixture is fixed: at other base seeds the trained embedding need not
    beat raw features, so the seed argument does not change it.  Every fit
    runs exactly `iters` iterations (tol=1e-9 never fires).
    """

    name = "c6-protocol"
    M, CLASSES = 25, 3
    BASE_SEED = 7

    def __init__(self, seed, workdir, iters=300, repeats=5):
        self.iters, self.repeats = iters, repeats

    def prepare(self):
        self.ds = mvcontrast.synth_blobs(2, self.CLASSES, 40, [8, 8], 2.3, 42)
        self.h = mvcontrast.Hyperparams(d=3, max_iters=self.iters, **C6_HYPER)

    def op(self, inprocess=True):
        fits = []

        def recording(fit):
            def fit_and_record(ds, h, seed, **kwargs):
                t0 = time.perf_counter()
                model, state = fit(ds, h, seed, **kwargs)
                fits.append({"s": time.perf_counter() - t0, "ds": ds,
                             "model": model, "state": state})
                return model, state
            return fit_and_record

        with patched("trainer.fit", recording):
            table = mvcontrast.evaluation.run_experiment(
                self.ds, self.h, M=self.M, repeats=self.repeats,
                base_seed=self.BASE_SEED)
        return {"table": table, "fits": fits}

    def light(self, result):
        """What `check` needs from an operation other than the last."""
        return {"table": result["table"], "fits": [
            {"s": f["s"], "state": _History(f["state"])} for f in result["fits"]]}

    def check(self, results):
        fails = []
        last = results[-1]
        for r, fit in enumerate(last["fits"]):
            st, ds = fit["state"], fit["ds"]
            hist = st.loss_history
            if st.iter != self.iters:
                fails.append(f"fit {r}: stopped after {st.iter} of {self.iters} iterations")
            if not hist[-1] < hist[0]:
                fails.append(f"fit {r}: final loss {hist[-1]} not below start {hist[0]}")
            ours = ref.loop_terms(_embeddings(st.P, ds), st.W.W, self.h)
            fails += _check_terms(f"fit {r}", ours, st.P, st.W, ds, self.h, hist[-1])
        if len(results) == 1:
            fit = last["fits"][0]
            _, rerun = mvcontrast.fit(fit["ds"], self.h, seed=self.BASE_SEED)
            if rerun.loss_history != fit["state"].loss_history:
                fails.append("fit 0: a rerun with the same seed gives another loss history")
        for k, res in enumerate(results[:-1]):
            if [f["state"].loss_history for f in res["fits"]] != \
                    [f["state"].loss_history for f in last["fits"]]:
                fails.append(f"operation {k}: loss histories differ from the last operation")
            if res["table"].to_csv() != last["table"].to_csv():
                fails.append(f"operation {k}: results table differs from the last operation")

        X, labels = self.ds.views, self.ds.labels
        raw = ref.protocol_accuracies([[np.eye(8), np.eye(8)]] * self.repeats,
                                      X, labels, self.M, self.BASE_SEED)
        trained = ref.protocol_accuracies(
            [f["model"].projections for f in last["fits"]], X, labels, self.M,
            self.BASE_SEED)
        expected = ref.table_rows(trained, self.ds.view_names, self.M)
        got = [(r["row_label"], r["M"], r["mean"], r["std"]) for r in last["table"].rows]
        if got != expected:
            fails.append(f"table rows {got} differ from brute-force 1-NN {expected}")
        fused = expected[-1][2]
        raw_fused = ref.table_rows(raw, self.ds.view_names, self.M)[-1][2]
        if not fused >= raw_fused:
            fails.append(f"trained fused accuracy {fused} below raw features {raw_fused}")
        if not fused >= 0.90:
            fails.append(f"trained fused accuracy {fused} below 0.90")
        return fails

    def extras(self, results, op_times):
        fit_s = [f["s"] for res in results for f in res["fits"]]
        iters = [f["state"].iter for res in results for f in res["fits"]]
        return {"protocol_s": (float(np.median(op_times)), "s"),
                "fit_s": (float(np.median(fit_s)), "s"),
                "iters_per_s": (float(np.median(np.divide(iters, fit_s))), "1/s")}

    def state_bytes(self, result):
        return state_bytes(result["fits"][-1]["state"])

    def calls_per_op(self):
        return fit_calls(self.repeats, self.iters, self.M * self.CLASSES, 2)


class FitWide:
    """One fit at n=600, V=3 with view dims 40/32/24, d=8, fixed iteration count.

    4 blobs x 150 samples, noise 1.0, data and fit seed from the seed
    argument; criterion-6 hyperparameters with tol=1e-12 so every fit runs
    exactly `iters` iterations.
    """

    name = "fit-wide"
    CLASSES, DIMS = 4, [40, 32, 24]

    def __init__(self, seed, workdir, per_class=150, iters=2):
        self.seed, self.per_class, self.iters = seed, per_class, iters

    def prepare(self):
        self.ds = mvcontrast.synth_blobs(len(self.DIMS), self.CLASSES, self.per_class,
                                         self.DIMS, 1.0, self.seed)
        self.h = mvcontrast.Hyperparams(d=8, max_iters=self.iters,
                                        **dict(C6_HYPER, tol=1e-12))

    def op(self, inprocess=True):
        t0 = time.perf_counter()
        model, state = mvcontrast.fit(self.ds, self.h, seed=self.seed)
        return {"s": time.perf_counter() - t0, "model": model, "state": state}

    def light(self, result):
        return {"s": result["s"], "state": _History(result["state"])}

    def check(self, results):
        fails = []
        st, ds, h = results[-1]["state"], self.ds, self.h
        if st.iter != self.iters:
            fails.append(f"stopped after {st.iter} of {self.iters} iterations")
        reruns = results[:-1] or [self.op()]
        for k, res in enumerate(reruns):
            if res["state"].loss_history != st.loss_history:
                fails.append(f"operation {k}: loss history differs from the last operation")
        Y = _embeddings(st.P, ds)
        ours = ref.vector_terms(Y, st.W.W, h)
        fails += _check_terms("final iterate", ours, st.P, st.W, ds, h,
                              st.loss_history[-1])

        rng = np.random.default_rng([int(self.seed), 1])
        cuts = np.cumsum(ds.view_dims)[:-1]
        g = mvcontrast.grad_P(st.P, st.W, ds, h)

        def f_p(Pmat):
            return ref.p_objective(np.split(Pmat, cuts), ds.views, st.W.W, h)

        for k in range(P_DIRECTIONS):
            err = ref.directional_error(f_p, st.P.P.copy(), g, rng)
            if err > GRAD_RTOL:
                fails.append(f"grad_P direction {k}: relative error {err:.3e}")
        for m in range(ds.V):
            for i in rng.choice(ds.n, size=W_COLUMNS, replace=False):
                gw = mvcontrast.grad_w(int(i), m, st.P, st.W, ds, h)
                err = ref.directional_error(
                    lambda w: ref.w_objective(int(i), m, w, Y[m], st.W.W, h),
                    st.W.W[m][:, i].copy(), gw, rng)
                if err > GRAD_RTOL:
                    fails.append(f"grad_w column ({i}, view {m}): relative error {err:.3e}")
        return fails

    def extras(self, results, op_times):
        fit_s = [r["s"] for r in results]
        return {"fit_s": (float(np.median(fit_s)), "s"),
                "iters_per_s": (float(np.median(
                    [r["state"].iter / r["s"] for r in results])), "1/s")}

    def state_bytes(self, result):
        return state_bytes(result["state"])

    def calls_per_op(self):
        return fit_calls(1, self.iters, self.CLASSES * self.per_class, len(self.DIMS))


class EvalCsv:
    """The CLI as users run it: `mvcontrast synth`, then `mvcontrast eval --model`.

    synth writes 4 blobs x `per_class` samples (20k rows by default) of two
    views with 64 and 48 features, noise 2.0, as CSV; eval reads them back
    and runs the repeated-split protocol at M in {5, 10, 20} with 10 repeats
    on a fixed d=4 model.  Set-up trains that model on the first 20 samples
    per class.  Data, split and fit seeds come from the seed argument.
    """

    name = "eval-csv"
    CLASSES, DIMS, NOISE, D = 4, [64, 48], 2.0, 4

    def __init__(self, seed, workdir, per_class=5000, M=(5, 10, 20), repeats=10):
        self.seed, self.per_class = seed, per_class
        self.M, self.repeats = list(M), repeats
        self.dir = workdir
        self.data_dir = os.path.join(workdir, "data")
        self.model_dir = os.path.join(workdir, "model")
        self.out_dir = os.path.join(workdir, "results")
        self.synth_cfg = os.path.join(workdir, "synth.json")
        self.eval_cfg = os.path.join(workdir, "eval.json")
        self.names = [f"view{m}" for m in range(len(self.DIMS))]
        src = os.path.dirname(os.path.dirname(mvcontrast.__file__))
        # glibc adapts its mmap threshold to the sizes of earlier frees, which
        # moves the eval child's peak RSS by ~12% between seeds; pin it at the
        # glibc default so peak memory tracks what the program allocates.
        self.env = dict(os.environ, PYTHONPATH=src, MALLOC_MMAP_THRESHOLD_="131072")

    def _generate(self):
        return mvcontrast.synth_blobs(len(self.DIMS), self.CLASSES, self.per_class,
                                      self.DIMS, self.NOISE, self.seed)

    def prepare(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        synth = {"V": len(self.DIMS), "classes": self.CLASSES,
                 "per_class": self.per_class, "dims": self.DIMS,
                 "noise_sigma": self.NOISE, "seed": self.seed}
        views = [os.path.join(self.data_dir, f"{n}.csv") for n in self.names]
        configs = {
            self.synth_cfg: {"dataset": {"synth": synth}},
            self.eval_cfg: {
                "dataset": {"views": views,
                            "labels": os.path.join(self.data_dir, "labels.csv")},
                "hyper": {"d": self.D},
                "experiment": {"M": self.M, "repeats": self.repeats,
                               "base_seed": self.seed},
                "output": {"formats": ["csv"]}},
        }
        for path, cfg in configs.items():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        ds = self._generate()
        idx = np.concatenate([np.flatnonzero(ds.labels == c)[:20]
                              for c in range(self.CLASSES)])
        subset = mvcontrast.MultiViewDataset(views=[v[:, idx] for v in ds.views],
                                             labels=ds.labels[idx])
        h = mvcontrast.Hyperparams(d=self.D, max_iters=30, **dict(C6_HYPER, tol=1e-12))
        model, _ = mvcontrast.fit(subset, h, seed=self.seed)
        mvcontrast.save_model(model, self.model_dir)

    def _cli(self, args, inprocess):
        """Run one CLI command; returns (exit code, peak RSS in MB or None)."""
        if inprocess:
            with contextlib.redirect_stdout(io.StringIO()):
                return mvcontrast.cli.main(args), None
        with open(os.path.join(self.dir, "cli.log"), "ab") as log:
            proc = subprocess.Popen([sys.executable, "-m", "mvcontrast.cli", *args],
                                    env=self.env, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def op(self, inprocess=False):
        shutil.rmtree(self.data_dir, ignore_errors=True)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        synth_code, synth_rss = self._cli(
            ["synth", "--config", self.synth_cfg, "--out", self.data_dir], inprocess)
        t1 = time.perf_counter()
        eval_code, eval_rss = self._cli(
            ["eval", "--config", self.eval_cfg, "--model", self.model_dir,
             "--out", self.out_dir], inprocess)
        t2 = time.perf_counter()
        path = os.path.join(self.out_dir, "results.csv")
        table = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                table = fh.read()
        return {"synth_s": t1 - t0, "eval_s": t2 - t1,
                "codes": (synth_code, eval_code), "table": table,
                "rss_mb": None if inprocess else max(synth_rss, eval_rss)}

    def light(self, result):
        return result

    def rows_read(self):
        """CSV rows one `eval` reads: every view file and the labels file."""
        return self.CLASSES * self.per_class * (len(self.DIMS) + 1)

    def check(self, results):
        fails = []
        for k, res in enumerate(results):
            if res["codes"] != (0, 0):
                fails.append(f"operation {k}: exit codes (synth, eval) = {res['codes']}")
            if res["table"] != results[-1]["table"]:
                fails.append(f"operation {k}: results.csv differs from the last operation")
        ds = self._generate()
        for name, view in zip(self.names, ds.views):
            got = ref.read_csv_exact(os.path.join(self.data_dir, f"{name}.csv"))
            if not ref.bit_identical(got, view.T):
                fails.append(f"{name}.csv does not read back bit-identical")
        labels = ref.read_csv_exact(os.path.join(self.data_dir, "labels.csv"))
        if not ref.bit_identical(labels[:, 0], ds.labels):
            fails.append("labels.csv does not read back bit-identical")

        with open(os.path.join(self.model_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        projections = [ref.read_csv_exact(os.path.join(self.model_dir, f))
                       for f in manifest["projection_files"]]
        expected = ["row_label,M,mean,std,repeats"]
        for M in self.M:
            acc = ref.protocol_accuracies([projections] * self.repeats, ds.views,
                                          ds.labels, M, self.seed)
            expected += [f"{name},{M},{mean:.6f},{std:.6f},{self.repeats}"
                         for name, _, mean, std in ref.table_rows(acc, self.names, M)]
        got = (results[-1]["table"] or "").strip().split("\n")
        if got != expected:
            bad = [(g, e) for g, e in zip(got, expected) if g != e] or [(got, expected)]
            fails.append(f"results.csv differs from brute-force 1-NN: {bad[:3]}")
        return fails

    def extras(self, results, op_times):
        return {"synth_s": (float(np.median([r["synth_s"] for r in results])), "s"),
                "eval_s": (float(np.median([r["eval_s"] for r in results])), "s")}

    def state_bytes(self, result):
        return 0

    def calls_per_op(self):
        return fit_calls(0, 0, 0, 0)  # eval --model fits nothing


WORKLOADS = {w.name: w for w in (C6Protocol, FitWide, EvalCsv)}
