"""Command-line front end: `COMMANDS` below describes each subcommand, as
`mvcontrast --help` prints it."""

import argparse
import os
import sys
import time

import numpy as np

from . import data, diagnostics, evaluation, gradients, losses, params, trainer
from .config import parse_config
from .errors import ConfigError, MvError, numeric_errors


def cmd_synth(args, cfg):
    if cfg.dataset["synth"] is None:
        raise ConfigError("synth subcommand needs a dataset.synth section")
    ds = data.load_dataset(**cfg.dataset)
    data.save_views(ds, args.out)
    print(f"wrote {ds.V} views ({ds.n} samples) to {args.out}")
    return 0


def cmd_train(args, cfg):
    # the wall time goes to stdout only, so a rerun writes the same files
    t0 = time.perf_counter()
    ds = data.load_dataset(**cfg.dataset)
    model, state = trainer.fit(ds, cfg.hyper, seed=cfg.experiment["base_seed"])
    trainer.save_model(model, args.out)
    data.write_matrix(os.path.join(args.out, "loss_history.csv"),
                      [*enumerate(state.loss_history)], header="iteration,total_loss")
    print(f"trained {state.iter} iterations in {time.perf_counter() - t0:.2f} s, "
          f"final loss {state.loss_history[-1]:.6f}, model in {args.out}")
    return 0


def cmd_eval(args, cfg):
    ds = data.load_dataset(**cfg.dataset)
    fixed_model = trainer.load_model(args.model) if args.model else None
    table = evaluation.run_protocol(ds, cfg.hyper, **cfg.experiment,
                                    fixed_model=fixed_model)
    for fmt in cfg.output["formats"]:
        with open(os.path.join(args.out, f"results.{fmt}"), "w",
                  encoding="utf-8") as fh:
            fh.write(evaluation.FORMATS[fmt](table))
    print(table.to_text(), end="")
    return 0


GRADCHECK_TOL = 1e-4


def gradcheck_instance(seed, n=5, V=2, dims=(4, 3), d=2):
    """A small random instance for gradient checking."""
    rng = np.random.default_rng([int(seed)])
    ds = data.MultiViewDataset(
        views=[rng.normal(size=(dim, n)) for dim in dims])
    P = losses.ProjectionStack.from_blocks(
        [np.linalg.qr(rng.normal(size=(dim, d)))[0] for dim in dims])
    W = losses.CoefficientSet([rng.normal(size=(n, n)) for _ in range(V)])
    return ds, P, W


def cmd_gradcheck(args, cfg):
    ds, P, W = gradcheck_instance(cfg.experiment["base_seed"])
    report = gradients.check_gradients(P, W, ds, cfg.hyper, step=args.step)
    ok = report.max_rel_err <= GRADCHECK_TOL
    print(f"max_rel_err={report.max_rel_err:.3e} "
          f"worst={report.worst_block} step={report.step:g} "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_diagnose(args, cfg):
    params._integer("--trials", args.trials, 1)
    rng = np.random.default_rng([cfg.experiment["base_seed"]])
    rows = []
    for trial in range(args.trials):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        # mean-1 entries keep column sums well away from zero so the
        # rescaling step does not amplify round-off past the bounds
        W = diagnostics.normalize_columns_l1(rng.normal(loc=1.0, size=(n, n)))
        Y = rng.normal(size=(d, n))
        res = diagnostics.column_sum_residual(W)
        gap = diagnostics.laplacian_equivalence_gap(Y, W)
        gap_bound = 1e-8 * (1.0 + float(np.sum(Y ** 2)))
        rows.append(("column_sum_residual", trial, res, 1e-10, res <= 1e-10))
        rows.append(("laplacian_equivalence_gap", trial, gap, gap_bound,
                     gap <= gap_bound))
    print("check,trial,value,bound,ok")
    all_ok = True
    for name, trial, value, bound, ok in rows:
        all_ok &= ok
        print(f"{name},{trial},{value:.3e},{bound:.3e},{int(ok)}")
    return 0 if all_ok else 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, the DataError code
        raise ConfigError(f"{self.prog}: {message}")


# name: (function, help, the options only it takes, whether it writes to --out)
COMMANDS = {
    "synth": (cmd_synth, "write synthetic views and labels as CSV", {}, True),
    "train": (cmd_train, "fit a model; write its manifest and loss history", {}, True),
    "eval": (cmd_eval, "run the repeated-split 1-NN protocol; write the results table",
             {"--model": {"default": None,
                          "help": "evaluate this pre-trained model instead of "
                                  "refitting per repeat"}}, True),
    "gradcheck": (cmd_gradcheck, "compare analytic gradients to central differences "
                  "along random directions on a small seeded instance; exit 0 iff "
                  f"the max relative error is <= {GRADCHECK_TOL:g}, else 3",
                  {"--step": {"type": float, "default": 1e-6}}, False),
    "diagnose": (cmd_diagnose, "check the reconstruction-term identities on seeded "
                 "fixtures; print the residuals as CSV and exit 3 if one fails",
                 {"--trials": {"type": int, "default": 20}}, False),
}


def build_parser():
    parser = _Parser(
        prog="mvcontrast",
        description="Multi-view feature extraction with dual contrastive losses")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options, writes) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        if writes:
            p.add_argument("--out", required=True)
    return parser


def main(argv=None):
    """Run one subcommand; a writing one's --out is made before it runs (so a
    bad path fails before any work) and gets run.json after it succeeds."""
    try:
        args = build_parser().parse_args(argv)
        func, _, _, writes = COMMANDS[args.command]
        with numeric_errors():
            cfg = parse_config(args.config)
            if writes:
                os.makedirs(args.out, exist_ok=True)
            code = func(args, cfg)
            if writes:
                cfg.write_echo(args.out)
            return code
    except OSError as exc:
        # the readers wrap their own OSErrors, so this one came from an output
        error = ConfigError(f"cannot write output: {exc}")
    except MemoryError as exc:  # numpy's names the allocation that failed
        error = ConfigError(f"out of memory in {args.command}: {exc}")
    except MvError as exc:
        error = exc
    print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
