"""Command-line front end.

Subcommands:
  synth      write synthetic views + labels as CSV
  train      fit a model, write its manifest and the loss history
  eval       run the repeated-split 1-NN protocol, write the results table
  gradcheck  compare analytic gradients to finite differences on a small
             seeded instance (exit 0 iff max relative error <= 1e-4)
  diagnose   check the reconstruction-term identities on seeded fixtures
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data, diagnostics, evaluation, gradients, losses, trainer
from .config import parse_config
from .errors import MvError, NumericError


def _write_loss_history(history, out_dir):
    path = os.path.join(out_dir, "loss_history.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration,total_loss\n")
        for i, value in enumerate(history):
            fh.write(f"{i},{value:.17g}\n")
    return path


def cmd_synth(args):
    cfg = parse_config(args.config)
    if cfg.synth is None:
        raise MvError("synth subcommand needs a dataset.synth section")
    ds = cfg.load_dataset()
    os.makedirs(args.out, exist_ok=True)
    data.save_views(ds, args.out)
    cfg.write_echo(args.out)
    print(f"wrote {ds.V} views ({ds.n} samples) to {args.out}")
    return 0


def cmd_train(args):
    cfg = parse_config(args.config)
    ds = cfg.load_dataset()
    model, state = trainer.fit(ds, cfg.hyper, seed=cfg.base_seed)
    os.makedirs(args.out, exist_ok=True)
    trainer.save_model(model, args.out, view_names=ds.view_names)
    _write_loss_history(state.loss_history, args.out)
    cfg.write_echo(args.out)
    print(f"trained {state.iter} iterations, final loss "
          f"{state.loss_history[-1]:.6f}, model in {args.out}")
    return 0


def cmd_eval(args):
    cfg = parse_config(args.config)
    ds = cfg.load_dataset()
    fixed_model = trainer.load_model(args.model) if args.model else None
    if fixed_model is not None:
        # fail fast on shape mismatches before any splitting
        evaluation.project(fixed_model, ds)
    d_values = cfg.d_sweep or [cfg.hyper.d]
    best_tables = []
    for M in cfg.M_values:
        candidates = []
        for d in d_values:
            candidates.append(evaluation.run_experiment(
                ds, dataclasses.replace(cfg.hyper, d=d), M=M, repeats=cfg.repeats,
                base_seed=cfg.base_seed, fixed_model=fixed_model))
        # d sweep keeps the table with the best Mean-row accuracy
        best_tables.append(max(
            candidates,
            key=lambda t: [r["mean"] for r in t.rows if r["row_label"] == "Mean"]))
    table = evaluation.merge_tables(best_tables)
    out_dir = args.out or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    if "csv" in cfg.formats:
        with open(os.path.join(out_dir, "results.csv"), "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
    if "txt" in cfg.formats:
        with open(os.path.join(out_dir, "results.txt"), "w", encoding="utf-8") as fh:
            fh.write(table.to_text())
    cfg.write_echo(out_dir)
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


def cmd_gradcheck(args):
    cfg = parse_config(args.config)
    ds, P, W = gradcheck_instance(cfg.base_seed)
    report = gradients.check_gradients(P, W, ds, cfg.hyper, step=args.step)
    ok = report.max_rel_err <= GRADCHECK_TOL
    print(f"max_rel_err={report.max_rel_err:.3e} "
          f"worst={report.worst_coordinate} step={report.step:g} "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 3


def cmd_diagnose(args):
    cfg = parse_config(args.config)
    rng = np.random.default_rng([int(cfg.base_seed)])
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvcontrast",
        description="Multi-view feature extraction with dual contrastive losses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic multi-view CSV data")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="run the repeated-split 1-NN protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--model", default=None,
                   help="evaluate this pre-trained model instead of "
                        "refitting per repeat")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--config", required=True)
    p.add_argument("--step", type=float, default=1e-6)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("diagnose", help="verify reconstruction-term identities")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow or invalid operation stops the run as a NumericError
        # instead of warning and carrying inf/NaN into the outputs
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except FloatingPointError as exc:
        error = NumericError(f"floating-point {exc}")
    except MvError as exc:
        error = exc
    print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
