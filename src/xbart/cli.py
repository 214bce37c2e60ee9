"""Command-line interface: ``xbart fit``, ``xbart predict``, ``xbart bench``."""

from __future__ import annotations

import argparse
import sys

from .bench import run_bench
from .data import read_csv_dataset, read_csv_features, read_schema
from .errors import XBARTError
from .forest import Hyperparams
from .model import fit, load_model
from .simulate import (
    DgpSpec,
    MEAN_FUNCTIONS,
    NOISE_KINDS,
    PREDICTOR_KINDS,
)


def _build_parser() -> argparse.ArgumentParser:
    defaults = Hyperparams()
    parser = argparse.ArgumentParser(
        prog="xbart",
        description="Accelerated Bayesian additive regression trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a CSV training table")
    p_fit.add_argument("--train", required=True, help="training CSV with header row")
    p_fit.add_argument("--target", required=True, help="name of the target column")
    p_fit.add_argument(
        "--schema",
        help="sidecar file marking columns categorical|continuous (default: all continuous)",
    )
    p_fit.add_argument("--trees", type=int, default=defaults.n_trees)
    p_fit.add_argument("--sweeps", type=int, default=defaults.n_sweeps)
    p_fit.add_argument("--burnin", type=int, default=defaults.burnin)
    p_fit.add_argument(
        "--cutpoints", type=int, default=defaults.n_cutpoints,
        help="cutpoint budget per variable (default min(n, 100))",
    )
    p_fit.add_argument("--alpha", type=float, default=defaults.alpha)
    p_fit.add_argument("--beta", type=float, default=defaults.beta)
    p_fit.add_argument(
        "--mtry", type=int, default=defaults.mtry,
        help="variables scored per node (default: all)",
    )
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True, help="where to write the model file")

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True, help="CSV of rows to predict")
    p_pred.add_argument("--out", required=True, help="where to write the prediction CSV")
    p_pred.add_argument(
        "--draws",
        action="store_true",
        help="write one column per retained draw instead of the posterior mean",
    )

    p_bench = sub.add_parser("bench", help="synthetic benchmark on one DGP")
    p_bench.add_argument("--dgp", required=True, choices=MEAN_FUNCTIONS)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--p", type=int, required=True)
    p_bench.add_argument("--kappa", type=float, default=1.0)
    p_bench.add_argument("--x", choices=PREDICTOR_KINDS, default="independent")
    p_bench.add_argument("--err", choices=NOISE_KINDS, default="gaussian")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--fixed-tau",
        action="store_true",
        help="keep the leaf prior variance at Var(y)/trees instead of sampling it",
    )
    p_bench.add_argument("--trees", type=int, default=defaults.n_trees)
    p_bench.add_argument("--sweeps", type=int, default=defaults.n_sweeps)
    p_bench.add_argument("--burnin", type=int, default=defaults.burnin)
    p_bench.add_argument(
        "--report", help="also write the deterministic report (no timing) to this file"
    )
    p_bench.add_argument(
        "--jobs", type=int, default=1, help="worker processes for independent reps"
    )
    return parser


def _cmd_fit(args) -> int:
    schema = read_schema(args.schema) if args.schema else None
    X, y = read_csv_dataset(args.train, target=args.target, schema=schema)
    params = Hyperparams(
        n_trees=args.trees,
        n_sweeps=args.sweeps,
        burnin=args.burnin,
        n_cutpoints=args.cutpoints,
        alpha=args.alpha,
        beta=args.beta,
        mtry=args.mtry,
    )
    model = fit(X, y, params=params, seed=args.seed)
    model.save(args.out)
    print(
        f"fitted {params.n_trees} trees over {params.n_sweeps} sweeps "
        f"on {X.n} rows x {X.p} columns; "
        f"{len(model.draws)} retained draws -> {args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    X = read_csv_features(args.data, model.feature_names, model.categorical)
    if args.draws:
        block = model.predict_draws(X)
        names = [f"draw_{d.sweep:04d}" for d in model.draws]
    else:
        block = model.predict(X)[:, None]
        names = ["yhat"]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(["row", *names]) + "\n")
        for i, row in enumerate(block.tolist(), start=1):
            fh.write(",".join([str(i), *map(repr, row)]) + "\n")
    print(f"wrote {X.n} predictions -> {args.out}")
    return 0


def _cmd_bench(args) -> int:
    spec = DgpSpec(
        function=args.dgp,
        n=args.n,
        p=args.p,
        predictors=args.x,
        noise=args.err,
        kappa=args.kappa,
    )
    params = Hyperparams(
        n_trees=args.trees,
        n_sweeps=args.sweeps,
        burnin=args.burnin,
        sample_tau=not args.fixed_tau,
    )
    report = run_bench(
        spec,
        params=params,
        reps=args.reps,
        master_seed=args.seed,
        jobs=args.jobs,
    )
    print(report.table())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.canonical_report())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        return _cmd_bench(args)
    except (XBARTError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
