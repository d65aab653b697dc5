"""Command-line surface.

Subcommands: gen-data, train, recourse, pareto, smoothness, validity,
oracle-check. Exit codes: 0 success, 2 configuration or usage error, 3 data
error; oracle-check exits 1 when a certification instance fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .adversary import Neighborhood
from .data import DataError, Dataset, SyntheticSpec, generate_synthetic
from .experiments import (
    ConfigError,
    ExperimentConfig,
    oracle_check,
    run_smoothness_study,
    run_tradeoff_study,
    run_validity_study,
)
from .glm import LossKind, ModelParams, RecourseQuery
from .models import TrainingDataError, train_logistic
from .solver import optimal_robust_recourse

__all__ = ["main"]


def _float_list(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok != ""])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from None


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen_data(args) -> int:
    try:
        spec = SyntheticSpec(n_points=args.n, seed=args.seed, shift=args.shift)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _emit(generate_synthetic(spec).to_json(), args.out)
    return 0


def _cmd_train(args) -> int:
    with open(args.data, encoding="utf-8") as fh:
        ds = Dataset.from_json(fh.read())
    params = train_logistic(ds.features, ds.labels)
    _emit(params.to_json(), args.out)
    return 0


def _cmd_recourse(args) -> int:
    mask = None
    if args.immutable:
        mask = np.zeros(len(args.theta), dtype=bool)
        for idx in args.immutable:
            if not 0 <= idx < len(args.theta):
                raise ConfigError(f"immutable index {idx} out of range")
            mask[idx] = True
    try:
        base = ModelParams(weights=args.theta, intercept=args.intercept)
        loss = LossKind.SQUARED if args.loss == "squared" else LossKind.BCE
        query = RecourseQuery(x0=args.x0, lam=args.lam, loss=loss, immutable_mask=mask)
        nbhd = Neighborhood(base, args.alpha, perturb_intercept=not args.fixed_intercept)
        if query.dim != base.dim:
            raise ValueError(f"--theta has {base.dim} weights, --x0 has {query.dim} features")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    plan = optimal_robust_recourse(query, nbhd)
    _emit(plan.to_json(), args.out)
    return 0


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    return cfg


def _cmd_study(args) -> int:
    result = args.runner(_load_config(args))
    print(f"{args.command}: wrote {result.csv_path}")
    return 0


def _cmd_oracle_check(args) -> int:
    report = oracle_check(n_instances=args.n, seed=args.seed)
    print(
        json.dumps(
            {
                "instances": report.n_instances,
                "passed": report.n_pass,
                "max_over": report.max_over,
                "max_under": report.max_under,
                "elapsed_s": round(report.elapsed_s, 3),
                "worst_instance": report.worst_instance,
            }
        )
    )
    return 0 if report.all_pass else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2; subparsers are of this class."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robust-recourse",
        description="Recourse generation for linear models under bounded model shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset as JSON")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=float, default=0.0, help="class-0 mean shift on axis 0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="fit a logistic model on a dataset JSON file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("recourse", help="solve one robust recourse instance")
    p.add_argument("--theta", type=_float_list, required=True, help="comma-separated weights")
    p.add_argument("--intercept", type=float, default=0.0)
    p.add_argument("--x0", type=_float_list, required=True, help="comma-separated start point")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--loss", choices=("bce", "squared"), default="bce")
    p.add_argument("--immutable", type=_int_list, default=None, help="frozen coordinate indices")
    p.add_argument(
        "--fixed-intercept",
        action="store_true",
        help="adversary may not shift the intercept",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recourse)

    for name, runner in (
        ("pareto", run_tradeoff_study),
        ("smoothness", run_smoothness_study),
        ("validity", run_validity_study),
    ):
        p = sub.add_parser(name, help=f"run the {name} study")
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.set_defaults(func=_cmd_study, runner=runner)

    p = sub.add_parser("oracle-check", help="certify the solver against the grid oracle")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, TrainingDataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
