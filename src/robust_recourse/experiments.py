"""Experiment harness: study runners, certification, and file outputs.

Each study trains per fold, computes recourse only for test instances that
the base scorer labels undesirable, averages metrics across instances and
folds, and writes a CSV (with a JSON schema alongside) plus an SVG chart
under ``<out>/<study>/``. Everything is deterministic given the config:
reruns produce byte-identical files. The three runners share one pipeline:
``_study_folds`` walks the folds (logging a skipped one on the
``robust_recourse`` logger), ``_add`` and ``_means`` keep each key's sums and
averages, and ``_curves`` picks each chart series from the rows. The pareto
and smoothness runners make one call per fold, over every instance and its
whole prediction set, of ``tradeoff._frontiers`` and ``tradeoff._regrets``
(``pareto_frontier`` and ``smoothness`` are their one-instance cases). Each
call solves the fold's robust plans in one run of the exact loop, each
(instance, prediction)'s consistent plan in one more, and blends every row
in one search.

Every instance model comes from ``_local_model``. A fitted logistic model
(the ``glm`` path's per-fold base, or a linear correct-prediction model) is
every instance's model as it is. A network (the ``mlp`` path) gets a local
linear surrogate per instance, so each instance carries its own base
parameters and model ball.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .adversary import Neighborhood, worst_case_shared_model
from .data import (
    Dataset,
    SyntheticSpec,
    apply_norm,
    compute_norm_stats,
    generate_synthetic,
    ingest_csv,
    kfold,
)
from .glm import ModelParams, RecourseQuery, _check_json_types
from .models import (
    BlackBoxScorer,
    GlmScorer,
    MlpScorer,
    MlpWeights,
    TrainingDataError,
    predict_label,
    train_logistic,
)
from .roar import RoarConfig, roar_recourse_batch
from .solver import (GridSpec, minimax_oracle, optimal_robust_recourse,
                     optimal_robust_recourse_batch, solve_coordinate_step)
from .surrogate import SurrogateConfig, fit_local_linear
from .svgplot import line_chart
from .tradeoff import _baseline_metrics, _frontiers, _regrets, validity

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "StudyResult",
    "OracleReport",
    "generate_predictions",
    "run_tradeoff_study",
    "run_smoothness_study",
    "run_validity_study",
    "oracle_check",
]

_log = logging.getLogger("robust_recourse")


class ConfigError(ValueError):
    """Bad experiment configuration (unknown keys, invalid values, missing files)."""


def _explicit_model(item: dict) -> tuple:
    """(weights, intercept) of one listed prediction, from its config object."""
    values = [*item["weights"], item.get("intercept", 0.0)]
    if set(item) - {"weights", "intercept"} or any(
            isinstance(v, bool) or not isinstance(v, numbers.Real) for v in values):
        raise ValueError("not a model")
    model = ModelParams(np.array(values[:-1], dtype=float), values[-1])
    return tuple(model.weights.tolist()), model.intercept


DEFAULT_BETAS = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_LAMBDAS = (0.05, 0.1, 0.2, 0.5, 0.7, 1.0)
DEFAULT_VALIDITY_ALPHAS = tuple(round(0.02 * i, 2) for i in range(1, 11))
DEFAULT_VALIDITY_LAMBDAS = (0.05, 0.1, 0.2)
_GRIDS = ("lambda_grid", "beta_grid", "validity_alphas", "validity_lambdas")
_MAX_EPSILON = np.finfo(float).max / 2.0


@dataclass(frozen=True)
class ExperimentConfig:
    """A study configuration; building one checks each field's JSON type and range.

    A bad value raises ConfigError. ``surrogate.n_samples`` is checked against
    the feature count when the first fold is prepared. ``predictions`` lists
    the pareto study's predicted models as (weights, intercept) pairs; empty,
    the study takes each base model and its four corner models.
    """

    dataset: str = "synthetic"
    model_kind: str = "glm"
    alpha: float = 0.5
    lambda_grid: tuple = DEFAULT_LAMBDAS
    beta_grid: tuple = DEFAULT_BETAS
    validity_alphas: tuple = DEFAULT_VALIDITY_ALPHAS
    validity_lambdas: tuple = DEFAULT_VALIDITY_LAMBDAS
    predictions: tuple = ()
    epsilon: float | None = None
    smoothness_alpha: float = 1.0
    smoothness_shift: float | None = None
    shifted_dataset: str | None = None
    n_points: int = 1000
    k_folds: int = 5
    seed: int = 0
    out_dir: str = "out"
    label_column: str = "label"
    positive_label: str = "1"
    mlp_weights: str | None = None
    mlp_weights_shifted: str | None = None
    surrogate: SurrogateConfig = SurrogateConfig()
    roar: RoarConfig = RoarConfig()

    def __post_init__(self) -> None:
        _check_json_types(self, ConfigError)
        if self.model_kind not in ("glm", "mlp"):
            raise ConfigError(f"model_kind must be 'glm' or 'mlp', got {self.model_kind!r}")
        if not (0.0 <= self.alpha < np.inf and 0.0 <= self.smoothness_alpha < np.inf):
            raise ConfigError("alpha must be finite and nonnegative")
        # the +/-2 epsilon predictions shift the correct model by twice epsilon
        if self.epsilon is not None and not 0.0 <= self.epsilon <= _MAX_EPSILON:
            raise ConfigError(f"epsilon must lie in [0, {_MAX_EPSILON:.3g}], got {self.epsilon}")
        if self.smoothness_shift is not None and not np.isfinite(self.smoothness_shift):
            raise ConfigError(f"smoothness_shift must be finite, got {self.smoothness_shift}")
        for name in _GRIDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if not getattr(self, name):
                raise ConfigError(f"{name} must be non-empty")
            if any(isinstance(v, bool) or not (isinstance(v, numbers.Real) and 0.0 <= v < np.inf)
                   for v in getattr(self, name)):
                raise ConfigError(f"{name} values must be finite nonnegative numbers")
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ConfigError(f"{name} values must be distinct")
        if any(not 0.0 <= b <= 1.0 for b in self.beta_grid):
            raise ConfigError("beta_grid values must lie in [0, 1]")
        for name, least in (("k_folds", 1), ("n_points", 2), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be an integer of at least {least}")
        if self.model_kind == "mlp" and not self.mlp_weights:
            raise ConfigError("model_kind 'mlp' requires mlp_weights")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(raw)
        if isinstance(kwargs.get("predictions"), list):  # else the type check refuses it
            try:
                kwargs["predictions"] = tuple(_explicit_model(m) for m in kwargs["predictions"])
            except (KeyError, TypeError, ValueError, OverflowError):
                raise ConfigError(
                    "predictions: each model must be an object with a non-empty 'weights' list "
                    "of finite numbers, an optional finite 'intercept' and no other key"
                ) from None
        for key, typ in (("surrogate", SurrogateConfig), ("roar", RoarConfig)):
            given = kwargs.get(key, {})
            if not isinstance(given, dict):
                raise ConfigError(f"{key} must be an object, got {given!r}")
            if key == "surrogate" and "seed" in given:
                raise ConfigError("surrogate.seed is not read: each instance's fit derives its "
                                  "seed from the config seed")
            try:
                kwargs[key] = typ(**given)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from None
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(raw)


@dataclass(frozen=True)
class StudyResult:
    rows: list
    csv_path: str
    svg_path: str | None
    extras: dict


@dataclass(frozen=True)
class OracleReport:
    """Certification summary; ``worst_instance`` is the instance behind ``max_over``."""

    n_instances: int
    n_pass: int
    max_over: float
    max_under: float
    elapsed_s: float
    worst_instance: dict

    @property
    def all_pass(self) -> bool:
        return self.n_pass == self.n_instances


def _half_gap(a: ModelParams, b: ModelParams) -> float:
    """Half the largest coordinate gap between two models: the default epsilon."""
    return max(float(np.max(np.abs(a.weights - b.weights))), abs(a.intercept - b.intercept)) / 2.0


def _epsilon_predictions(ball: Neighborhood, correct: ModelParams, epsilon: float | None) -> list:
    """The smoothness study's named predictions: ``correct`` and its +/-eps, +/-2 eps shifts.

    Each shift moves every weight and the intercept by the same signed step,
    and each model is clamped into ``ball``. ``epsilon`` None takes half the
    largest gap between ``correct`` and the ball's base.
    """
    eps = _half_gap(correct, ball.base) if epsilon is None else epsilon
    return [
        (name, ball.clamp(ModelParams(weights=correct.weights + delta,
                                      intercept=correct.intercept + delta)))
        for name, delta in (("correct", 0.0), ("+eps", eps), ("-eps", -eps),
                            ("+2eps", 2.0 * eps), ("-2eps", -2.0 * eps))
    ]


def _corner_patterns(d: int) -> list:
    alt = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(d)])
    return [np.ones(d), -np.ones(d), alt, -alt]


def generate_predictions(explicit: tuple, base: ModelParams, alpha: float) -> list:
    """The pareto study's named predictions: ``explicit``, or ``base`` and its four corners.

    Each listed (weights, intercept) pair must lie in the ball around ``base``.
    """
    if not explicit:  # base + alpha * (a +/-1 pattern) is on the boundary
        return [("base", base)] + [
            (f"corner{i}", ModelParams(base.weights + alpha * pat, base.intercept))
            for i, pat in enumerate(_corner_patterns(base.dim))]
    ball = Neighborhood(base, alpha)
    preds = []
    for i, (weights, intercept) in enumerate(explicit):
        cand = ModelParams(weights=np.asarray(weights, dtype=float), intercept=intercept)
        if cand.dim != base.dim:
            raise ConfigError(f"prediction {i} has {cand.dim} weights, "
                              f"the data have {base.dim} features")
        if not ball.contains(cand):
            raise ConfigError(f"prediction {i} lies outside the model ball")
        preds.append((f"pred{i}", cand))
    return preds


# ---------------------------------------------------------------------------
# fold preparation


def _derived_seed(seed: int, *parts: int) -> int:
    h = seed & 0x7FFFFFFF
    for p in parts:
        h = (h * 1_000_003 + p + 1) & 0x7FFFFFFF
    return h


def _load_base_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset == "synthetic":
        return generate_synthetic(SyntheticSpec(n_points=cfg.n_points, seed=cfg.seed))
    return ingest_csv(cfg.dataset, cfg.label_column, cfg.positive_label)


def _dataset_name(cfg: ExperimentConfig) -> str:
    if cfg.dataset == "synthetic":
        return "synthetic"
    return os.path.splitext(os.path.basename(cfg.dataset))[0]


def _fold_features(cfg, ds, plan, fold):
    tr = plan.train_indices(fold)
    te = plan.test_indices(fold)
    x_train, y_train = ds.features[tr], ds.labels[tr]
    x_test = ds.features[te]
    if cfg.dataset != "synthetic":
        stats = compute_norm_stats(x_train)
        x_train = apply_norm(stats, x_train)
        x_test = apply_norm(stats, x_test)
    return x_train, y_train, x_test


def _local_model(cfg: ExperimentConfig, source, x0: np.ndarray, *seed_parts: int) -> ModelParams:
    """``source`` itself if it is a ``ModelParams``, else its local surrogate around ``x0``.

    The fit is seeded by ``_derived_seed(cfg.seed, *seed_parts)``. Its design
    depends only on ``x0`` and ``cfg.surrogate``, so a failed fit is a ConfigError.
    """
    if isinstance(source, ModelParams):
        return source
    sur_cfg = dataclasses.replace(cfg.surrogate, seed=_derived_seed(cfg.seed, *seed_parts))
    try:
        return fit_local_linear(source, x0, sur_cfg)
    except TrainingDataError as exc:
        raise ConfigError(f"surrogate config: {exc}") from None


def _prepare_fold(cfg: ExperimentConfig, ds: Dataset, plan, fold: int):
    """(scorer, x0s, bases): the fold's undesirably-labeled test rows and their base models.

    A surrogate base is seeded by its row's index among the fold's test rows.
    """
    x_train, y_train, x_test = _fold_features(cfg, ds, plan, fold)
    if cfg.model_kind == "glm":
        source = train_logistic(x_train, y_train)
        scorer: BlackBoxScorer = GlmScorer(source)
    else:
        if cfg.surrogate.n_samples < ds.dim + 1:
            raise ConfigError(f"surrogate.n_samples must be at least {ds.dim + 1} for {ds.dim} "
                              f"features, got {cfg.surrogate.n_samples}")
        source = scorer = MlpScorer(_load_mlp(cfg.mlp_weights, ds.dim))
    keep = [i for i, x in enumerate(x_test) if predict_label(scorer, x) == 0]
    return scorer, x_test[keep], [_local_model(cfg, source, x_test[i], fold, i) for i in keep]


def _study_folds(cfg: ExperimentConfig, ds: Dataset, plan):
    """Yields (fold, scorer, x0s, bases) for every fold with undesirable test rows.

    As ``_prepare_fold`` gives them. A fold without any such row is logged
    and skipped; when no fold has any, a ConfigError ends the study.
    """
    produced = False
    for fold in range(plan.k):
        scorer, x0s, bases = _prepare_fold(cfg, ds, plan, fold)
        if not bases:
            _log.warning("fold %d has no undesirable instances; skipped", fold)
            continue
        produced = True
        yield fold, scorer, x0s, bases
    if not produced:
        raise ConfigError("no fold produced undesirable instances")


def _load_mlp(path: str, dim: int) -> MlpWeights:
    """The network in ``path``, which must take ``dim`` inputs; else a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            weights = MlpWeights.from_json(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read MLP weights {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"MLP weights {path} are not a network: "
                          f"{type(exc).__name__}: {exc}") from exc
    width = weights.layers[0][0].shape[1]
    if width != dim:
        raise ConfigError(f"MLP weights {path} take {width} inputs, the data have {dim} features")
    return weights


def _select_lambda(scorer: BlackBoxScorer, x0s: np.ndarray, bases: list, grid: tuple) -> float:
    """Largest lambda maximizing consistent-recourse validity under the base scorer.

    One batch solve over every (lambda, instance) row, on zero-radius balls.
    """
    lams = sorted(grid)
    balls = [Neighborhood(base, 0.0) for base in bases]
    plans = optimal_robust_recourse_batch(np.tile(x0s, (len(lams), 1)),
                                          np.repeat(lams, len(bases)), balls * len(lams))
    best_lam, best_val = None, -1.0
    for lam, pts in zip(lams, plans.reshape(len(lams), *x0s.shape)):
        val = validity(scorer, pts)
        if val >= best_val:
            best_lam, best_val = lam, val
    return best_lam


# ---------------------------------------------------------------------------
# aggregation and output writers


def _add(sums: dict, key, *values) -> None:
    """Adds one instance's values to ``key``'s sums; the last entry counts instances."""
    acc = sums.setdefault(key, [0.0] * len(values) + [0])
    for i, value in enumerate(values):
        acc[i] += value
    acc[-1] += 1


def _means(sums: dict, key) -> tuple:
    """``key``'s mean values, followed by its instance count."""
    *totals, n = sums[key]
    return (*(total / n for total in totals), n)


def _curves(rows: list, names, group: str, x: str, y: str) -> list:
    """Per name, the ``x`` and ``y`` columns of the rows whose ``group`` is that name, in order."""
    picked = [(name, [r for r in rows if r[group] == name]) for name in names]
    return [(name, [r[x] for r in mine], [r[y] for r in mine]) for name, mine in picked]


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_study(cfg: ExperimentConfig, study: str, columns: list, rows: list, series: list,
                 **chart) -> tuple:
    """Writes ``<out>/<study>/<dataset>_<model>``: CSV, JSON schema and SVG chart.

    ``columns`` holds (name, type, description) triples; the CSV has one
    field per column, in that order. Returns the CSV and SVG paths.
    """
    base = os.path.join(cfg.out_dir, study)
    os.makedirs(base, exist_ok=True)
    stem = os.path.join(base, f"{_dataset_name(cfg)}_{cfg.model_kind}")
    fields = [name for name, _, _ in columns]
    lines = [",".join(fields)] + [",".join(_fmt_cell(row[f]) for f in fields) for row in rows]
    with open(f"{stem}.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    schema = {"columns": [{"name": n, "type": t, "description": d} for n, t, d in columns]}
    with open(f"{stem}.schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")
    line_chart(f"{stem}.svg", series, **chart)
    return f"{stem}.csv", f"{stem}.svg"


# ---------------------------------------------------------------------------
# studies


def run_tradeoff_study(cfg: ExperimentConfig) -> StudyResult:
    """Robustness/consistency frontier per predicted model, plus the ROAR point.

    Every fold is prepared first (its instances, chosen lambda and balls).
    The ROAR baseline then runs once over every fold's instances, one
    ``roar_recourse_batch`` call with each row's own lambda and ball. No
    row's result depends on the others, so this gives the points a call per
    fold would. Each fold's instances then go to ``tradeoff._frontiers`` in
    one call, and its ROAR points are scored against the two optima of each
    prediction's ``Frontier`` (``tradeoff._baseline_metrics``), so the study
    solves no optimum of its own.
    """
    ds = _load_base_dataset(cfg)
    plan = kfold(ds.n, cfg.k_folds, cfg.seed)
    sums: dict = {}  # (method, prediction, beta) -> [robustness, consistency, l1 cost, count]
    lambda_by_fold = []
    pred_names: list = []

    folds = []  # (lam, x0s, bases, balls), in fold order
    for _, scorer, x0s, bases in _study_folds(cfg, ds, plan):
        lam = _select_lambda(scorer, x0s, bases, cfg.lambda_grid)
        lambda_by_fold.append(lam)
        folds.append((lam, x0s, bases, [Neighborhood(base, cfg.alpha) for base in bases]))
    roar_points = roar_recourse_batch(
        np.concatenate([x0s for _, x0s, _, _ in folds]),
        np.array([lam for lam, x0s, _, _ in folds for _ in x0s]),
        [ball for *_, balls in folds for ball in balls], cfg.roar)

    starts = np.cumsum([len(x0s) for _, x0s, _, _ in folds])[:-1]
    for (lam, x0s, bases, balls), x_roar in zip(folds, np.split(roar_points, starts)):
        queries = [RecourseQuery(x0=x0, lam=lam) for x0 in x0s]
        named = [generate_predictions(cfg.predictions, base, cfg.alpha) for base in bases]
        pred_names = pred_names or [name for name, _ in named[0]]
        pred_sets = [[pred for _, pred in preds] for preds in named]
        fronts = _frontiers(queries, balls, pred_sets, cfg.beta_grid)
        roar = zip(*_baseline_metrics(queries, balls, pred_sets, fronts, x_roar))
        for preds, instance in zip(named, fronts):
            for (pred_name, _), front in zip(preds, instance):
                for pt in front.points:
                    _add(sums, ("blend", pred_name, pt.beta), pt.robustness, pt.consistency,
                         pt.l1_cost)
                _add(sums, ("roar", pred_name, 1.0), *next(roar))

    columns = [
        ("method", "str", "blend (beta-weighted solver) or roar (gradient baseline)"),
        ("prediction", "str", "predicted-model identifier"),
        ("beta", "float", "trust parameter; 1.0 on roar rows (not applicable)"),
        ("robustness", "float", "mean excess worst-case total cost vs the robust optimum"),
        ("consistency", "float", "mean excess total cost under the prediction vs its optimum"),
        ("l1_cost", "float", "mean weighted L1 modification cost"),
        ("n_instances", "int", "instance count behind the averages"),
    ]
    keys = [(method, name, float(beta)) for method, betas in (("blend", cfg.beta_grid),
                                                              ("roar", (1.0,)))
            for name in pred_names for beta in betas]
    rows = [dict(zip([c[0] for c in columns], (*key, *_means(sums, key)))) for key in keys]
    series = _curves([r for r in rows if r["method"] == "blend"], pred_names, "prediction",
                     "robustness", "consistency")
    csv_path, svg_path = _write_study(cfg, "pareto", columns, rows, series,
                                      title="Robustness vs consistency", x_label="robustness",
                                      y_label="consistency")

    roar_sums = [sums[("roar", name, 1.0)] for name in pred_names]
    roar_mean_rob = sum(v[0] for v in roar_sums) / sum(v[3] for v in roar_sums)
    extras = {
        "lambda_by_fold": lambda_by_fold,
        "predictions": pred_names,
        "roar_mean_robustness": roar_mean_rob,
    }
    return StudyResult(rows=rows, csv_path=csv_path, svg_path=svg_path, extras=extras)


def _correct_prediction_models(cfg: ExperimentConfig, ds: Dataset, plan, fold: int):
    """Per-fold source of the correct-prediction model for the smoothness study."""
    if cfg.model_kind == "mlp":
        if not cfg.mlp_weights_shifted:
            raise ConfigError("smoothness on mlp needs mlp_weights_shifted")
        return MlpScorer(_load_mlp(cfg.mlp_weights_shifted, ds.dim))
    if cfg.dataset == "synthetic":
        shift = cfg.smoothness_shift if cfg.smoothness_shift is not None else cfg.smoothness_alpha
        shifted = generate_synthetic(SyntheticSpec(n_points=cfg.n_points, seed=cfg.seed,
                                                   shift=shift))
        x_train = shifted.features[plan.train_indices(fold)]
        y_train = shifted.labels[plan.train_indices(fold)]
        try:  # the shift is a config value, so a fit it breaks is a config error
            return train_logistic(x_train, y_train)
        except TrainingDataError as exc:
            raise ConfigError(f"smoothness_shift {shift}: {exc}") from None
    if not cfg.shifted_dataset:
        raise ConfigError("smoothness on a csv dataset needs shifted_dataset")
    shifted = ingest_csv(cfg.shifted_dataset, cfg.label_column, cfg.positive_label)
    stats = compute_norm_stats(ds.features[plan.train_indices(fold)])
    return train_logistic(apply_norm(stats, shifted.features), shifted.labels)


def run_smoothness_study(cfg: ExperimentConfig) -> StudyResult:
    """Mean regret vs trust level, one curve per prediction accuracy.

    Each instance's correct model is ``_local_model`` of the fold's
    correct-prediction source, clamped into the instance's ball. The
    predictions are that model and its epsilon perturbations
    (``_epsilon_predictions``), with ``cfg.epsilon`` as the step;
    ``cfg.predictions`` is not read. Each fold's instances go to
    ``tradeoff._regrets`` in one call.
    """
    ds = _load_base_dataset(cfg)
    plan = kfold(ds.n, cfg.k_folds, cfg.seed)
    sums: dict = {}  # (prediction, beta) -> [regret, count]
    pred_names: list = []
    lambda_by_fold = []

    for fold, scorer, x0s, bases in _study_folds(cfg, ds, plan):
        lam = _select_lambda(scorer, x0s, bases, cfg.lambda_grid)
        lambda_by_fold.append(lam)
        correct_src = _correct_prediction_models(cfg, ds, plan, fold)
        balls = [Neighborhood(base, cfg.smoothness_alpha) for base in bases]
        corrects = [ball.clamp(_local_model(cfg, correct_src, x0, fold, i, 7))
                    for i, (x0, ball) in enumerate(zip(x0s, balls))]
        named = [_epsilon_predictions(ball, c, cfg.epsilon) for ball, c in zip(balls, corrects)]
        pred_names = pred_names or [name for name, _ in named[0]]
        queries = [RecourseQuery(x0=x0, lam=lam) for x0 in x0s]
        regrets = _regrets(queries, balls, [[pred for _, pred in preds] for preds in named],
                           corrects, cfg.beta_grid)
        for preds, instance in zip(named, regrets):
            for (pred_name, _), row in zip(preds, instance):
                for beta, regret in zip(cfg.beta_grid, row):
                    _add(sums, (pred_name, float(beta)), regret)

    columns = [
        ("prediction", "str", "correct model or its +/- epsilon perturbations"),
        ("beta", "float", "trust parameter"),
        ("smoothness", "float", "mean regret under the materialized model"),
        ("n_instances", "int", "instance count behind the averages"),
    ]
    keys = [(name, float(beta)) for name in pred_names for beta in cfg.beta_grid]
    rows = [dict(zip([c[0] for c in columns], (*key, *_means(sums, key)))) for key in keys]
    series = _curves(rows, pred_names, "prediction", "beta", "smoothness")
    csv_path, svg_path = _write_study(cfg, "smoothness", columns, rows, series,
                                      title="Smoothness vs trust", x_label="beta",
                                      y_label="smoothness")
    extras = {"lambda_by_fold": lambda_by_fold, "predictions": pred_names}
    return StudyResult(rows=rows, csv_path=csv_path, svg_path=svg_path, extras=extras)


def run_validity_study(cfg: ExperimentConfig) -> StudyResult:
    """Worst-case validity vs mean cost for the exact solver and the ROAR baseline.

    Each fold solves every (alpha, lam, instance) row in one exact and one ROAR
    batch call, then finds one worst-case model per cell and method.
    """
    if cfg.model_kind != "glm":
        raise ConfigError("the validity study supports the glm model path only")
    ds = _load_base_dataset(cfg)
    plan = kfold(ds.n, cfg.k_folds, cfg.seed)
    sums: dict = {}  # (method, alpha, lam) -> [validity, mean cost, count]
    cells = [(float(a), float(lam)) for a in cfg.validity_alphas for lam in cfg.validity_lambdas]

    for _, _, x0s, bases in _study_folds(cfg, ds, plan):
        balls = [Neighborhood(bases[0], alpha) for alpha, _ in cells]
        rows = (np.tile(x0s, (len(cells), 1)), np.repeat([lam for _, lam in cells], len(x0s)),
                [nbhd for nbhd in balls for _ in x0s])
        recs_alg = optimal_robust_recourse_batch(*rows).reshape(len(cells), *x0s.shape)
        recs_roar = roar_recourse_batch(*rows, cfg.roar).reshape(len(cells), *x0s.shape)
        for cell, nbhd, alg, roar in zip(cells, balls, recs_alg, recs_roar):
            for method, pts in (("alg", alg), ("roar", roar)):
                _add(sums, (method, *cell), validity(worst_case_shared_model(nbhd, pts), pts),
                     float(np.mean(np.abs(pts - x0s).sum(axis=1))))

    rows = []
    for method in ("alg", "roar"):
        pts = []
        for alpha, lam in cells:
            v, c, _ = _means(sums, (method, alpha, lam))
            pts.append({"method": method, "alpha": alpha, "lam": lam, "validity": v,
                        "mean_cost": c})
        for row in pts:
            row["pareto"] = not any(
                other["validity"] >= row["validity"]
                and other["mean_cost"] <= row["mean_cost"]
                and (
                    other["validity"] > row["validity"] or other["mean_cost"] < row["mean_cost"]
                )
                for other in pts
            )
        rows.extend(pts)

    # a stable sort keeps each method's front in (cost, validity) order
    front = sorted((r for r in rows if r["pareto"]), key=lambda r: (r["mean_cost"], r["validity"]))
    series = _curves(front, ("alg", "roar"), "method", "mean_cost", "validity")
    columns = [
        ("method", "str", "alg (exact solver) or roar (gradient baseline)"),
        ("alpha", "float", "model-ball radius"),
        ("lam", "float", "cost multiplier"),
        ("validity", "float", "fraction labeled desirable under the shared worst-case model"),
        ("mean_cost", "float", "mean L1 modification cost"),
        ("pareto", "bool", "not dominated within its method"),
    ]
    csv_path, svg_path = _write_study(cfg, "validity", columns, rows, series,
                                      title="Worst-case validity vs cost", x_label="mean cost",
                                      y_label="validity")
    return StudyResult(rows=rows, csv_path=csv_path, svg_path=svg_path, extras={})


# ---------------------------------------------------------------------------
# certification


def _axis_points(d: int) -> int:
    return {1: 2001, 2: 201, 3: 41}[d]


def _displacement_bound(nbhd: Neighborhood, x0, lam) -> float:
    """Safe per-coordinate movement bound for the certification grid."""
    weights, alpha = nbhd.base.weights, nbhd.alpha
    s0 = float(x0 @ weights - alpha * np.abs(x0).sum() + nbhd.worst_intercept)
    worst = 0.0
    for wj, xj in zip(weights, x0):
        for a in (abs(wj - alpha), abs(wj + alpha)):
            worst = max(worst, abs(xj) + solve_coordinate_step(lam, s0, a)[0])
    return worst


def oracle_check(
    n_instances: int = 200,
    seed: int = 0,
    upper_tol: float = 1e-2,
    lower_tol: float = 1e-9,
) -> OracleReport:
    """Compare the exact solver against the grid oracle on random instances.

    Instances are drawn until their analytic movement bound fits a tractable
    grid; the bound caps how far any optimum can sit from the start point,
    so the rejection never hides a disagreement.
    """
    if n_instances < 1:
        raise ConfigError(f"n_instances must be at least 1, got {n_instances}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    n_pass = 0
    max_over = -np.inf
    max_under = -np.inf
    produced = 0
    while produced < n_instances:
        d = int(rng.integers(1, 4))
        alpha = float(rng.choice((0.1, 0.5)))
        lam = float(rng.choice((0.05, 0.3, 1.0)))
        weights = rng.uniform(-3.0, 3.0, d)
        intercept = float(rng.uniform(-1.0, 1.0))
        x0 = rng.uniform(-3.0, 3.0, d)
        nbhd = Neighborhood(ModelParams(weights=weights, intercept=intercept), alpha)
        bound = _displacement_bound(nbhd, x0, lam)
        if bound > 18.0:
            continue
        produced += 1

        q = RecourseQuery(x0=x0, lam=lam)
        plan = optimal_robust_recourse(q, nbhd)

        half = max(5.0, 1.1 * bound + 1.0)
        step = 2.0 * half / (_axis_points(d) - 1)
        levels = max(3, int(np.ceil(np.log10(step / 5e-6))))
        grid = GridSpec(half_range=half, step=step, refine_levels=levels)
        _, oracle_val = minimax_oracle(q, nbhd, grid)

        over = plan.worst_case_total - oracle_val
        under = oracle_val - plan.worst_case_total
        if over > max_over:
            max_over = over
            worst_instance = {
                "d": d,
                "alpha": alpha,
                "lam": lam,
                "weights": weights.tolist(),
                "intercept": intercept,
                "x0": x0.tolist(),
            }
        max_under = max(max_under, under)
        if over <= upper_tol and under <= lower_tol:
            n_pass += 1
    return OracleReport(
        n_instances=n_instances,
        n_pass=n_pass,
        max_over=float(max_over),
        max_under=float(max_under),
        elapsed_s=time.perf_counter() - start,
        worst_instance=worst_instance,
    )
