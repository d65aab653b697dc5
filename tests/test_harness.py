import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from robust_recourse.adversary import Neighborhood, worst_case_shared_model
from robust_recourse.cli import main
from robust_recourse.data import SyntheticSpec, generate_synthetic, kfold
from robust_recourse import experiments, solver, tradeoff
from robust_recourse.experiments import (
    ConfigError,
    ExperimentConfig,
    _correct_prediction_models,
    _derived_seed,
    _epsilon_predictions,
    _load_base_dataset,
    _prepare_fold,
    _select_lambda,
    generate_predictions,
    oracle_check,
    run_smoothness_study,
    run_tradeoff_study,
    run_validity_study,
)
from robust_recourse.glm import ModelParams, RecourseQuery, eval_total_cost, weighted_l1
from robust_recourse.models import (GlmScorer, MlpScorer, MlpWeights, predict_label,
                                   train_logistic)
from robust_recourse.roar import RoarConfig, roar_recourse, roar_recourse_batch
from robust_recourse.solver import (
    GridSpec,
    consistent_recourse,
    minimax_oracle,
    optimal_robust_recourse,
)
from robust_recourse.surrogate import SurrogateConfig, fit_local_linear
from robust_recourse.svgplot import line_chart
from robust_recourse.tradeoff import (
    TradeoffQuery,
    blended_recourse,
    consistency,
    robustness,
    validity,
)

# ------------------------------------------------------------------ config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"alpa": 0.5})
    # the mode switch is gone: an empty prediction list means the corner models
    with pytest.raises(ConfigError, match=r"unknown config keys: \['prediction'\]"):
        ExperimentConfig.from_dict({"prediction": {"mode": "corner"}})
    with pytest.raises(ConfigError, match="no other key"):
        ExperimentConfig.from_dict({"predictions": [{"weights": [1.0], "bogus": 1}]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"surrogate": {"n_sample": 10}})


def test_config_value_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(model_kind="svm")
    with pytest.raises(ConfigError):
        ExperimentConfig(lambda_grid=())
    with pytest.raises(ConfigError):
        ExperimentConfig(beta_grid=(0.5, 1.2))
    # a repeated value would write its rows twice and count each instance twice
    for name, grid in (("beta_grid", (0.0, 0.5, 0.5, 1.0)), ("validity_alphas", (0.1, 0.1)),
                       ("validity_lambdas", (0.05, 0.2, 0.05)), ("lambda_grid", (0.1, 0.1))):
        with pytest.raises(ConfigError, match=f"{name} values must be distinct"):
            ExperimentConfig(**{name: grid})
    with pytest.raises(ConfigError):
        ExperimentConfig(k_folds=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(model_kind="mlp")  # no weights file given


def test_config_from_dict_nested():
    cfg = ExperimentConfig.from_dict(
        {
            "beta_grid": [0.0, 1.0],
            "predictions": [],
            "surrogate": {"n_samples": 64},
            "roar": {"max_iters": 100},
        }
    )
    assert cfg.predictions == ()
    assert cfg.surrogate.n_samples == 64
    assert cfg.roar.max_iters == 100
    assert cfg.beta_grid == (0.0, 1.0)
    explicit = ExperimentConfig.from_dict(
        {"predictions": [{"weights": [1, 2], "intercept": 0.5}, {"weights": [0.5, 1]}]}
    )
    assert explicit.predictions == (((1.0, 2.0), 0.5), ((0.5, 1.0), 0.0))
    # no study reads a prediction epsilon: smoothness builds its own set from
    # the top-level one, and pareto takes the listed models or the corner ones
    with pytest.raises(ConfigError, match="no other key"):
        ExperimentConfig.from_dict({"predictions": [{"weights": [1.0], "epsilon": 0.1}]})
    # a number is never a boolean, in a listed model too, and it must be a finite float
    for model in ({"weights": [True, False]}, {"weights": [1.0, 0.0], "intercept": True},
                  {"weights": [10**400, 1.0]}, {"weights": [1.0], "intercept": float("inf")}):
        with pytest.raises(ConfigError, match="predictions: each model"):
            ExperimentConfig.from_dict({"predictions": [model]})
    # each fit's seed derives from the config seed, so a surrogate seed would do nothing
    with pytest.raises(ConfigError, match="surrogate.seed is not read"):
        ExperimentConfig.from_dict({"surrogate": {"seed": 3}})


def test_config_built_in_python_checks_its_sections():
    for name, value in (("surrogate", 5), ("roar", "x"), ("surrogate", RoarConfig()),
                        ("roar", {"max_iters": 10})):
        with pytest.raises(ConfigError, match=f"{name} must be a "):
            ExperimentConfig(**{name: value})


def test_config_built_in_python_checks_each_prediction():
    # the rule from_dict applies to a listed model holds for a (weights, intercept) pair
    for model in (((True, False), 0.0), ((1.0, 0.0), True), ((1.0, float("nan")), 0.0),
                  ((), 0.0), ((1.0,), 0.0, 2.0), (1.0, 2.0), {"weights": [1.0]}):
        with pytest.raises(ConfigError, match="predictions: each model"):
            ExperimentConfig(predictions=(model,))
    cfg = ExperimentConfig(predictions=[([1, 2], 0.5), ((0.5, 1.0), 0)])
    assert cfg.predictions == (((1.0, 2.0), 0.5), ((0.5, 1.0), 0.0))


# What each config field's annotation admits, as JSON values. A field with a
# new annotation fails here until it is listed, and checked by the config.
_JSON_VALUES = {"bool": True, "int": 5, "float": 2.5, "str": "x", "list": [0.5], "object": {},
                "null": None}
_ADMITS = {
    "str": {"str"}, "str | None": {"str", "null"}, "int": {"int"}, "float": {"int", "float"},
    "float | None": {"int", "float", "null"}, "tuple": {"list"},
    "SurrogateConfig": {"object"}, "RoarConfig": {"object"},
}


@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
def test_config_refuses_wrong_json_types(field):
    admitted = _ADMITS[field.type]
    for kind, value in _JSON_VALUES.items():
        if kind not in admitted:
            with pytest.raises(ConfigError, match=field.name):
                ExperimentConfig.from_dict({field.name: value})
    # each nested object's fields follow the same rule; surrogate.seed is
    # refused as unread whatever its value
    if field.type in ("SurrogateConfig", "RoarConfig"):
        for inner in dataclasses.fields(SurrogateConfig if field.name == "surrogate"
                                        else RoarConfig):
            if (field.name, inner.name) == ("surrogate", "seed"):
                continue
            for kind, value in _JSON_VALUES.items():
                if kind not in _ADMITS[inner.type]:
                    with pytest.raises(ConfigError, match=f"{field.name}: {inner.name} must be"):
                        ExperimentConfig.from_dict({field.name: {inner.name: value}})


def test_config_from_json_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_json_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ExperimentConfig.from_json_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        ExperimentConfig.from_json_file(str(arr))


# ------------------------------------------------------------- predictions


def test_corner_predictions():
    base = ModelParams(weights=np.array([1.0, -0.5]), intercept=0.2)
    preds = generate_predictions((), base, 0.3)
    names = [name for name, _ in preds]
    assert names == ["base", "corner0", "corner1", "corner2", "corner3"]
    np.testing.assert_array_equal(preds[0][1].weights, base.weights)
    np.testing.assert_allclose(preds[1][1].weights, base.weights + 0.3)
    np.testing.assert_allclose(preds[2][1].weights, base.weights - 0.3)
    np.testing.assert_allclose(preds[3][1].weights, base.weights + (0.3, -0.3))
    for _, p in preds:
        assert (np.abs(p.weights - base.weights) <= 0.3 + 1e-12).all()
        assert p.intercept == base.intercept


def test_corner_predictions_higher_dim():
    base = ModelParams(weights=np.zeros(3), intercept=0.0)
    preds = generate_predictions((), base, 0.2)
    assert len(preds) == 5
    np.testing.assert_allclose(preds[3][1].weights, [0.2, -0.2, 0.2])


def test_epsilon_predictions():
    base = ModelParams(weights=np.array([1.0, 1.0]), intercept=0.0)
    correct = ModelParams(weights=np.array([1.2, 0.9]), intercept=0.1)
    ball = Neighborhood(base, 0.5)
    preds = _epsilon_predictions(ball, correct, None)
    names = [name for name, _ in preds]
    assert names == ["correct", "+eps", "-eps", "+2eps", "-2eps"]
    np.testing.assert_array_equal(preds[0][1].weights, correct.weights)
    # auto epsilon is half the largest deviation between correct and base
    assert preds[1][1].weights[0] == pytest.approx(1.3)
    np.testing.assert_allclose(preds[3][1].weights, [1.4, 1.1])
    for _, p in preds:
        assert (np.abs(p.weights - base.weights) <= 0.5 + 1e-12).all()
        assert abs(p.intercept - base.intercept) <= 0.5 + 1e-12
    # an explicit epsilon that overshoots the ball clamps onto its surface
    wide = _epsilon_predictions(ball, correct, 0.3)
    np.testing.assert_allclose(wide[3][1].weights, [1.5, 1.5])
    assert wide[3][1].intercept == pytest.approx(0.5)


def test_explicit_predictions():
    base = ModelParams(weights=np.array([1.0]), intercept=0.0)
    preds = generate_predictions((((1.2,), 0.1),), base, 0.3)
    assert [name for name, _ in preds] == ["pred0"]
    np.testing.assert_array_equal(preds[0][1].weights, [1.2])
    assert preds[0][1].intercept == 0.1
    for outside in (((2.0,), 0.0), ((1.2,), 0.31)):
        with pytest.raises(ConfigError, match="prediction 0 lies outside the model ball"):
            generate_predictions((outside,), base, 0.3)
    # A wrong length is named as such, not as a model outside the ball.
    with pytest.raises(ConfigError, match="prediction 0 has 2 weights, the data have 1 features"):
        generate_predictions((((1.0, 1.0), 0.0),), base, 0.3)


# ---------------------------------------------------------------- studies


def _small_cfg(tmp_path, sub, **kw):
    return ExperimentConfig(
        n_points=160,
        k_folds=2,
        lambda_grid=(0.05, 0.1),
        beta_grid=(0.0, 0.5, 1.0),
        out_dir=str(tmp_path / sub),
        **kw,
    )


def test_tradeoff_study_small(tmp_path):
    cfg = _small_cfg(tmp_path, "run1")
    res = run_tradeoff_study(cfg)
    blend = [r for r in res.rows if r["method"] == "blend"]
    roar = [r for r in res.rows if r["method"] == "roar"]
    assert len(blend) == 5 * 3 and len(roar) == 5
    for row in blend:
        if row["beta"] == 1.0:
            assert abs(row["robustness"]) <= 1e-3
        if row["beta"] == 0.0:
            assert abs(row["consistency"]) <= 1e-3
        assert row["robustness"] >= -1e-9
        assert row["consistency"] >= -1e-9
        assert row["n_instances"] > 0
    assert res.extras["roar_mean_robustness"] >= -1e-9
    assert len(res.extras["lambda_by_fold"]) == 2
    for path in (res.csv_path, res.svg_path, res.csv_path.replace(".csv", ".schema.json")):
        assert os.path.exists(path)
    with open(res.csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "method,prediction,beta,robustness,consistency,l1_cost,n_instances"

    rerun = run_tradeoff_study(_small_cfg(tmp_path, "run2"))
    with open(res.csv_path, "rb") as fh:
        first = fh.read()
    with open(rerun.csv_path, "rb") as fh:
        second = fh.read()
    assert first == second
    with open(res.svg_path, "rb") as fh:
        svg1 = fh.read()
    with open(rerun.svg_path, "rb") as fh:
        svg2 = fh.read()
    assert svg1 == svg2
    assert svg1.startswith(b"<svg")


def test_smoothness_study_small(tmp_path):
    cfg = ExperimentConfig(
        n_points=120,
        k_folds=2,
        lambda_grid=(0.05, 0.1),
        beta_grid=(0.0, 0.5, 1.0),
        out_dir=str(tmp_path / "sm"),
    )
    res = run_smoothness_study(cfg)
    assert len(res.rows) == 5 * 3
    by_key = {(r["prediction"], r["beta"]): r["smoothness"] for r in res.rows}
    # trusting a correct prediction completely leaves no regret
    assert by_key[("correct", 0.0)] <= 1e-6
    # at full caution the prediction plays no role
    full = [by_key[(p, 1.0)] for p in res.extras["predictions"]]
    assert max(full) - min(full) <= 1e-6
    for val in by_key.values():
        assert val >= -1e-9
    assert os.path.exists(res.svg_path)


def test_validity_study_small(tmp_path):
    cfg = ExperimentConfig(
        n_points=120,
        k_folds=2,
        lambda_grid=(0.05, 0.1),
        validity_alphas=(0.05, 0.1),
        validity_lambdas=(0.05, 0.1),
        out_dir=str(tmp_path / "val"),
    )
    res = run_validity_study(cfg)
    assert len(res.rows) == 2 * 2 * 2
    for row in res.rows:
        assert row["method"] in ("alg", "roar")
        assert 0.0 <= row["validity"] <= 1.0
        assert row["mean_cost"] >= 0.0
        assert isinstance(row["pareto"], bool)
    for method in ("alg", "roar"):
        assert any(r["pareto"] for r in res.rows if r["method"] == method)
    assert os.path.exists(res.csv_path)
    assert os.path.exists(res.svg_path)


def test_validity_study_above_the_enumeration_cap(tmp_path, monkeypatch):
    # 14 features and an attackable intercept: 15 free ball coordinates, so the
    # shared worst case comes from the vertex search, never from the corners
    def refuse(self):
        raise AssertionError("corners enumerated")

    monkeypatch.setattr(Neighborhood, "corners", refuse)
    rng = np.random.default_rng(21)
    features = rng.normal(size=(60, 14))
    labels = features @ rng.uniform(-1, 1, 14) + rng.normal(scale=0.5, size=60) > 0
    lines = [",".join([f"f{j}" for j in range(14)] + ["label"])]
    lines += [",".join([f"{v:.6f}" for v in row] + [str(int(y))]) for row, y in zip(features, labels)]
    data = tmp_path / "wide.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run(name):
        return run_validity_study(ExperimentConfig(
            dataset=str(data),
            k_folds=2,
            lambda_grid=(0.1,),
            validity_alphas=(0.05, 0.3),
            validity_lambdas=(0.1,),
            roar=RoarConfig(max_iters=50),
            out_dir=str(tmp_path / name),
        ))

    res = run("run1")
    assert sorted((r["method"], r["alpha"]) for r in res.rows) == [
        ("alg", 0.05), ("alg", 0.3), ("roar", 0.05), ("roar", 0.3)
    ]
    for row in res.rows:
        assert 0.0 <= row["validity"] <= 1.0 and row["mean_cost"] >= 0.0
    with open(res.csv_path, "rb") as fh, open(run("run2").csv_path, "rb") as again:
        assert fh.read() == again.read()


def test_validity_study_matches_per_cell_reference(tmp_path):
    # the runner stacks every (alpha, lam) cell of a fold; this loop does one cell at a time
    alphas, lams, roar_cfg = (0.05, 0.2), (0.05, 0.1), RoarConfig(max_iters=200)
    cfg = ExperimentConfig(
        n_points=40,
        k_folds=2,
        seed=3,
        validity_alphas=alphas,
        validity_lambdas=lams,
        roar=roar_cfg,
        out_dir=str(tmp_path / "val"),
    )
    res = run_validity_study(cfg)
    ds = generate_synthetic(SyntheticSpec(n_points=40, seed=3))
    folds = kfold(ds.n, 2, 3)
    sums = {}
    for fold in range(2):
        tr = folds.train_indices(fold)
        theta0 = train_logistic(ds.features[tr], ds.labels[tr])
        test_x = ds.features[folds.test_indices(fold)]
        x0s = np.array([x for x in test_x if predict_label(GlmScorer(theta0), x) == 0])
        for alpha in alphas:
            nbhd = Neighborhood(theta0, alpha)
            for lam in lams:
                recs = {
                    "alg": [
                        optimal_robust_recourse(RecourseQuery(x0=x, lam=lam), nbhd).x_prime
                        for x in x0s
                    ],
                    "roar": list(roar_recourse_batch(x0s, lam, nbhd, roar_cfg)),
                }
                for method, pts in recs.items():
                    acc = sums.setdefault((method, alpha, lam), [0.0, 0.0, 0])
                    acc[0] += validity(worst_case_shared_model(nbhd, pts), pts)
                    acc[1] += float(np.mean([np.abs(p - x).sum() for p, x in zip(pts, x0s)]))
                    acc[2] += 1
    assert len(res.rows) == len(sums) == 8
    for row in res.rows:
        v, c, n = sums[(row["method"], row["alpha"], row["lam"])]
        assert n == 2
        assert (row["validity"], row["mean_cost"]) == (v / n, c / n)


def _spy_batch(monkeypatch):
    """Records each ``optimal_robust_recourse_batch`` call the runners make."""
    calls = []

    def spy(x0s, lam, balls, *args, **kwargs):
        calls.append((np.array(x0s), np.array(lam), list(balls)))
        return solver.optimal_robust_recourse_batch(x0s, lam, balls, *args, **kwargs)

    monkeypatch.setattr(experiments, "optimal_robust_recourse_batch", spy)
    return calls


def _same_model(a, b):
    return a.weights.tobytes() == b.weights.tobytes() and a.intercept == b.intercept


def test_validity_study_solves_each_fold_in_one_batch(tmp_path, monkeypatch):
    # one stacked exact call per fold over every (cell, task) row; no one-row solve
    alphas, lams = (0.05, 0.2), (0.05, 0.1, 0.3)
    cfg = ExperimentConfig(n_points=40, k_folds=2, seed=3, validity_alphas=alphas,
                           validity_lambdas=lams, roar=RoarConfig(max_iters=50),
                           out_dir=str(tmp_path / "val"))
    calls = _spy_batch(monkeypatch)

    def refuse(*args):
        raise AssertionError("the validity study solved one row at a time")

    monkeypatch.setattr(experiments, "optimal_robust_recourse", refuse)
    run_validity_study(cfg)
    ds = generate_synthetic(SyntheticSpec(n_points=40, seed=3))
    plan = kfold(ds.n, 2, 3)
    cells = [(a, l) for a in alphas for l in lams]
    assert len(calls) == 2
    for fold, (x0s, lam, balls) in enumerate(calls):
        _, starts, bases = _prepare_fold(cfg, ds, plan, fold)
        assert x0s.tobytes() == np.tile(starts, (len(cells), 1)).tobytes()
        assert lam.tolist() == [l for _, l in cells for _ in bases]
        assert [b.alpha for b in balls] == [a for a, _ in cells for _ in bases]
        assert all(_same_model(b.base, bases[0]) for b in balls)


def test_select_lambda_solves_each_fold_in_one_batch(tmp_path, monkeypatch):
    # one stacked consistent solve per fold over every (lambda, task) row, and
    # the same choice as one consistent_recourse call per row
    grid = (0.6, 0.05, 0.2)
    cfg = ExperimentConfig(n_points=60, k_folds=3, seed=1, lambda_grid=grid,
                           beta_grid=(0.0, 1.0), roar=RoarConfig(max_iters=50),
                           out_dir=str(tmp_path / "out"))
    calls = _spy_batch(monkeypatch)
    res = run_tradeoff_study(cfg)
    ds = generate_synthetic(SyntheticSpec(n_points=60, seed=1))
    plan = kfold(ds.n, 3, 1)
    assert len(calls) == 3
    for fold, (x0s, lam, balls) in enumerate(calls):
        scorer, starts, bases = _prepare_fold(cfg, ds, plan, fold)
        assert x0s.tobytes() == np.tile(starts, (3, 1)).tobytes()
        assert lam.tolist() == [l for l in sorted(grid) for _ in bases]
        assert all(b.alpha == 0.0 and _same_model(b.base, base)
                   for b, base in zip(balls, bases * 3))
        best_lam, best_val = None, -1.0
        for l in sorted(grid):
            hits = sum(predict_label(scorer, consistent_recourse(RecourseQuery(x0=x0, lam=l),
                                                                 base).x_prime)
                       for x0, base in zip(starts, bases))
            if hits / len(bases) >= best_val:
                best_lam, best_val = l, hits / len(bases)
        assert res.extras["lambda_by_fold"][fold] == best_lam


def _reference_folds(cfg):
    """Each fold's (fold, dataset, plan, lam, tasks), as the runners prepare them.

    A task is one instance: its start ``x0`` and its ``base`` model.
    """
    ds = generate_synthetic(SyntheticSpec(n_points=cfg.n_points, seed=cfg.seed))
    plan = kfold(ds.n, cfg.k_folds, cfg.seed)
    for fold in range(plan.k):
        scorer, x0s, bases = _prepare_fold(cfg, ds, plan, fold)
        tasks = [SimpleNamespace(x0=x0, base=base) for x0, base in zip(x0s, bases)]
        yield fold, ds, plan, _select_lambda(scorer, x0s, bases, cfg.lambda_grid), tasks


def _add(sums, key, *values):
    acc = sums.setdefault(key, [0.0] * len(values) + [0])
    for i, v in enumerate(values):
        acc[i] += v
    acc[-1] += 1


def _check_tradeoff_rows_against_per_beta_reference(cfg):
    # one blended_recourse call per beta, with the metrics measured against
    # optima this reference solves itself
    res = run_tradeoff_study(cfg)
    sums = {}
    for _, _, _, lam, tasks in _reference_folds(cfg):
        for task in tasks:
            q = RecourseQuery(x0=task.x0, lam=lam)
            nbhd = Neighborhood(task.base, cfg.alpha)
            robust = optimal_robust_recourse(q, nbhd)
            x_roar = roar_recourse(q, nbhd, cfg.roar).x_prime
            for name, pred in generate_predictions(cfg.predictions, task.base, cfg.alpha):
                consistent = consistent_recourse(q, pred)
                for beta in cfg.beta_grid:
                    bp = blended_recourse(TradeoffQuery(q, nbhd, pred, beta))
                    _add(sums, ("blend", name, beta), robustness(q, nbhd, bp.x_prime, robust),
                         consistency(q, pred, bp.x_prime, consistent), bp.l1_cost)
                _add(sums, ("roar", name, 1.0), robustness(q, nbhd, x_roar, robust),
                     consistency(q, pred, x_roar, consistent), weighted_l1(q, x_roar))
    assert len(res.rows) == len(sums) == 5 * (len(cfg.beta_grid) + 1)
    for row in res.rows:
        r, c, cost, n = sums[(row["method"], row["prediction"], row["beta"])]
        assert (row["robustness"], row["consistency"], row["l1_cost"], row["n_instances"]) == (
            r / n, c / n, cost / n, n
        )


def test_tradeoff_study_matches_per_beta_reference(tmp_path):
    _check_tradeoff_rows_against_per_beta_reference(
        ExperimentConfig(
            n_points=60,
            k_folds=2,
            seed=4,
            lambda_grid=(0.05, 0.1),
            beta_grid=(0.0, 0.3, 0.7, 1.0),
            roar=RoarConfig(max_iters=200),
            out_dir=str(tmp_path / "pareto"),
        )
    )


def test_tradeoff_study_mlp_matches_per_beta_reference(tmp_path):
    _check_tradeoff_rows_against_per_beta_reference(
        ExperimentConfig(
            model_kind="mlp",
            mlp_weights=_write_mlp(tmp_path / "net.json"),
            n_points=40,
            k_folds=2,
            lambda_grid=(0.05, 0.1),
            beta_grid=(0.0, 0.5, 1.0),
            surrogate=SurrogateConfig(n_samples=80),
            roar=RoarConfig(max_iters=200),
            out_dir=str(tmp_path / "pareto"),
        )
    )


def test_smoothness_study_matches_per_beta_reference(tmp_path):
    cfg = ExperimentConfig(
        n_points=60,
        k_folds=2,
        seed=5,
        lambda_grid=(0.05, 0.1),
        beta_grid=(0.0, 0.4, 1.0),
        out_dir=str(tmp_path / "sm"),
    )
    res = run_smoothness_study(cfg)
    alpha = cfg.smoothness_alpha
    sums = {}
    for fold, ds, plan, lam, tasks in _reference_folds(cfg):
        correct_raw = _correct_prediction_models(cfg, ds, plan, fold)
        for task in tasks:
            q = RecourseQuery(x0=task.x0, lam=lam)
            nbhd = Neighborhood(task.base, alpha)
            correct = nbhd.clamp(correct_raw)
            best = consistent_recourse(q, correct).worst_case_total
            for name, pred in _epsilon_predictions(nbhd, correct, cfg.epsilon):
                for beta in cfg.beta_grid:
                    bp = blended_recourse(TradeoffQuery(q, nbhd, pred, beta))
                    _add(sums, (name, beta), eval_total_cost(q, bp.x_prime, correct) - best)
    assert len(res.rows) == len(sums) == 5 * 3
    for row in res.rows:
        total, n = sums[(row["prediction"], row["beta"])]
        assert (row["smoothness"], row["n_instances"]) == (total / n, n)


def _skipped_fold_cfg(tmp_path):
    """A 3-fold CSV study whose fold 0 has no undesirable test row."""
    # fold 0 holds only far-positive rows, so no test row is labeled undesirable there
    n, k = 18, 3
    folds = kfold(n, k, 0)
    rng = np.random.default_rng(8)
    lines = ["a,b,label"]
    for i in range(n):
        label = 1 if folds.assignment[i] == 0 or i % 2 else 0
        centre = 2.0 if label else -2.0
        a, b = centre + rng.normal(0.0, 0.3, 2)
        lines.append(f"{a:.6f},{b:.6f},{label}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ExperimentConfig(
        dataset=str(data),
        shifted_dataset=str(data),
        k_folds=k,
        lambda_grid=(0.1,),
        beta_grid=(0.0, 1.0),
        validity_alphas=(0.1,),
        validity_lambdas=(0.1,),
        roar=RoarConfig(max_iters=50),
        out_dir=str(tmp_path / "out"),
    )


def test_skipped_fold_is_logged(tmp_path, caplog):
    cfg = _skipped_fold_cfg(tmp_path)
    for runner in (run_tradeoff_study, run_smoothness_study, run_validity_study):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="robust_recourse"):
            res = runner(cfg)
        skipped = [r.getMessage() for r in caplog.records if r.name == "robust_recourse"]
        assert skipped == ["fold 0 has no undesirable instances; skipped"]
        assert res.rows
    lambdas = run_tradeoff_study(cfg).extras["lambda_by_fold"]
    assert len(lambdas) == cfg.k_folds - 1


@pytest.mark.parametrize("case", ["synthetic", "skipped-fold"])
def test_tradeoff_study_makes_one_roar_call(tmp_path, monkeypatch, case):
    # the ROAR baseline runs once per study, over every fold's rows in fold
    # order, each row with its fold's lambda and a ball around its own base
    if case == "synthetic":
        cfg = ExperimentConfig(n_points=60, k_folds=3, seed=1, lambda_grid=(0.05, 1.3, 1.4),
                               beta_grid=(0.0, 1.0), roar=RoarConfig(max_iters=50),
                               out_dir=str(tmp_path / "out"))
    else:
        cfg = _skipped_fold_cfg(tmp_path)
    calls = []

    def spy(x0s, lam, balls, *args, **kwargs):
        calls.append((np.array(x0s), np.array(lam), list(balls)))
        return roar_recourse_batch(x0s, lam, balls, *args, **kwargs)

    monkeypatch.setattr(experiments, "roar_recourse_batch", spy)
    res = run_tradeoff_study(cfg)
    ds = _load_base_dataset(cfg)
    plan = kfold(ds.n, cfg.k_folds, cfg.seed)
    starts, bases, lams, fold_lams = [], [], [], []
    for fold in range(plan.k):
        scorer, fold_x0s, fold_bases = _prepare_fold(cfg, ds, plan, fold)
        if fold_bases:
            fold_lams.append(_select_lambda(scorer, fold_x0s, fold_bases, cfg.lambda_grid))
            starts += list(fold_x0s)
            bases += fold_bases
            lams += [fold_lams[-1]] * len(fold_bases)
    assert res.extras["lambda_by_fold"] == fold_lams
    if case == "synthetic":
        assert len(set(fold_lams)) > 1  # the folds chose different lambdas
    assert len(calls) == 1
    x0s, lam, balls = calls[0]
    assert x0s.tobytes() == np.array(starts).tobytes()
    assert lam.tolist() == lams
    assert len(balls) == len(bases)
    for ball, base in zip(balls, bases):
        assert ball.alpha == cfg.alpha
        assert ball.base.weights.tobytes() == base.weights.tobytes()
        assert ball.base.intercept == base.intercept


def test_validity_study_rejects_mlp(tmp_path):
    cfg = ExperimentConfig(
        model_kind="mlp",
        mlp_weights=str(tmp_path / "net.json"),
        out_dir=str(tmp_path / "x"),
    )
    with pytest.raises(ConfigError, match="glm"):
        run_validity_study(cfg)


@pytest.mark.parametrize("study", ["pareto", "smoothness"])
def test_study_solves_each_optimum_once(tmp_path, monkeypatch, study):
    # besides lambda selection, a study solves each instance's robust plan
    # once and one consistent plan per (instance, model), as rows of the exact
    # loop that the tradeoff module runs; rows with alpha = 0 are the
    # consistent solves, and smoothness solves its correct model as one more
    cfg = ExperimentConfig(n_points=40, k_folds=2, seed=3, lambda_grid=(0.05, 0.1),
                           beta_grid=(0.0, 0.5, 1.0), roar=RoarConfig(max_iters=50),
                           out_dir=str(tmp_path / "out"))
    solves = {"robust": [], "consistent": []}
    greedy = tradeoff._greedy_rows

    def loop(rows, loss):
        for r in range(len(rows.x0)):
            key = (rows.x0[r].tobytes(), float(rows.lam[r, 0]))
            if rows.alpha[r, 0] == 0.0:
                model = (rows.base[r].tobytes(), float(rows.worst_b[r, 0]))
                solves["consistent"].append(key + model)
            else:
                solves["robust"].append(key)
        return greedy(rows, loss)

    def one_row(query, model):
        raise AssertionError("the study solved an optimum one row at a time")

    # lambda selection solves its consistent plans through the solver's own loop
    monkeypatch.setattr(tradeoff, "_greedy_rows", loop)
    for module in (experiments, tradeoff):
        monkeypatch.setattr(module, "optimal_robust_recourse", one_row)
    monkeypatch.setattr(tradeoff, "consistent_recourse", one_row)
    (run_tradeoff_study if study == "pareto" else run_smoothness_study)(cfg)
    monkeypatch.undo()

    instances, models = [], []
    for fold, ds, plan, lam, tasks in _reference_folds(cfg):
        correct_raw = _correct_prediction_models(cfg, ds, plan, fold)
        for t in tasks:
            instances.append((t.x0.tobytes(), lam))
            if study == "pareto":
                preds = [p for _, p in generate_predictions(cfg.predictions, t.base, cfg.alpha)]
            else:  # the five epsilon predictions, then the correct model
                nbhd = Neighborhood(t.base, cfg.smoothness_alpha)
                correct = nbhd.clamp(correct_raw)
                preds = [p for _, p in _epsilon_predictions(nbhd, correct, cfg.epsilon)]
                preds.append(correct)
            models += [(t.x0.tobytes(), lam, p.weights.tobytes(), p.intercept) for p in preds]
    assert len(set(instances)) == len(instances) > 0
    assert sorted(solves["robust"]) == sorted(instances)
    assert sorted(solves["consistent"]) == sorted(models)
    assert len(models) == len(instances) * (5 if study == "pareto" else 6)


# -------------------------------------------------------------- mlp path


def _write_mlp(path, bias=(0.0, 0.0), inputs=2):
    net = MlpWeights(
        layers=[
            (np.array([[1.0] * inputs, [-1.0] * inputs]), np.asarray(bias, dtype=float)),
            (np.array([[2.0, -2.0]]), np.array([0.0])),
        ]
    )
    path.write_text(net.to_json(), encoding="utf-8")
    return str(path)


def test_tradeoff_study_mlp(tmp_path):
    cfg = ExperimentConfig(
        model_kind="mlp",
        mlp_weights=_write_mlp(tmp_path / "net.json"),
        n_points=80,
        k_folds=2,
        lambda_grid=(0.05,),
        beta_grid=(0.0, 1.0),
        surrogate=SurrogateConfig(n_samples=80),
        out_dir=str(tmp_path / "mlp"),
    )
    res = run_tradeoff_study(cfg)
    assert res.rows
    for row in res.rows:
        if row["method"] == "blend" and row["beta"] == 1.0:
            assert abs(row["robustness"]) <= 1e-3
    assert "mlp" in os.path.basename(res.csv_path)


def test_smoothness_mlp_needs_shifted_weights(tmp_path):
    cfg = ExperimentConfig(
        model_kind="mlp",
        mlp_weights=_write_mlp(tmp_path / "net.json"),
        n_points=60,
        k_folds=2,
        out_dir=str(tmp_path / "mlpsm"),
    )
    with pytest.raises(ConfigError, match="mlp_weights_shifted"):
        run_smoothness_study(cfg)


def test_smoothness_mlp_with_shifted_weights(tmp_path):
    cfg = ExperimentConfig(
        model_kind="mlp",
        mlp_weights=_write_mlp(tmp_path / "net.json"),
        mlp_weights_shifted=_write_mlp(tmp_path / "shifted.json", bias=(0.3, -0.3)),
        n_points=60,
        k_folds=2,
        lambda_grid=(0.05,),
        beta_grid=(0.0, 1.0),
        surrogate=SurrogateConfig(n_samples=80),
        out_dir=str(tmp_path / "mlpsm2"),
    )
    res = run_smoothness_study(cfg)
    assert len(res.rows) == 5 * 2
    assert all(r["smoothness"] >= -1e-9 for r in res.rows)


def test_smoothness_study_mlp_matches_per_beta_reference(tmp_path):
    # The reference fits every surrogate itself: an instance's base model is
    # seeded by (fold, test row) and its correct model by (fold, task, 7).
    cfg = ExperimentConfig(
        model_kind="mlp",
        mlp_weights=_write_mlp(tmp_path / "net.json"),
        mlp_weights_shifted=_write_mlp(tmp_path / "shifted.json", bias=(0.3, -0.3)),
        n_points=40,
        k_folds=2,
        lambda_grid=(0.05, 0.1),
        beta_grid=(0.0, 0.5, 1.0),
        surrogate=SurrogateConfig(n_samples=80),
        out_dir=str(tmp_path / "sm"),
    )
    res = run_smoothness_study(cfg)
    net, shifted = (MlpScorer(MlpWeights.from_json((tmp_path / name).read_text(encoding="utf-8")))
                    for name in ("net.json", "shifted.json"))

    def surrogate(scorer, x, *parts):
        seeded = dataclasses.replace(cfg.surrogate, seed=_derived_seed(cfg.seed, *parts))
        return fit_local_linear(scorer, x, seeded)

    ds = generate_synthetic(SyntheticSpec(n_points=cfg.n_points, seed=cfg.seed))
    plan = kfold(ds.n, cfg.k_folds, cfg.seed)
    sums = {}
    for fold in range(plan.k):
        tasks = [SimpleNamespace(x0=x, base=surrogate(net, x, fold, i))
                 for i, x in enumerate(ds.features[plan.test_indices(fold)])
                 if predict_label(net, x) == 0]
        assert tasks
        lam = _select_lambda(net, np.array([t.x0 for t in tasks]), [t.base for t in tasks],
                             cfg.lambda_grid)
        for t, task in enumerate(tasks):
            q = RecourseQuery(x0=task.x0, lam=lam)
            nbhd = Neighborhood(task.base, cfg.smoothness_alpha)
            correct = nbhd.clamp(surrogate(shifted, task.x0, fold, t, 7))
            best = consistent_recourse(q, correct).worst_case_total
            for name, pred in _epsilon_predictions(nbhd, correct, cfg.epsilon):
                for beta in cfg.beta_grid:
                    bp = blended_recourse(TradeoffQuery(q, nbhd, pred, beta))
                    _add(sums, (name, beta), eval_total_cost(q, bp.x_prime, correct) - best)
    assert len(res.rows) == len(sums) == 5 * 3
    for row in res.rows:
        total, n = sums[(row["prediction"], row["beta"])]
        assert (row["smoothness"], row["n_instances"]) == (total / n, n)


# ------------------------------------------------------------------- cli


def test_cli_recourse_worked_instance(capsys):
    code = main(
        [
            "recourse",
            "--theta",
            "1.0",
            "--x0",
            "0.0",
            "--alpha",
            "0.5",
            "--lam",
            "0.1",
            "--fixed-intercept",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x_prime"][0] == pytest.approx(2.772588722239781, abs=1e-9)
    assert payload["worst_case_total"] == pytest.approx(0.5004024235381879, abs=1e-9)


def test_cli_recourse_immutable_and_out(tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = main(
        [
            "recourse",
            "--theta",
            "1.0,1.0",
            "--x0",
            "0.0,0.0",
            "--immutable",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["x_prime"][0] == 0.0
    capsys.readouterr()


def test_cli_recourse_bad_immutable_index(capsys):
    code = main(["recourse", "--theta", "1.0", "--x0", "0.0", "--immutable", "4"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_missing_config_exits_2(tmp_path, capsys):
    code = main(["pareto", "--config", str(tmp_path / "missing.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


# MLP weights files that are not a network, by the name a config gives them;
# a file whose text is None is not written
_BAD_MLP_FILES = {
    "not-json.json": "not json\n",
    "bad-shapes.json": json.dumps({"layers": [{"w": [[1, 2]], "b": [0, 0]}]}),
    "no-layers.json": json.dumps({"net": []}),
    "missing.json": None,
}


@pytest.mark.parametrize(
    "argv, config",
    [
        (["recourse", "--theta", "1,2", "--x0", "1"], None),
        (["recourse", "--theta", "1", "--x0", "1", "--lam", "-0.5"], None),
        (["recourse", "--theta", "1,nan", "--x0", "1,1"], None),
        (["recourse", "--theta", "1", "--x0", "1", "--lam", "nan"], None),
        (["recourse", "--theta", "1", "--x0", "1", "--alpha", "inf"], None),
        (["validity"], {"n_points": 1}),
        (["pareto"], {"lambda_grid": [0.1, -0.2]}),
        (["pareto"], {"beta_grid": [0.0, 0.5, 0.5, 1.0]}),
        (["pareto"], {"roar": {"learning_rate": 0}}),
        (["pareto"], {"roar": {"learning_rate": float("nan")}}),
        (["pareto"], {"roar": {"max_iters": 1.5}}),
        (["pareto"], {"surrogate": {"ridge": -1}}),
        (["pareto"], {"k_folds": 2.5, "n_points": 40}),
        (["pareto"], {"n_points": 40.5}),
        (["pareto"], {"seed": 1.5, "n_points": 40}),
        (["pareto"], {"n_points": True}),
        (["pareto"], {"roar": 5}),
        (["pareto"], {"surrogate": [64]}),
        (["pareto"], {"predictions": "corner"}),
        (["pareto"], {"predictions": [{"intercept": 0}]}),
        (["pareto"], {"predictions": [[1.0, 2.0]]}),
        (["pareto"], {"predictions": [{"weights": ["a", "b"]}]}),
        (["pareto"], {"predictions": [{"weights": "12"}]}),
        (["pareto"], {"n_points": 40, "k_folds": 2, "predictions": [{"weights": [1.0]}]}),
        (["smoothness"], {"predictions": [{"weights": [1.0, 1.0], "epsilon": 0.01}]}),
        (["smoothness"], {"predictions": {"mode": "epsilon"}}),
        (["pareto"], {"predictions": [{"mode": "epsilon"}]}),
        (["pareto"], {"predictions": [{"weights": [True, False]}]}),
        (["pareto"], {"predictions": [{"weights": [1.0, 1.0], "intercept": True}]}),
        (["pareto"], {"predictions": [{"weights": []}]}),
        (["pareto"], {"predictions": [{"weights": [float("nan"), 1.0]}]}),
        (["pareto"], {"n_points": 40, "k_folds": 2, "predictions": [{"weights": [9, 9]}]}),
        (["pareto"], {"prediction": {"mode": "corner", "explicit": [{"weights": [9, 9]}]}}),
        (["smoothness"], {"epsilon": "abc"}),
        (["smoothness"], {"epsilon": float("nan")}),
        (["smoothness"], {"epsilon": 1e308}),
        (["smoothness"], {"epsilon": -0.2}),
        (["smoothness"], {"smoothness_shift": "x"}),
        (["smoothness"], {"smoothness_shift": float("nan")}),
        (["pareto"], {"beta_grid": 5}),
        (["pareto"], {"lambda_grid": None}),
        (["pareto"], {"beta_grid": [True, False]}),
        (["pareto"], {"dataset": 5}),
        (["pareto"], {"model_kind": "mlp", "mlp_weights": 5}),
        (["smoothness"], {"shifted_dataset": 5}),
        (["smoothness"], {"dataset": "data.csv", "k_folds": 2}),
        (["pareto"], {"out_dir": ["o"]}),
        (["pareto"], {"alpha": True}),
        (["smoothness"], {"smoothness_alpha": True}),
        (["pareto"], {"surrogate": {"seed": 3}}),
        (["pareto"], {"surrogate": {"n_samples": "x"}}),
        (["pareto"], {"surrogate": {"n_samples": 2.5}}),
        (["pareto"], {"surrogate": {"n_samples": 0}}),
        (["pareto"], {"surrogate": {"stddev": float("nan")}}),
        (["pareto"], {"surrogate": {"stddev": "x"}}),
        (["pareto"], {"surrogate": {"ridge": float("nan")}}),
        (["pareto"], {"surrogate": {"width": float("nan")}}),
        (["pareto"], {"surrogate": {"ridge": True}}),
        (["pareto"], {"surrogate": {"width": True}}),
        (["pareto"], {"roar": {"learning_rate": True}}),
        (["pareto"], {"roar": {"tolerance": False}}),
        (["pareto"], {"roar": {"tolerance": "1"}}),
        (
            ["pareto"],
            {"model_kind": "mlp", "mlp_weights": "net.json", "surrogate": {"n_samples": 2},
             "n_points": 40, "k_folds": 2},
        ),
        (
            ["smoothness"],
            {"model_kind": "mlp", "mlp_weights": "net.json", "mlp_weights_shifted": "net.json",
             "surrogate": {"n_samples": 2}, "n_points": 40, "k_folds": 2},
        ),
        (["pareto"], {"model_kind": "mlp", "mlp_weights": "net3.json", "n_points": 40,
                      "k_folds": 2}),
        (
            ["smoothness"],
            {"model_kind": "mlp", "mlp_weights": "net.json", "mlp_weights_shifted": "net3.json",
             "n_points": 40, "k_folds": 2},
        ),
        (["smoothness"], {"smoothness_shift": 1e308, "n_points": 40, "k_folds": 2}),
        (["pareto"], {"model_kind": "mlp", "mlp_weights": "not-json.json"}),
        (["pareto"], {"model_kind": "mlp", "mlp_weights": "bad-shapes.json"}),
        (["pareto"], {"model_kind": "mlp", "mlp_weights": "no-layers.json"}),
        (["pareto"], {"model_kind": "mlp", "mlp_weights": "missing.json"}),
        (
            ["smoothness"],
            {"model_kind": "mlp", "mlp_weights": "net.json", "mlp_weights_shifted": "net.json",
             "surrogate": {"stddev": 0}, "n_points": 40, "k_folds": 2},
        ),
        (
            ["pareto"],
            {"model_kind": "mlp", "mlp_weights": "net.json", "surrogate": {"width": 1e-300},
             "n_points": 40, "k_folds": 2},
        ),
        (["gen-data", "--n", "1"], None),
        (["gen-data", "--n", "10", "--shift", "nan"], None),
        (["gen-data", "--n", "10", "--shift", "inf"], None),
        (["gen-data", "--seed", "-1"], None),
        (["oracle-check", "--n", "-1"], None),
        (["oracle-check", "--n", "0"], None),
        (["oracle-check", "--seed", "-1"], None),
    ],
    ids=[
        "theta-x0-lengths", "negative-lam", "nan-theta", "nan-lam", "inf-alpha", "one-point",
        "negative-lambda", "duplicate-beta", "roar-zero-rate", "roar-nan-rate",
        "roar-fractional-iters", "surrogate-negative-ridge", "fractional-folds",
        "fractional-points", "fractional-seed", "bool-points", "roar-not-object",
        "surrogate-not-object", "prediction-not-object", "explicit-without-weights",
        "explicit-not-object", "explicit-text-weights", "explicit-string-weights",
        "explicit-wrong-dimension",
        "prediction-epsilon", "smoothness-epsilon-mode", "pareto-epsilon-mode",
        "predictions-bool-weights", "predictions-bool-intercept", "predictions-no-weights",
        "predictions-nan-weight", "predictions-outside-ball", "old-prediction-key", "epsilon-text",
        "epsilon-nan", "epsilon-overflow", "epsilon-negative", "shift-text", "shift-nan",
        "beta-grid-number", "lambda-grid-null", "beta-grid-bools", "dataset-number",
        "mlp-weights-number", "shifted-dataset-number", "csv-without-shifted-dataset",
        "out-dir-list", "alpha-bool",
        "smoothness-alpha-bool", "surrogate-seed", "surrogate-text-samples",
        "surrogate-fractional-samples", "surrogate-zero-samples", "surrogate-nan-stddev",
        "surrogate-text-stddev", "surrogate-nan-ridge", "surrogate-nan-width",
        "surrogate-bool-ridge", "surrogate-bool-width", "roar-bool-rate", "roar-bool-tolerance",
        "roar-text-tolerance",
        "pareto-mlp-samples-below-features", "smoothness-mlp-samples-below-features",
        "mlp-weights-width", "mlp-weights-shifted-width", "shift-overflows-training",
        "mlp-weights-not-json", "mlp-weights-bad-shapes", "mlp-weights-no-layers",
        "mlp-weights-missing",
        "surrogate-zero-stddev", "surrogate-vanishing-width",
        "gen-data-one-point",
        "gen-data-nan-shift",
        "gen-data-inf-shift",
        "gen-data-negative-seed",
        "oracle-negative-n", "oracle-zero-n", "oracle-negative-seed",
    ],
)
def test_cli_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, config):
    if config is not None:
        for key in ("mlp_weights", "mlp_weights_shifted"):
            name = config.get(key)
            if name in ("net.json", "net3.json"):
                path = _write_mlp(tmp_path / name, inputs=3 if name == "net3.json" else 2)
                config = dict(config, **{key: path})
            elif name in _BAD_MLP_FILES:
                if _BAD_MLP_FILES[name] is not None:
                    (tmp_path / name).write_text(_BAD_MLP_FILES[name], encoding="utf-8")
                config = dict(config, **{key: str(tmp_path / name)})
        if config.get("dataset") == "data.csv":
            ds = generate_synthetic(SyntheticSpec(n_points=40, seed=0))
            rows = [f"{a},{b},{y}" for (a, b), y in zip(ds.features, ds.labels)]
            (tmp_path / "data.csv").write_text("\n".join(["a,b,label", *rows]) + "\n",
                                               encoding="utf-8")
            config = dict(config, dataset=str(tmp_path / "data.csv"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: ")
    # every case but the old prediction key is refused for a value, not a key
    if config is not None and "prediction" not in config:
        assert "unknown config keys" not in captured.err


@pytest.mark.parametrize(
    "data",
    [
        "not json\n",
        "[1, 2]\n",
        json.dumps({"features": [[0.0, 1.0], [1.0, 0.0]], "labels": [1, 1]}),
        json.dumps({"features": [[], [], [], []], "labels": [0, 1, 0, 1]}),
        None,
        json.dumps({"features": [[0.0], [1.0]], "labels": [0.7, 1]}),
        json.dumps({"features": [[0.0], [1.0]], "labels": [0, 1.5]}),
        json.dumps({"features": [[0.0], [1.0]], "labels": ["1", 0]}),
    ],
    ids=["train-not-json", "train-not-a-dataset", "train-single-class", "train-no-columns",
         "train-missing-file", "train-fractional-label", "train-label-above-1",
         "train-string-label"],
)
def test_cli_bad_data_exits_3_with_one_line(tmp_path, capsys, data):
    path = tmp_path / "data.json"
    if data is not None:  # else the file does not exist
        path.write_text(data, encoding="utf-8")
    assert main(["train", "--data", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("data error: ")


def test_cli_gen_data_train_round_trip(tmp_path, capsys):
    data = tmp_path / "data.json"
    assert main(["gen-data", "--n", "300", "--seed", "3", "--out", str(data)]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--out", str(model)]) == 0
    params = json.loads(model.read_text(encoding="utf-8"))
    assert all(w > 0 for w in params["weights"])  # boundary separates the two blobs
    capsys.readouterr()


def test_cli_oracle_check_small(capsys):
    code = main(["oracle-check", "--n", "5", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] == 5
    worst = payload["worst_instance"]
    assert set(worst) == {"d", "alpha", "lam", "weights", "intercept", "x0"}
    assert len(worst["weights"]) == len(worst["x0"]) == worst["d"]
    # the printed parameters rebuild an instance the solver and oracle agree on
    q = RecourseQuery(x0=np.array(worst["x0"]), lam=worst["lam"])
    theta = ModelParams(weights=np.array(worst["weights"]), intercept=worst["intercept"])
    nbhd = Neighborhood(theta, worst["alpha"])
    _, val = minimax_oracle(q, nbhd, GridSpec(refine_levels=4))
    assert abs(optimal_robust_recourse(q, nbhd).worst_case_total - val) <= 1e-6


def test_cli_usage_errors(capsys):
    # argparse's own errors, like every other bad input, are one stderr line
    for argv in (["no-such-command"], [], ["recourse", "--theta", "a,b", "--x0", "0.0"],
                 ["recourse", "--theta", "1,1", "--x0", "0,0", "--immutable", "1,x"],
                 ["pareto", "--seed", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1, argv
        assert captured.err.startswith("usage error: ")
    # the module's own entry point, with no subcommand
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(experiments.__file__)), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "robust_recourse.cli"], capture_output=True,
                         text=True, env=env, timeout=60)
    assert run.returncode == 2
    assert run.stderr == "usage error: the following arguments are required: command\n"


def test_cli_study_without_undesirable_instances_exits_2(tmp_path, capsys, monkeypatch):
    # every test row labeled desirable: no fold has an instance to average
    monkeypatch.setattr(experiments, "predict_label", lambda scorer, x: 1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_points": 40, "k_folds": 2}), encoding="utf-8")
    assert main(["pareto", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: no fold produced undesirable instances\n"


def test_cli_validity_mlp_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"model_kind": "mlp", "mlp_weights": _write_mlp(tmp_path / "net.json")}),
        encoding="utf-8",
    )
    code = main(["validity", "--config", str(cfg_path)])
    assert code == 2
    assert "glm" in capsys.readouterr().err


def test_cli_validity_runs_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "n_points": 80,
                "k_folds": 2,
                "lambda_grid": [0.05],
                "validity_alphas": [0.05],
                "validity_lambdas": [0.05, 0.1],
            }
        ),
        encoding="utf-8",
    )
    out_dir = tmp_path / "cli_out"
    code = main(["validity", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "2"])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert os.path.exists(out_dir / "validity" / "synthetic_glm.csv")


@pytest.mark.parametrize("series, message", [
    ([("a", [0.0, 1.0], [0.0, math.inf])], "must be finite"),
    ([("a", [math.nan, 1.0], [0.0, 1.0])], "must be finite"),
    ([], "at least one series"),
    ([("a", [], []), ("b", [], [])], "no points"),
])
def test_line_chart_refuses_what_it_cannot_draw(tmp_path, series, message):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match=message):
        line_chart(str(path), series, title="t", x_label="x", y_label="y")
    assert not path.exists()


# ----------------------------------------------------------- certification


def test_oracle_check_smoke():
    report = oracle_check(n_instances=6, seed=5)
    assert report.all_pass
    assert report.n_instances == 6
    assert report.max_over <= 1e-2
    assert report.max_under <= 1e-9
    assert report.elapsed_s > 0.0
