import json

import numpy as np
import pytest

from robust_recourse import experiments
from robust_recourse.data import SyntheticSpec, generate_synthetic, kfold
from robust_recourse.experiments import (
    ExperimentConfig,
    _correct_prediction_models,
    _load_base_dataset,
    _prepare_fold,
)
from robust_recourse.glm import ModelParams, score, sigmoid
from robust_recourse import models
from robust_recourse.models import (
    GlmScorer,
    MlpScorer,
    MlpWeights,
    TrainingDataError,
    fit_logistic,
    mlp_forward,
    predict_label,
    train_logistic,
)


def _repeated(points, labels, times=50):
    feats = np.tile(np.asarray(points, dtype=float), (times, 1))
    labs = np.tile(np.asarray(labels), times)
    return feats, labs


def test_train_logistic_separating_signs():
    feats, labs = _repeated([[-1.0], [1.0]], [0, 1])
    params = train_logistic(feats, labs)
    assert params.weights[0] > 0
    feats, labs = _repeated([[-1.0], [1.0]], [1, 0])
    assert train_logistic(feats, labs).weights[0] < 0


def test_train_logistic_errors():
    with pytest.raises(TrainingDataError):
        train_logistic(np.array([[1.0], [2.0]]), np.array([1, 1]))
    with pytest.raises(TrainingDataError):
        train_logistic(np.array([[np.nan], [2.0]]), np.array([0, 1]))
    with pytest.raises(TrainingDataError, match="3 rows of features but 2 labels"):
        train_logistic(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1]))


def test_fit_logistic_reads_1d_features_as_one_column():
    feats, labs = _repeated([[-1.0], [1.0], [0.5]], [0, 1, 0], times=3)
    params, losses = fit_logistic(feats[:, 0], labs)
    column, column_losses = fit_logistic(feats, labs)
    assert np.array_equal(params.weights, column.weights)
    assert params.intercept == column.intercept
    assert np.array_equal(losses, column_losses)


def test_train_logistic_synthetic_accuracy():
    ds = generate_synthetic(SyntheticSpec(n_points=600, seed=5))
    params = train_logistic(ds.features, ds.labels)
    preds = (ds.features @ params.weights + params.intercept >= 0).astype(int)
    assert (preds == ds.labels).mean() >= 0.95


def test_fit_logistic_overflow_is_training_data_error():
    # finite features whose gradient sums overflow a float
    feats = np.array([[1e308, 1e308], [9e307, 1e308], [-1e308, 5e307], [-9e307, -1e308]])
    with pytest.raises(TrainingDataError, match="overflow"):
        fit_logistic(feats, np.array([1, 1, 0, 0]))


def _penalised_gradient(features, labels, params):
    xb = np.hstack([features, np.ones((len(labels), 1))])
    theta = np.append(params.weights, params.intercept)
    grad = xb.T @ (sigmoid(xb @ theta) - labels) / len(labels)
    grad[:-1] += models.L2_PENALTY * params.weights
    return grad


def test_fit_logistic_loss_monotone():
    ds = generate_synthetic(SyntheticSpec(n_points=200, seed=6))
    params, losses = fit_logistic(ds.features, ds.labels)
    assert np.abs(_penalised_gradient(ds.features, ds.labels, params)).max() <= models.TOLERANCE
    assert (np.diff(losses) <= 1e-12).all()


def test_fit_logistic_halves_a_step_that_raises_the_loss(monkeypatch):
    # on these separable points the eighth full Newton step overshoots
    feats = np.array([[1.0, -1.0], [1.0, 2.0], [2.0, -3.0], [-2.0, 0.0], [0.0, 3.0]])
    labs = np.array([1, 1, 1, 0, 0])
    evaluated = []
    loss = models._mean_bce_loss
    monkeypatch.setattr(models, "_mean_bce_loss", lambda *a: evaluated.append(1) or loss(*a))
    _, losses = fit_logistic(feats, labs)
    assert len(evaluated) > losses.size  # a rejected candidate costs one more evaluation
    assert (np.diff(losses) <= 1e-12).all()


def test_fit_logistic_converges_on_every_acceptance_fixture_fold(monkeypatch):
    # pareto and validity fit the same base models at n=400; smoothness fits
    # its base models and its shifted correct-prediction models at n=200
    grads = []

    def spy(features, labels):
        params, _ = fit_logistic(features, labels)
        grads.append(np.abs(_penalised_gradient(features, labels, params)).max())
        return params

    monkeypatch.setattr(experiments, "train_logistic", spy)
    for n_points in (400, 200):
        cfg = ExperimentConfig(n_points=n_points, k_folds=5)
        ds = _load_base_dataset(cfg)
        plan = kfold(ds.n, cfg.k_folds, cfg.seed)
        for fold in range(plan.k):
            _prepare_fold(cfg, ds, plan, fold)
            if n_points == 200:
                _correct_prediction_models(cfg, ds, plan, fold)
    assert len(grads) == 15
    assert max(grads) <= models.TOLERANCE


def test_fit_logistic_fuzz_raises_only_training_data_errors(monkeypatch):
    # on huge features every p(1 - p) can round to 0, which leaves the Hessian
    # singular; the first case does that, and the step falls back to the gradient
    solve, singular = np.linalg.solve, []

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    rng = np.random.default_rng(23)
    cases = [(np.array([[-2.0, -1.0], [-1.0, -2.0]]) * 1e6, np.array([0, 1]))]
    for _ in range(400):
        n, d = rng.integers(2, 12), rng.integers(1, 4)
        feats = rng.integers(-3, 4, (n, d)) * 10.0 ** rng.uniform(-3, 6)
        cases.append((feats, rng.integers(0, 2, n)))
    for feats, labs in cases:
        try:
            _, losses = fit_logistic(feats, labs)
        except TrainingDataError:
            continue
        assert (np.diff(losses) <= 1e-12).all()
    assert singular


@pytest.mark.parametrize("labels", [[-1, 1, -1, 1], [0, 2, 0, 2], [0, 0.7, 0, 1]])
def test_fit_logistic_refuses_labels_other_than_0_and_1(labels):
    with pytest.raises(TrainingDataError, match="labels must be 0 or 1"):
        fit_logistic(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array(labels))


def test_fit_logistic_stops_once_the_gradient_is_within_tolerance():
    # the start point is already stationary: every gradient component is 0
    params, losses = fit_logistic(np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.array([1, 1, 0, 0]))
    assert losses.tolist() == [np.log(2.0)]
    assert params.weights.tolist() == [0.0] and params.intercept == 0.0


def test_mlp_forward_hand_values():
    single = MlpWeights(layers=((np.array([[1.0]]), np.array([0.0])),))
    assert mlp_forward(single, np.array([2.0])) == pytest.approx(0.8807970779778823)

    zeros = MlpWeights(
        layers=(
            (np.zeros((3, 2)), np.zeros(3)),
            (np.zeros((1, 3)), np.zeros(1)),
        )
    )
    assert mlp_forward(zeros, np.array([5.0, -3.0])) == 0.5

    two = MlpWeights(
        layers=(
            (np.array([[1.0], [-1.0]]), np.zeros(2)),
            (np.array([[1.0, 1.0]]), np.zeros(1)),
        )
    )
    assert mlp_forward(two, np.array([3.0])) == pytest.approx(0.9525741268224334)


def test_mlp_forward_shape_error_names_layer():
    w = MlpWeights(layers=((np.array([[1.0, 2.0]]), np.array([0.0])),))
    with pytest.raises(ValueError, match="layer 0"):
        mlp_forward(w, np.array([1.0]))


def test_mlp_single_layer_matches_glm():
    rng = np.random.default_rng(7)
    weights = rng.uniform(-2, 2, 4)
    bias = float(rng.uniform(-1, 1))
    mlp = MlpWeights(layers=((weights[None, :], np.array([bias])),))
    params = ModelParams(weights=weights, intercept=bias)
    for _ in range(20):
        x = rng.uniform(-3, 3, 4)
        assert mlp_forward(mlp, x) == pytest.approx(sigmoid(score(params, x)), abs=1e-12)


def test_mlp_weights_validation_and_json():
    with pytest.raises(ValueError, match="at least one layer"):
        MlpWeights(())
    with pytest.raises(ValueError):
        MlpWeights(layers=((np.array([[1.0, 2.0]]), np.array([0.0, 0.0])),))
    with pytest.raises(ValueError):  # chained dims broken
        MlpWeights(
            layers=(
                (np.ones((3, 2)), np.zeros(3)),
                (np.ones((1, 4)), np.zeros(1)),
            )
        )
    with pytest.raises(ValueError):  # final output not 1
        MlpWeights(layers=((np.ones((2, 2)), np.zeros(2)),))
    w = MlpWeights(
        layers=(
            (np.array([[1.0, 0.5], [-0.5, 2.0]]), np.array([0.1, -0.2])),
            (np.array([[1.0, -1.0]]), np.array([0.3])),
        )
    )
    back = MlpWeights.from_json(w.to_json())
    assert json.loads(back.to_json()) == json.loads(w.to_json())


def test_predict_label_threshold_and_rescaling():
    scorer = GlmScorer(ModelParams(weights=np.array([1.0])))
    assert predict_label(scorer, np.array([0.0])) == 1  # tie goes to desirable
    assert predict_label(scorer, np.array([-1.0])) == 0
    assert predict_label(scorer, np.array([1.0])) == 1

    rng = np.random.default_rng(8)
    params = ModelParams(weights=np.array([0.7, -1.2]), intercept=0.4)
    scaled = ModelParams(weights=params.weights * 3.5, intercept=params.intercept * 3.5)
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        assert predict_label(GlmScorer(params), x) == predict_label(GlmScorer(scaled), x)


def test_scorer_outputs_probabilities():
    rng = np.random.default_rng(9)
    g = GlmScorer(ModelParams(weights=np.array([2.0, -1.0]), intercept=0.1))
    m = MlpScorer(
        MlpWeights(
            layers=(
                (rng.uniform(-1, 1, (4, 2)), rng.uniform(-1, 1, 4)),
                (rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, 1)),
            )
        )
    )
    for _ in range(30):
        x = rng.uniform(-5, 5, 2)
        assert 0.0 <= g.probability(x) <= 1.0
        assert 0.0 < m.probability(x) < 1.0
