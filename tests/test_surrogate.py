import numpy as np
import pytest

from robust_recourse.glm import ModelParams, score
from robust_recourse.models import GlmScorer, MlpScorer, MlpWeights, TrainingDataError
from robust_recourse.surrogate import SurrogateConfig, fit_local_linear


class _ConstantHalf:
    def probability(self, x):
        return 0.5


def test_recovers_linear_model():
    true = ModelParams(weights=np.array([0.8, -0.4]), intercept=0.3)
    got = fit_local_linear(GlmScorer(true), np.array([0.5, -1.0]), SurrogateConfig(n_samples=5000))
    np.testing.assert_allclose(got.weights, true.weights, atol=1e-2)
    assert got.intercept == pytest.approx(0.3, abs=1e-2)


def test_constant_scorer_gives_zero_model():
    got = fit_local_linear(_ConstantHalf(), np.zeros(2), SurrogateConfig(n_samples=200))
    assert np.abs(got.weights).max() <= 1e-6
    assert abs(got.intercept) <= 1e-6


def test_seed_determinism():
    true = ModelParams(weights=np.array([1.0]), intercept=0.0)
    a = fit_local_linear(GlmScorer(true), np.array([0.2]), SurrogateConfig(seed=7))
    b = fit_local_linear(GlmScorer(true), np.array([0.2]), SurrogateConfig(seed=7))
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept
    c = fit_local_linear(GlmScorer(true), np.array([0.2]), SurrogateConfig(seed=8))
    assert c.weights[0] != a.weights[0]
    assert c.weights[0] == pytest.approx(a.weights[0], abs=0.2)


def test_degenerate_design_errors():
    with pytest.raises(TrainingDataError):
        fit_local_linear(_ConstantHalf(), np.zeros(2), SurrogateConfig(n_samples=50, stddev=0.0))


def test_too_few_samples_errors():
    with pytest.raises(ValueError):
        fit_local_linear(_ConstantHalf(), np.zeros(3), SurrogateConfig(n_samples=3))


def test_config_validation():
    with pytest.raises(ValueError):
        SurrogateConfig(width=0.0)
    with pytest.raises(ValueError):
        SurrogateConfig(ridge=-1.0)
    # a number is never a boolean or a string
    for kw in (dict(ridge=True), dict(width=True), dict(stddev="1"), dict(n_samples=10.0)):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be"):
            SurrogateConfig(**kw)


def _mean_abs_prob_error(scorer, params, x0, rng):
    pts = x0 + 0.3 * rng.standard_normal((200, x0.size))
    errs = [abs(scorer.probability(p) - GlmScorer(params).probability(p)) for p in pts]
    return float(np.mean(errs))


def test_fits_linear_scorer_better_than_curved_one():
    rng = np.random.default_rng(40)
    x0 = np.array([0.3, -0.2])
    lin = GlmScorer(ModelParams(weights=np.array([0.9, 0.5]), intercept=-0.1))
    mlp = MlpScorer(
        MlpWeights(
            layers=[
                (np.array([[1.5, -0.7], [0.4, 1.2], [-1.0, 0.8]]), np.array([0.1, -0.3, 0.2])),
                (np.array([[0.9, -1.1, 0.6]]), np.array([0.05])),
            ]
        )
    )
    cfg = SurrogateConfig(n_samples=3000, stddev=0.5)
    err_lin = _mean_abs_prob_error(lin, fit_local_linear(lin, x0, cfg), x0, rng)
    err_mlp = _mean_abs_prob_error(mlp, fit_local_linear(mlp, x0, cfg), x0, rng)
    assert err_lin <= err_mlp
    assert err_lin < 1e-3
    assert err_mlp < 0.1  # still a usable local fit


def test_surrogate_scores_track_black_box_locally():
    mlp = MlpScorer(
        MlpWeights(
            layers=[
                (np.array([[1.0, 0.5], [-0.5, 1.0]]), np.array([0.0, 0.1])),
                (np.array([[1.2, -0.8]]), np.array([0.2])),
            ]
        )
    )
    x0 = np.array([0.1, 0.4])
    params = fit_local_linear(mlp, x0, SurrogateConfig(n_samples=4000, stddev=0.3))
    # at the fit center the surrogate probability is close to the black box
    p_hat = 1.0 / (1.0 + np.exp(-score(params, x0)))
    assert p_hat == pytest.approx(mlp.probability(x0), abs=0.05)
