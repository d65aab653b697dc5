import numpy as np
import pytest

from robust_recourse.glm import ModelParams, score
from robust_recourse.models import GlmScorer, MlpScorer, MlpWeights, TrainingDataError, mlp_forward
from robust_recourse.surrogate import SurrogateConfig, fit_local_linear


class _ConstantHalf:
    def probability(self, x):
        return np.full(len(x), 0.5)


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


class _Counting:
    """Wraps a scorer and records the shape of every stack it is asked to score."""

    def __init__(self, inner):
        self.inner, self.shapes = inner, []

    def probability(self, x):
        self.shapes.append(np.shape(x))
        return self.inner.probability(x)


def _net(rng, d):
    return MlpWeights(layers=((rng.standard_normal((6, d)), rng.standard_normal(6)),
                              (rng.standard_normal((4, 6)), rng.standard_normal(4)),
                              (rng.standard_normal((1, 4)), rng.standard_normal(1))))


def test_fit_scores_its_samples_in_one_call():
    rng = np.random.default_rng(0)
    for inner in (GlmScorer(ModelParams(np.array([0.8, -0.4, 0.1]), 0.3)), MlpScorer(_net(rng, 3))):
        counting = _Counting(inner)
        fit_local_linear(counting, np.zeros(3), SurrogateConfig(n_samples=150))
        assert counting.shapes == [(150, 3)]


def test_scorer_of_the_wrong_shape_errors():
    class _Column:
        def probability(self, x):
            return np.full((len(x), 1), 0.5)

    class _Scalar:
        def probability(self, x):
            return 0.5

    with pytest.raises(TrainingDataError, match=r"shape \(80, 1\) for 80 samples"):
        fit_local_linear(_Column(), np.zeros(2), SurrogateConfig(n_samples=80))
    with pytest.raises(TrainingDataError, match=r"shape \(\) for 80 samples"):
        fit_local_linear(_Scalar(), np.zeros(2), SurrogateConfig(n_samples=80))


def test_fit_equals_per_sample_reference_bitwise():
    rng = np.random.default_rng(25)
    net = _net(rng, 3)
    x0, cfg = np.array([0.3, -1.2, 0.8]), SurrogateConfig(n_samples=200, seed=3)

    class _PerSample:
        def probability(self, x):
            return np.array([mlp_forward(net, z) for z in x])

    got = fit_local_linear(MlpScorer(net), x0, cfg)
    ref = fit_local_linear(_PerSample(), x0, cfg)
    assert got.weights.tobytes() == ref.weights.tobytes() and got.intercept == ref.intercept
    # the fit of the per-sample forward that preceded stacked scoring, pinned
    assert [w.hex() for w in got.weights] == [
        "-0x1.e53a55b0f102dp-1", "0x1.5b55e8e25e266p-1", "-0x1.cef84000f6f05p+0"]
    assert got.intercept.hex() == "0x1.ed15c27a6857ep+1"


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
