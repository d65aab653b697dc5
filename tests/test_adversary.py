import numpy as np
import pytest

from robust_recourse.adversary import (
    AscentConfig,
    Neighborhood,
    best_response,
    corner_oracle,
    worst_case_shared_model,
)
from robust_recourse.glm import LossKind, ModelParams, eval_loss, score


def _nbhd(weights, alpha, intercept=0.0, **kw):
    return Neighborhood(ModelParams(weights=np.asarray(weights, dtype=float), intercept=intercept), alpha, **kw)


def test_best_response_lemma_values():
    got = best_response(_nbhd([0.5, 0.5], 0.2), np.array([2.0, -1.0]))
    np.testing.assert_allclose(got.weights, [0.3, 0.7], atol=1e-15)
    assert got.intercept == pytest.approx(-0.2, abs=1e-15)


def test_best_response_zero_coordinate_uses_plus_sign():
    got = best_response(_nbhd([0.5, 0.5], 0.2), np.array([0.0, 3.0]))
    np.testing.assert_allclose(got.weights, [0.3, 0.3], atol=1e-15)
    assert got.intercept == pytest.approx(-0.2)


def test_best_response_zero_alpha_identity():
    base = ModelParams(weights=np.array([0.4, -0.9]), intercept=0.3)
    got = best_response(Neighborhood(base, 0.0), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(got.weights, base.weights)
    assert got.intercept == base.intercept


def test_best_response_fixed_intercept_flag():
    got = best_response(_nbhd([1.0], 0.5, intercept=0.25, perturb_intercept=False), np.array([1.0]))
    assert got.intercept == 0.25
    assert got.weights[0] == pytest.approx(0.5)


def test_best_response_in_ball_and_sign_dependence():
    rng = np.random.default_rng(10)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        n = _nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0, 1)), intercept=float(rng.uniform(-1, 1)))
        x = rng.uniform(-3, 3, d)
        r = best_response(n, x)
        assert (np.abs(r.weights - n.base.weights) <= n.alpha + 1e-15).all()
        scaled = x * rng.uniform(0.1, 4.0, d)  # same signs
        r2 = best_response(n, scaled)
        np.testing.assert_array_equal(r.weights, r2.weights)


def test_best_response_minimality_against_random_ball_models():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        n = _nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0, 1)), intercept=float(rng.uniform(-1, 1)))
        x = rng.uniform(-3, 3, d)
        base_val = score(best_response(n, x), x)
        theta = ModelParams(
            weights=n.base.weights + rng.uniform(-n.alpha, n.alpha, d),
            intercept=n.base.intercept + float(rng.uniform(-n.alpha, n.alpha)),
        )
        assert base_val <= score(theta, x) + 1e-12


def test_corner_oracle_matches_best_response():
    rng = np.random.default_rng(12)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        n = _nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0, 1)), intercept=float(rng.uniform(-1, 1)))
        x = rng.uniform(-3, 3, d)
        assert score(corner_oracle(n, x), x) == pytest.approx(
            score(best_response(n, x), x), abs=1e-12
        )


def test_corner_oracle_edges():
    base = ModelParams(weights=np.array([0.4, -0.9]), intercept=0.3)
    got = corner_oracle(Neighborhood(base, 0.0), np.array([1.0, 2.0]))
    np.testing.assert_allclose(got.weights, base.weights, atol=1e-15)
    zero = corner_oracle(Neighborhood(base, 0.5), np.zeros(2))
    assert score(zero, np.zeros(2)) == pytest.approx(0.3 - 0.5)
    # every weight pattern ties at x = 0; the lexicographically first wins
    np.testing.assert_array_equal(zero.weights, base.weights - 0.5)
    # corners run in lexicographic order of the sign patterns, -1 first
    weights, intercepts = _nbhd([1.0], 0.5, intercept=0.25).corners()
    np.testing.assert_array_equal(weights[:, 0], [0.5, 0.5, 1.5, 1.5])
    np.testing.assert_array_equal(intercepts, [-0.25, 0.75, -0.25, 0.75])
    weights, intercepts = _nbhd([1.0, 2.0], 0.5, intercept=0.25, perturb_intercept=False).corners()
    np.testing.assert_array_equal(weights, [[0.5, 1.5], [0.5, 2.5], [1.5, 1.5], [1.5, 2.5]])
    np.testing.assert_array_equal(intercepts, [0.25] * 4)
    with pytest.raises(ValueError):
        corner_oracle(_nbhd(np.zeros(25), 0.1), np.zeros(25))


def test_neighborhood_validation():
    with pytest.raises(ValueError):
        _nbhd([1.0], -0.1)
    ball = _nbhd([1.0, -1.0], 0.5, intercept=0.25)
    fixed = _nbhd([1.0, -1.0], 0.5, intercept=0.25, perturb_intercept=False)
    assert (ball.worst_intercept, fixed.worst_intercept) == (-0.25, 0.25)
    inside = ModelParams(weights=np.array([1.5, -1.2]), intercept=0.7)
    assert ball.contains(inside) and not fixed.contains(inside)
    assert fixed.contains(ModelParams(weights=np.array([0.5, -0.5]), intercept=0.25 + 1e-10))
    assert not ball.contains(ModelParams(weights=np.array([1.6, -1.0]), intercept=0.25))
    assert not ball.contains(ModelParams(weights=np.array([1.0]), intercept=0.25))
    far = ModelParams(weights=np.array([3.0, -1.2]), intercept=-2.0)
    clamped = ball.clamp(far)
    np.testing.assert_array_equal(clamped.weights, [1.5, -1.2])
    assert clamped.intercept == -0.25 and ball.contains(clamped)
    assert fixed.clamp(far).intercept == 0.25 and fixed.contains(fixed.clamp(far))


def _mean_bce(params, points):
    scores = np.array([score(params, p) for p in points])
    return float(np.mean(eval_loss(LossKind.BCE, scores)))


def test_shared_model_zero_alpha_returns_base():
    base = ModelParams(weights=np.array([1.0, -0.5]), intercept=0.2)
    got = worst_case_shared_model(Neighborhood(base, 0.0), [np.array([1.0, 1.0])])
    np.testing.assert_allclose(got.weights, base.weights, atol=1e-12)
    assert got.intercept == pytest.approx(0.2, abs=1e-12)


def test_shared_model_single_point_brackets():
    rng = np.random.default_rng(13)
    for _ in range(10):
        base = ModelParams(weights=rng.uniform(-1, 1, 2), intercept=float(rng.uniform(-0.5, 0.5)))
        n = Neighborhood(base, 0.3)
        x = rng.uniform(-2, 2, 2)
        got = worst_case_shared_model(n, [x], AscentConfig(steps=1500))
        obj = _mean_bce(got, [x])
        assert obj >= _mean_bce(base, [x]) - 1e-12  # best-seen never below start
        assert obj <= _mean_bce(best_response(n, x), [x]) + 1e-6  # closed form is the max
        assert (np.abs(got.weights - base.weights) <= 0.3 + 1e-12).all()
        assert abs(got.intercept - base.intercept) <= 0.3 + 1e-12


def test_shared_model_empty_list_errors():
    with pytest.raises(ValueError):
        worst_case_shared_model(_nbhd([1.0], 0.1), [])


def test_shared_model_deterministic():
    base = ModelParams(weights=np.array([0.5, 0.5]), intercept=0.0)
    pts = [np.array([1.0, 2.0]), np.array([-1.0, 0.5])]
    a = worst_case_shared_model(Neighborhood(base, 0.2), pts)
    b = worst_case_shared_model(Neighborhood(base, 0.2), pts)
    np.testing.assert_array_equal(a.weights, b.weights)
    assert a.intercept == b.intercept


def test_stacked_ascent_equals_single_calls_bitwise():
    rng = np.random.default_rng(14)
    n_sets, n_points, d = 6, 5, 2
    balls = [
        _nbhd(
            rng.uniform(-1, 1, d),
            float(rng.choice([0.0, 0.05, 0.3])),
            intercept=float(rng.uniform(-0.5, 0.5)),
            perturb_intercept=bool(p % 2),
        )
        for p in range(n_sets)
    ]
    sets = rng.uniform(-2, 2, (n_sets, n_points, d))
    cfg = AscentConfig(steps=300)
    got = worst_case_shared_model(balls, sets, cfg)
    assert len(got) == n_sets
    for ball, pts, model in zip(balls, sets, got):
        single = worst_case_shared_model(ball, list(pts), cfg)
        np.testing.assert_array_equal(model.weights, single.weights)
        assert model.intercept == single.intercept


def test_stacked_ascent_needs_one_ball_per_set():
    with pytest.raises(ValueError):
        worst_case_shared_model([_nbhd([1.0], 0.1)], np.zeros((2, 3, 1)))
    with pytest.raises(ValueError):
        worst_case_shared_model([_nbhd([1.0, 1.0], 0.1)], np.zeros((1, 3, 1)))
