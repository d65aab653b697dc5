import numpy as np
import pytest

from robust_recourse.adversary import (
    Neighborhood,
    best_response,
    corner_oracle,
    worst_case_shared_model,
)
from robust_recourse.glm import DimensionMismatchError, LossKind, ModelParams, eval_loss, score, sigmoid


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
    # one point: the worst mean loss is the loss at the least score, best_response's
    rng = np.random.default_rng(13)
    for _ in range(10):
        base = ModelParams(weights=rng.uniform(-1, 1, 2), intercept=float(rng.uniform(-0.5, 0.5)))
        n = Neighborhood(base, 0.3)
        x = rng.uniform(-2, 2, 2)
        got = worst_case_shared_model(n, [x])
        obj = _mean_bce(got, [x])
        assert obj >= _mean_bce(base, [x])
        assert obj == pytest.approx(_mean_bce(best_response(n, x), [x]), rel=1e-14, abs=1e-14)
        assert n.contains(got)


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


def _adam_ascent(neighborhood, points, steps=1000, learning_rate=0.001, betas=(0.9, 0.999), eps=1e-8):
    """Reference: projected Adam ascent on the mean BCE, keeping the best iterate seen."""
    points = np.asarray(points, dtype=float)
    base = neighborhood.base
    theta0 = np.append(base.weights, base.intercept)
    lo, hi = theta0 - neighborhood.alpha, theta0 + neighborhood.alpha
    if not neighborhood.perturb_intercept:
        lo[-1] = hi[-1] = theta0[-1]
    design = np.hstack([points, np.ones((len(points), 1))])

    def objective(theta):
        return float(np.mean(eval_loss(LossKind.BCE, design @ theta)))

    theta, m, v = theta0.copy(), np.zeros_like(theta0), np.zeros_like(theta0)
    best_theta, best_value = theta.copy(), objective(theta)
    for step in range(1, steps + 1):
        grad = -(sigmoid(-(design @ theta)) @ design) / len(points)
        m = betas[0] * m + (1.0 - betas[0]) * grad
        v = betas[1] * v + (1.0 - betas[1]) * grad * grad
        m_hat, v_hat = m / (1.0 - betas[0] ** step), v / (1.0 - betas[1] ** step)
        theta = np.clip(theta + learning_rate * m_hat / (np.sqrt(v_hat) + eps), lo, hi)
        value = objective(theta)
        if value > best_value:
            best_theta, best_value = theta.copy(), value
    return ModelParams(best_theta[:-1], best_theta[-1])


def _random_set(rng, d, perturb_intercept, alphas=(0.0, 0.02, 0.1, 0.3, 1.0)):
    ball = _nbhd(
        rng.uniform(-2, 2, d),
        float(rng.choice(alphas)),
        intercept=float(rng.uniform(-1, 1)),
        perturb_intercept=perturb_intercept,
    )
    return ball, rng.uniform(-3, 3, (int(rng.integers(1, 40)), d))


def _flip_values(ball, model, points):
    """Mean BCE of every vertex one sign flip away from the vertex ``model``."""
    d = ball.base.dim
    signs = np.append(np.sign(model.weights - ball.base.weights), np.sign(model.intercept - ball.base.intercept))
    values = []
    for j in range(d + int(ball.perturb_intercept)):
        flipped = signs.copy()
        flipped[j] = -flipped[j]
        weights = ball.base.weights + ball.alpha * flipped[:d]
        intercept = ball.base.intercept + (ball.alpha * flipped[d] if ball.perturb_intercept else 0.0)
        values.append(_mean_bce(ModelParams(weights, intercept), points))
    return values


def test_shared_model_is_the_best_corner_below_the_cap():
    rng = np.random.default_rng(14)
    for case in range(40):
        d, perturb = int(rng.integers(1, 7)), bool(case % 2)
        if case % 10 == 0:  # 12 free coordinates: the cap itself
            d, perturb = (11, True) if case % 20 else (12, False)
        ball, pts = _random_set(rng, d, perturb)
        got = worst_case_shared_model(ball, pts)
        weights, intercepts = ball.corners()
        corner_values = np.mean(eval_loss(LossKind.BCE, pts @ weights.T + intercepts), axis=0)
        obj = _mean_bce(got, pts)
        assert obj >= max(corner_values) - 1e-12
        assert ball.contains(got)
        assert ((weights == got.weights).all(axis=1) & (intercepts == got.intercept)).any()
        if d <= 6:
            assert obj >= _mean_bce(_adam_ascent(ball, pts), pts) - 1e-12


def test_shared_model_above_the_cap_is_a_local_vertex_optimum():
    rng = np.random.default_rng(15)
    for case in range(24):
        d = (20, 30)[case % 2]
        ball, pts = _random_set(rng, d, bool(case // 2 % 2), alphas=(0.02, 0.1, 0.3, 1.0))
        got = worst_case_shared_model(ball, pts)
        signs = np.sign(got.weights - ball.base.weights)
        np.testing.assert_array_equal(got.weights, ball.base.weights + ball.alpha * signs)
        assert (signs != 0).all()
        if ball.perturb_intercept:
            assert abs(got.intercept - ball.base.intercept) == pytest.approx(ball.alpha, abs=1e-15)
        else:
            assert got.intercept == ball.base.intercept
        obj = _mean_bce(got, pts)
        assert max(_flip_values(ball, got, pts)) <= obj + 1e-12
        assert obj >= _mean_bce(_adam_ascent(ball, pts), pts) - 1e-12


def test_shared_model_enumerates_only_up_to_the_cap(monkeypatch):
    def refuse(self):
        raise AssertionError("corners enumerated")

    rng = np.random.default_rng(16)
    pts = rng.uniform(-1, 1, (5, 12))
    monkeypatch.setattr(Neighborhood, "corners", refuse)
    worst_case_shared_model(_nbhd(rng.uniform(-1, 1, 12), 0.1), pts)  # 13 free coordinates
    with pytest.raises(AssertionError):
        worst_case_shared_model(_nbhd(rng.uniform(-1, 1, 12), 0.1, perturb_intercept=False), pts)


def test_shared_model_ties_go_to_the_first_corner():
    for perturb in (True, False):
        ball = _nbhd([0.5, -1.0, 2.0], 0.25, intercept=0.1, perturb_intercept=perturb)
        got = worst_case_shared_model(ball, np.zeros((4, 3)))
        weights, intercepts = ball.corners()
        np.testing.assert_array_equal(got.weights, weights[0])
        assert got.intercept == intercepts[0]


def test_shared_model_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        worst_case_shared_model(_nbhd([1.0, 1.0], 0.1), np.zeros((3, 1)))
    with pytest.raises(DimensionMismatchError):
        worst_case_shared_model(_nbhd([1.0], 0.1), [np.array([1.0, 2.0])])
