import math

import numpy as np
import pytest

from robust_recourse.glm import (
    CostSpec,
    DimensionMismatchError,
    LossKind,
    ModelParams,
    RecourseQuery,
    eval_loss,
    eval_total_cost,
    logit,
    loss_derivative,
    score,
    sigmoid,
    sign,
    weighted_l1,
)


def test_score_hand_values():
    assert score(ModelParams(weights=np.array([1.0, 0.0])), np.array([0.0, 0.0])) == 0.0
    assert score(ModelParams(weights=np.array([1.0, 2.0]), intercept=0.5), np.array([1.0, 1.0])) == 3.5
    got = score(ModelParams(weights=np.array([0.5, -0.5]), intercept=-0.5), np.array([1.0, 1.0]))
    assert got == pytest.approx(-0.5, abs=1e-12)


def test_score_dimension_mismatch_names_lengths():
    with pytest.raises(DimensionMismatchError, match="2") as err:
        score(ModelParams(weights=np.array([1.0, 2.0])), np.array([1.0, 2.0, 3.0]))
    assert "3" in str(err.value)


def test_eval_loss_bce_values():
    assert eval_loss(LossKind.BCE, 0.0) == pytest.approx(math.log(2), abs=1e-12)
    assert eval_loss(LossKind.BCE, 1.0) == pytest.approx(0.3132616875182228, abs=1e-12)
    tail = eval_loss(LossKind.BCE, 50.0)
    assert 0.0 <= tail < 1e-20


def test_eval_loss_squared_values():
    assert eval_loss(LossKind.SQUARED, 0.5) == pytest.approx(0.25, abs=1e-12)
    assert eval_loss(LossKind.SQUARED, 2.0) == 0.0
    assert eval_loss(LossKind.SQUARED, -3.0) == 1.0


def test_eval_loss_monotone_decreasing():
    rng = np.random.default_rng(1)
    s = np.sort(rng.uniform(-20, 20, 200))
    for loss in (LossKind.BCE, LossKind.SQUARED):
        vals = eval_loss(loss, s)
        assert (np.diff(vals) <= 1e-15).all()


def test_eval_total_cost_examples():
    q = RecourseQuery(x0=np.array([0.0, 0.0]), lam=0.1)
    theta = ModelParams(weights=np.array([1.0, 0.0]))
    assert eval_total_cost(q, np.array([0.0, 0.0]), theta) == pytest.approx(0.6931471805599453)
    assert eval_total_cost(q, np.array([1.0, 0.0]), theta) == pytest.approx(
        0.3132616875182228 + 0.1
    )
    q0 = RecourseQuery(x0=np.array([0.0, 0.0]), lam=0.0)
    got = eval_total_cost(q0, np.array([3.0, 3.0]), ModelParams(weights=np.array([1.0, 1.0])))
    assert got == pytest.approx(math.log(1 + math.exp(-6)), abs=1e-12)


def test_eval_total_cost_zero_cost_at_start():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x0 = rng.uniform(-3, 3, 3)
        q = RecourseQuery(x0=x0, lam=float(rng.uniform(0, 5)))
        theta = ModelParams(weights=rng.uniform(-2, 2, 3))
        assert eval_total_cost(q, x0, theta) == pytest.approx(
            float(eval_loss(q.loss, score(theta, x0))), abs=1e-12
        )


def test_total_cost_convex_in_x():
    rng = np.random.default_rng(3)
    for loss in (LossKind.BCE,):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            q = RecourseQuery(x0=rng.uniform(-2, 2, d), lam=float(rng.uniform(0, 2)), loss=loss)
            theta = ModelParams(weights=rng.uniform(-2, 2, d), intercept=float(rng.uniform(-1, 1)))
            a, b = rng.uniform(-4, 4, d), rng.uniform(-4, 4, d)
            mid = eval_total_cost(q, (a + b) / 2, theta)
            assert mid <= (eval_total_cost(q, a, theta) + eval_total_cost(q, b, theta)) / 2 + 1e-9


def test_sign_convention():
    assert sign(0.0) == 1.0
    assert sign(-0.0) == 1.0
    np.testing.assert_array_equal(sign(np.array([-2.0, 0.0, 3.0])), [-1.0, 1.0, 1.0])


def test_sigmoid_logit_roundtrip():
    assert sigmoid(2.0) == pytest.approx(0.8807970779778823, abs=1e-15)
    assert sigmoid(-800.0) >= 0.0  # no overflow
    for p in (0.1, 0.5, 0.9):
        assert sigmoid(logit(p)) == pytest.approx(p, abs=1e-12)
    with pytest.raises(ValueError):
        logit(0.0)
    with pytest.raises(ValueError):
        logit(1.0)


def test_loss_derivative_matches_finite_difference():
    rng = np.random.default_rng(4)
    for loss in (LossKind.BCE, LossKind.SQUARED):
        for s in rng.uniform(-3, 3, 50):
            if loss is LossKind.SQUARED and (abs(s) < 1e-3 or abs(s - 1) < 1e-3):
                continue  # kink
            h = 1e-6
            fd = (eval_loss(loss, s + h) - eval_loss(loss, s - h)) / (2 * h)
            assert loss_derivative(loss, float(s)) == pytest.approx(fd, abs=1e-5)


def test_model_params_validation_and_json():
    with pytest.raises(ValueError):
        ModelParams(weights=np.array([np.nan]))
    with pytest.raises(ValueError):
        ModelParams(weights=np.array([]))
    with pytest.raises(ValueError):
        ModelParams(weights=np.array([1.0]), intercept=float("inf"))
    p = ModelParams(weights=np.array([0.25, -1.5]), intercept=0.75)
    q = ModelParams.from_json(p.to_json())
    np.testing.assert_array_equal(q.weights, p.weights)
    assert q.intercept == p.intercept


def test_cost_spec_and_query_validation():
    with pytest.raises(ValueError):
        CostSpec(weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        RecourseQuery(x0=np.array([0.0]), lam=-0.1)
    with pytest.raises(ValueError):
        RecourseQuery(x0=np.array([np.inf]), lam=0.1)
    with pytest.raises(ValueError):
        RecourseQuery(x0=np.array([0.0, 1.0]), lam=0.1, immutable_mask=np.array([True]))
    q = RecourseQuery(x0=np.array([1.0, 2.0]), lam=0.3)
    np.testing.assert_array_equal(q.cost.weights, [1.0, 1.0])
    assert not q.immutable_mask.any()


def test_weighted_l1():
    q = RecourseQuery(
        x0=np.array([1.0, -1.0]), lam=0.5, cost=CostSpec(weights=np.array([2.0, 3.0]))
    )
    assert weighted_l1(q, np.array([2.0, 1.0])) == pytest.approx(2.0 * 1 + 3.0 * 2)
