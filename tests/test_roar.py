import numpy as np
import pytest

from robust_recourse.adversary import Neighborhood, best_response
from robust_recourse.glm import CostSpec, LossKind, ModelParams, RecourseQuery, eval_total_cost
from robust_recourse.roar import RoarConfig, roar_recourse, roar_recourse_batch
from robust_recourse.solver import optimal_robust_recourse
from robust_recourse.tradeoff import robustness


def _query(x0, lam, **kw):
    return RecourseQuery(x0=np.asarray(x0, dtype=float), lam=lam, **kw)


def _nbhd(weights, alpha, intercept=0.0, **kw):
    return Neighborhood(ModelParams(weights=np.asarray(weights, dtype=float), intercept=intercept), alpha, **kw)


def test_large_lam_stays_put():
    # Every worst-case weight is below lam, so each step's cost subgradient
    # dominates and the best iterate is the start itself.
    n = _nbhd([1.0, -0.5], 0.3)
    plan = roar_recourse(_query([0.4, -0.2], 2.0), n)
    np.testing.assert_array_equal(plan.x_prime, [0.4, -0.2])
    assert plan.l1_cost == 0.0


def test_worked_instance_converges():
    plan = roar_recourse(
        _query([0.0], 0.1),
        _nbhd([1.0], 0.5, perturb_intercept=False),
        RoarConfig(max_iters=20000),
    )
    assert plan.x_prime[0] == pytest.approx(2.772588722239781, abs=1e-2)
    assert plan.worst_case_total == pytest.approx(0.5004024235381879, abs=1e-4)


def test_never_beats_exact_solver():
    rng = np.random.default_rng(30)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        q = _query(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.8)))
        n = _nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0.0, 0.6)), intercept=float(rng.uniform(-1, 1)))
        plan = roar_recourse(q, n)
        gap = robustness(q, n, plan.x_prime)
        assert gap >= -1e-9
        assert plan.worst_case_total >= optimal_robust_recourse(q, n).worst_case_total - 1e-9


def test_immutable_respected():
    q = _query([1.0, 0.0], 0.05, immutable_mask=[True, False])
    plan = roar_recourse(q, _nbhd([1.0, 1.0], 0.2))
    assert plan.x_prime[0] == 1.0


def test_batch_matches_single():
    rng = np.random.default_rng(31)
    n = _nbhd(rng.uniform(-1.5, 1.5, 3), 0.3, intercept=0.2)
    starts = rng.uniform(-2, 2, (8, 3))
    lam = 0.15
    cfg = RoarConfig(max_iters=500)
    got = roar_recourse_batch(starts, lam, n, cfg)
    for row, x0 in zip(got, starts):
        single = roar_recourse(_query(x0, lam), n, cfg)
        np.testing.assert_array_equal(row, single.x_prime)


def test_batch_shape_validation():
    with pytest.raises(ValueError):
        roar_recourse_batch(np.zeros((4, 2)), 0.1, _nbhd([1.0, 1.0, 1.0], 0.1))


def test_config_validation():
    with pytest.raises(ValueError):
        RoarConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        RoarConfig(max_iters=0)


def test_single_is_the_one_row_batch():
    q = _query([0.5, -1.0, 0.2], 0.1, cost=CostSpec([1.5, 0.7, 1.1]), immutable_mask=[False, True, False])
    n = _nbhd([1.0, -0.5, 0.3], 0.2, intercept=-0.3, perturb_intercept=False)
    cfg = RoarConfig(max_iters=300)
    plan = roar_recourse(q, n, cfg)
    row = roar_recourse_batch(q.x0[None, :], q.lam, n, cfg, q.loss, q.cost, q.immutable_mask)[0]
    np.testing.assert_array_equal(plan.x_prime, row)
    assert plan.x_prime[1] == -1.0
    assert plan.worst_case_total == eval_total_cost(q, row, best_response(n, row))


def test_stacked_rows_equal_per_row_calls_bitwise():
    # mixed lam, alpha, intercept mode and immutable masks in one batch
    rng = np.random.default_rng(32)
    m, d = 12, 3
    starts = rng.uniform(-2, 2, (m, d))
    lams = rng.choice([0.05, 0.1, 0.3], m)
    balls = [
        _nbhd(
            rng.uniform(-1.5, 1.5, d),
            float(rng.choice([0.0, 0.1, 0.4])),
            intercept=float(rng.uniform(-1, 1)),
            perturb_intercept=bool(i % 2),
        )
        for i in range(m)
    ]
    masks = rng.random((m, d)) < 0.3
    cost = CostSpec(rng.uniform(0.5, 2.0, d))
    cfg = RoarConfig(max_iters=300)
    for loss in (LossKind.BCE, LossKind.SQUARED):
        got = roar_recourse_batch(starts, lams, balls, cfg, loss, cost, masks)
        for i in range(m):
            row = roar_recourse_batch(starts[i : i + 1], lams[i], balls[i], cfg, loss, cost, masks[i])
            np.testing.assert_array_equal(got[i], row[0])
        assert (got[masks] == starts[masks]).all()


def test_stacked_ball_count_must_match_rows():
    balls = [_nbhd([1.0, 1.0], 0.1)] * 3
    with pytest.raises(ValueError):
        roar_recourse_batch(np.zeros((4, 2)), 0.1, balls)
    with pytest.raises(ValueError):
        roar_recourse_batch(np.zeros((3, 2)), [0.1, -0.1, 0.1], balls)
