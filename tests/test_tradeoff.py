import math

import numpy as np
import pytest

from robust_recourse.adversary import Neighborhood, best_response
from robust_recourse.glm import CostSpec, LossKind, ModelParams, RecourseQuery, eval_total_cost
from robust_recourse.solver import consistent_recourse, optimal_robust_recourse
from robust_recourse.tradeoff import (
    _STEP_GRID,
    TradeoffQuery,
    blended_recourse,
    consistency,
    pareto_frontier,
    robustness,
    smoothness,
    validity,
)


def _query(x0, lam, **kw):
    return RecourseQuery(x0=np.asarray(x0, dtype=float), lam=lam, **kw)


def _nbhd(weights, alpha, intercept=0.0, **kw):
    return Neighborhood(ModelParams(weights=np.asarray(weights, dtype=float), intercept=intercept), alpha, **kw)


def _random_tq(rng, beta=None):
    d = int(rng.integers(1, 4))
    q = _query(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.8)))
    n = _nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.6)), intercept=float(rng.uniform(-1, 1)))
    pred = ModelParams(
        weights=n.base.weights + rng.uniform(-n.alpha, n.alpha, d),
        intercept=n.base.intercept + float(rng.uniform(-n.alpha, n.alpha)),
    )
    b = float(rng.uniform(0, 1)) if beta is None else beta
    return TradeoffQuery(q, n, pred, b)


# ---------------------------------------------------------------- metrics


def test_robustness_zero_at_robust_plan():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    plan = optimal_robust_recourse(q, n)
    assert robustness(q, n, plan.x_prime) == pytest.approx(0.0, abs=1e-15)


def test_robustness_of_staying_put():
    # Worst-case total at x0 = 0 is log 2; the robust optimum costs
    # 0.5004024235381879, so staying put gives up exactly the difference.
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    assert robustness(q, n, q.x0) == pytest.approx(0.1927447570217574, abs=1e-12)
    assert robustness(q, n, q.x0) == pytest.approx(math.log(2.0) - 0.5004024235381879, abs=1e-14)


def test_robustness_nonnegative_random():
    rng = np.random.default_rng(20)
    for _ in range(100):
        tq = _random_tq(rng)
        x = rng.uniform(-3, 3, tq.query.dim)
        assert robustness(tq.query, tq.neighborhood, x) >= -1e-9


def test_consistency_zero_at_consistent_plan():
    rng = np.random.default_rng(21)
    for _ in range(20):
        tq = _random_tq(rng)
        plan = consistent_recourse(tq.query, tq.prediction)
        assert consistency(tq.query, tq.prediction, plan.x_prime) == pytest.approx(0.0, abs=1e-12)
        robust = optimal_robust_recourse(tq.query, tq.neighborhood)
        assert consistency(tq.query, tq.prediction, robust.x_prime) >= -1e-9


def test_metric_baselines_reused():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    base = optimal_robust_recourse(q, n)
    assert robustness(q, n, q.x0, baseline=base) == robustness(q, n, q.x0)


# ---------------------------------------------------------------- blending


def test_blended_endpoints_match_exact_solvers():
    rng = np.random.default_rng(22)
    for _ in range(25):
        tq = _random_tq(rng, beta=1.0)
        robust = optimal_robust_recourse(tq.query, tq.neighborhood)
        got = blended_recourse(tq)
        np.testing.assert_array_equal(got.x_prime, robust.x_prime)
        assert got.worst_case_total == robust.worst_case_total

        tq0 = _random_tq(rng, beta=0.0)
        cons = consistent_recourse(tq0.query, tq0.prediction)
        got0 = blended_recourse(tq0)
        np.testing.assert_array_equal(got0.x_prime, cons.x_prime)
        # worst_case_total re-evaluated against the ball, not the prediction
        worst = eval_total_cost(
            tq0.query, cons.x_prime, best_response(tq0.neighborhood, cons.x_prime)
        )
        assert got0.worst_case_total == pytest.approx(worst, abs=0.0)


def _dense_blend_min(tq, lo=-6.0, hi=6.0, n=240_001):
    from robust_recourse.tradeoff import _blended_value

    xs = np.linspace(lo, hi, n)
    return min(_blended_value(tq, np.array([v])) for v in xs)


def test_blended_interior_close_to_dense_grid():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    pred = ModelParams(weights=np.array([1.3]), intercept=0.0)
    tq = TradeoffQuery(q, n, pred, 0.5)
    plan = blended_recourse(tq)
    from robust_recourse.tradeoff import _blended_value

    got = _blended_value(tq, plan.x_prime)
    assert got <= _dense_blend_min(tq) + 1e-3


def test_blended_never_worse_than_start_or_endpoints():
    rng = np.random.default_rng(23)
    from robust_recourse.tradeoff import _blended_value

    for _ in range(40):
        tq = _random_tq(rng)
        plan = blended_recourse(tq)
        val = _blended_value(tq, plan.x_prime)
        assert val <= _blended_value(tq, tq.query.x0) + 1e-12
        robust = optimal_robust_recourse(tq.query, tq.neighborhood)
        cons = consistent_recourse(tq.query, tq.prediction)
        assert val <= _blended_value(tq, robust.x_prime) + 1e-2
        assert val <= _blended_value(tq, cons.x_prime) + 1e-2


def test_step_grid_is_signed_and_sorted():
    grid = _STEP_GRID
    assert grid.size == 26
    assert (np.sort(grid) == grid).all()
    np.testing.assert_allclose(grid[-1], 0.01 * 2**12)
    np.testing.assert_allclose(-grid[0], 0.01 * 2**12)


# ----------------------------------------------------------------- pareto


def test_pareto_frontier_endpoints_and_monotonicity():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    pred = ModelParams(weights=np.array([1.4]), intercept=0.0)
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    pts = pareto_frontier(TradeoffQuery(q, n, pred, 1.0), betas, label_model=pred)
    assert [p.beta for p in pts] == betas
    assert pts[-1].robustness == pytest.approx(0.0, abs=1e-12)
    assert pts[0].consistency == pytest.approx(0.0, abs=1e-12)
    for a, b in zip(pts, pts[1:]):
        assert b.robustness <= a.robustness + 1e-3
        assert b.consistency >= a.consistency - 1e-3
    assert all(p.valid in (True, False) for p in pts)
    assert pts[0].valid  # consistent plan crosses the boundary under its model


def _random_problem(rng):
    """A TradeoffQuery over either loss, with random costs, mask and intercept mode."""
    d = int(rng.integers(1, 4))
    mask = rng.random(d) < 0.3
    mask[int(rng.integers(d))] = False
    q = _query(
        rng.uniform(-2, 2, d),
        float(rng.uniform(0.05, 0.8)),
        loss=LossKind.SQUARED if rng.random() < 0.5 else LossKind.BCE,
        cost=CostSpec(rng.uniform(0.5, 2.0, d)),
        immutable_mask=mask,
    )
    fixed = bool(rng.random() < 0.5)
    n = _nbhd(
        rng.uniform(-2, 2, d),
        float(rng.uniform(0.05, 0.6)),
        intercept=float(rng.uniform(-1, 1)),
        perturb_intercept=not fixed,
    )
    shift = 0.0 if fixed else float(rng.uniform(-n.alpha, n.alpha))
    pred = ModelParams(
        weights=n.base.weights + rng.uniform(-n.alpha, n.alpha, d), intercept=n.base.intercept + shift
    )
    return TradeoffQuery(q, n, pred, 1.0)


def test_beta_sweeps_equal_per_beta_blends_exactly():
    # pareto_frontier and smoothness solve the endpoints once per query and blend
    # for every beta; each value must be the one a per-beta blended_recourse gives
    rng = np.random.default_rng(27)
    losses = set()
    for _ in range(30):
        tq = _random_problem(rng)
        q, n = tq.query, tq.neighborhood
        losses.add(q.loss)
        betas = [0.0, float(rng.uniform(0.05, 0.95)), 1.0]
        correct = ModelParams(
            weights=n.base.weights + rng.uniform(-n.alpha, n.alpha, q.dim),
            intercept=n.base.intercept,
        )
        points = pareto_frontier(tq, betas, label_model=tq.prediction)
        regrets = smoothness(q, n, tq.prediction, correct, betas)
        best = consistent_recourse(q, correct).worst_case_total
        for beta, pt, regret in zip(betas, points, regrets):
            plan = blended_recourse(TradeoffQuery(q, n, tq.prediction, beta))
            assert pt.beta == beta
            assert pt.robustness == robustness(q, n, plan.x_prime)
            assert pt.consistency == consistency(q, tq.prediction, plan.x_prime)
            assert pt.l1_cost == plan.l1_cost
            assert pt.valid == (validity(tq.prediction, [plan.x_prime]) == 1.0)
            assert regret == eval_total_cost(q, plan.x_prime, correct) - best
    assert losses == {LossKind.BCE, LossKind.SQUARED}


# -------------------------------------------------------------- smoothness


def test_smoothness_zero_when_prediction_correct_and_trusted():
    rng = np.random.default_rng(24)
    for _ in range(20):
        tq = _random_tq(rng, beta=0.0)
        (got,) = smoothness(tq.query, tq.neighborhood, tq.prediction, tq.prediction, [0.0])
        assert got == pytest.approx(0.0, abs=1e-12)


def test_smoothness_prediction_independent_at_full_caution():
    rng = np.random.default_rng(25)
    tq = _random_tq(rng, beta=1.0)
    other = ModelParams(
        weights=tq.neighborhood.base.weights + tq.neighborhood.alpha,
        intercept=tq.neighborhood.base.intercept,
    )
    correct = tq.prediction
    a = smoothness(tq.query, tq.neighborhood, tq.prediction, correct, [1.0])
    b = smoothness(tq.query, tq.neighborhood, other, correct, [1.0])
    assert a == b


def test_smoothness_nonnegative_random():
    rng = np.random.default_rng(26)
    for _ in range(40):
        tq = _random_tq(rng)
        correct = ModelParams(
            weights=tq.neighborhood.base.weights
            + rng.uniform(-tq.neighborhood.alpha, tq.neighborhood.alpha, tq.query.dim),
            intercept=tq.neighborhood.base.intercept
            + float(rng.uniform(-tq.neighborhood.alpha, tq.neighborhood.alpha)),
        )
        got = smoothness(tq.query, tq.neighborhood, tq.prediction, correct, [0.0, tq.beta, 1.0])
        assert min(got) >= -1e-9


# ---------------------------------------------------------------- validity


def test_validity_fractions():
    model = ModelParams(weights=np.array([1.0]), intercept=0.0)
    assert validity(model, [np.array([2.0])]) == 1.0
    assert validity(model, [np.array([-2.0])]) == 0.0
    assert validity(model, [np.array([2.0]), np.array([-2.0])]) == 0.5
    assert validity(model, np.array([[2.0], [-2.0], [3.0]])) == 2 / 3  # a stacked array
    with pytest.raises(ValueError):
        validity(model, [])
    with pytest.raises(ValueError):
        validity(model, np.zeros((0, 1)))


# -------------------------------------------------------------- validation


def test_tradeoff_query_validation():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.2)
    inside = ModelParams(weights=np.array([1.1]), intercept=0.1)
    TradeoffQuery(q, n, inside, 0.5)
    with pytest.raises(ValueError):
        TradeoffQuery(q, n, inside, 1.5)
    with pytest.raises(ValueError):
        TradeoffQuery(q, n, ModelParams(weights=np.array([1.5]), intercept=0.0), 0.5)
    with pytest.raises(ValueError):
        TradeoffQuery(q, n, ModelParams(weights=np.array([1.0]), intercept=0.5), 0.5)
    fixed = _nbhd([1.0], 0.2, perturb_intercept=False)
    with pytest.raises(ValueError):
        TradeoffQuery(q, fixed, ModelParams(weights=np.array([1.0]), intercept=0.1), 0.5)


def test_blended_squared_loss_runs():
    q = _query([0.0], 0.1, loss=LossKind.SQUARED)
    n = _nbhd([1.0], 0.3, perturb_intercept=False)
    pred = ModelParams(weights=np.array([1.2]), intercept=0.0)
    plan = blended_recourse(TradeoffQuery(q, n, pred, 0.5))
    from robust_recourse.tradeoff import _blended_value

    tq = TradeoffQuery(q, n, pred, 0.5)
    assert _blended_value(tq, plan.x_prime) <= _blended_value(tq, q.x0) + 1e-12
