import math

import numpy as np
import pytest

from robust_recourse import solver
from robust_recourse.adversary import Neighborhood, best_response
from robust_recourse.glm import (
    CostSpec,
    DimensionMismatchError,
    LossKind,
    ModelParams,
    RecourseQuery,
    eval_loss,
    eval_total_cost,
    sigmoid,
    sign,
    weighted_l1,
)
from robust_recourse.solver import (
    SCORE_CAP,
    GridSpec,
    RecoursePlan,
    consistent_recourse,
    minimax_oracle,
    optimal_robust_recourse,
    optimal_robust_recourse_batch,
    solve_coordinate_step,
)


def _query(x0, lam, **kw):
    return RecourseQuery(x0=np.asarray(x0, dtype=float), lam=lam, **kw)


def _nbhd(weights, alpha, intercept=0.0, **kw):
    return Neighborhood(ModelParams(weights=np.asarray(weights, dtype=float), intercept=intercept), alpha, **kw)


# ---------------------------------------------------------------- 1-D step


def test_step_closed_form_value():
    # minimize log(1 + e^{-0.5 t}) + 0.1 t: optimum at score logit(0.8) = ln 4
    t, sat = solve_coordinate_step(0.1, 0.0, 0.5)
    assert not sat
    assert t == pytest.approx(2.0 * math.log(4.0), abs=1e-14)
    assert t == pytest.approx(2.772588722239781, abs=1e-12)


def test_step_zero_when_cost_dominates():
    t, sat = solve_coordinate_step(1.0, 0.0, 0.2)
    assert (t, sat) == (0.0, False)
    # marginal gain at start is slope * sigmoid(-s0) = 0.25; lam just above
    t, _ = solve_coordinate_step(0.2500000001, 0.0, 0.5)
    assert t == 0.0


def test_step_zero_slope():
    assert solve_coordinate_step(0.1, 0.0, 0.0) == (0.0, False)


def test_step_already_past_cap():
    assert solve_coordinate_step(0.1, SCORE_CAP + 1.0, 0.5) == (0.0, False)


def test_step_refuses_what_is_not_a_loss_kind():
    with pytest.raises(ValueError, match="unknown loss 'bce'"):
        solve_coordinate_step(0.1, 0.0, 0.5, "bce")


def test_step_bce_stationarity():
    # an interior step zeroes the derivative: slope * sigmoid(-(s0 + slope t)) = lam;
    # t = 0 exactly when the marginal gain at the start, slope * sigmoid(-s0), is at most lam
    rng = np.random.default_rng(0)
    interior = 0
    for _ in range(200):
        lam = float(rng.uniform(0.01, 0.6))
        s0 = float(rng.uniform(-3.0, 3.0))
        slope = float(rng.uniform(0.05, 2.0))
        t, sat = solve_coordinate_step(lam, s0, slope)
        assert not sat
        assert (t == 0.0) == (slope * sigmoid(-s0) <= lam)
        if t > 0.0:
            interior += 1
            assert slope * sigmoid(-(s0 + slope * t)) == pytest.approx(lam, rel=1e-9)
    assert 50 < interior < 200


def test_step_saturates_at_zero_lam():
    t, sat = solve_coordinate_step(0.0, 0.0, 0.5)
    assert sat
    assert t == pytest.approx(SCORE_CAP / 0.5)


def _convex_squared(s):
    """The squared loss's convex part (1 - s)_+^2, which the solver minimizes."""
    return np.square(np.maximum(1.0 - np.asarray(s, dtype=float), 0.0))


def test_step_squared_matches_dense_grid():
    # the step minimizes the convex part, not the clamped loss: below score 0
    # the two differ, and only the convex part has one stationary score
    rng = np.random.default_rng(1)
    for _ in range(60):
        lam = float(rng.uniform(0.0, 1.5))
        s0 = float(rng.uniform(-2.0, 2.0))
        slope = float(rng.uniform(0.05, 2.0))
        t, sat = solve_coordinate_step(lam, s0, slope, loss=LossKind.SQUARED)
        assert not sat and t >= 0.0
        ts = np.linspace(0.0, (2.5 - min(s0, 0.0)) / slope, 400_001)
        best = float((_convex_squared(s0 + slope * ts) + lam * ts).min())
        got = float(_convex_squared(s0 + slope * t)) + lam * t
        assert got <= best + 1e-9


# ------------------------------------------------------- robust solver, 1-D


def test_worked_instance_fixed_intercept():
    # theta0 = 1, alpha = 0.5, x0 = 0, lam = 0.1, intercept held at zero:
    # adversarial slope 0.5, optimum at score ln 4.
    plan = optimal_robust_recourse(
        _query([0.0], 0.1), _nbhd([1.0], 0.5, perturb_intercept=False)
    )
    assert plan.x_prime[0] == pytest.approx(2.772588722239781, abs=1e-12)
    assert plan.worst_case_total == pytest.approx(0.5004024235381879, abs=1e-12)
    assert len(plan.trace) == 1
    assert plan.trace[0].index == 0
    assert not plan.trace[0].adversary_updated
    assert not plan.saturated


def test_large_lam_returns_start():
    plan = optimal_robust_recourse(_query([1.0, -2.0], 2.0), _nbhd([1.0, 0.5], 0.3))
    np.testing.assert_array_equal(plan.x_prime, [1.0, -2.0])
    assert plan.l1_cost == 0.0
    assert plan.trace == ()


def test_zero_alpha_matches_consistent():
    rng = np.random.default_rng(2)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        q = _query(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.8)))
        theta = ModelParams(weights=rng.uniform(-2, 2, d), intercept=float(rng.uniform(-1, 1)))
        a = optimal_robust_recourse(q, Neighborhood(theta, 0.0))
        b = consistent_recourse(q, theta)
        np.testing.assert_array_equal(a.x_prime, b.x_prime)
        assert a.worst_case_total == b.worst_case_total


def test_crossing_deactivates_backward_coordinate():
    # Far-orthant worst-case weight (0.1 + 0.5 at x < 0 going down = 0.6 > 0)
    # points against continued travel; optimum parks exactly at zero.
    q = _query([1.0], 0.05)
    n = _nbhd([0.1], 0.5)
    plan = optimal_robust_recourse(q, n)
    assert plan.x_prime[0] == 0.0
    assert plan.worst_case_total == pytest.approx(1.0240769841801067, abs=1e-12)
    assert plan.trace == ((0, -1.0, True),)
    x_o, val_o = minimax_oracle(q, n, GridSpec(half_range=3.0, step=0.01, refine_levels=3))
    assert plan.worst_case_total <= val_o + 1e-9
    assert val_o <= plan.worst_case_total + 1e-9


def test_crossing_continues_when_far_weight_helps():
    # Negative model weight: moving down from 3 crosses zero and keeps going
    # to score logit(0.9) on the far side.
    plan = consistent_recourse(_query([3.0], 0.1), ModelParams(weights=np.array([-1.0]), intercept=0.0))
    assert plan.x_prime[0] == pytest.approx(-2.1972245773362196, abs=1e-12)
    assert plan.trace[0] == (0, -3.0, True)
    assert plan.trace[1].index == 0
    assert plan.trace[1].delta == pytest.approx(-2.1972245773362196, abs=1e-12)
    assert not plan.trace[1].adversary_updated


def test_consistent_two_dims_moves_strongest_only():
    plan = consistent_recourse(
        _query([0.0, 0.0], 0.1), ModelParams(weights=np.array([0.5, 0.25]), intercept=0.0)
    )
    np.testing.assert_allclose(plan.x_prime, [2.772588722239781, 0.0], atol=1e-12)
    assert len(plan.trace) == 1


def test_zero_lam_saturates_to_cap():
    plan = optimal_robust_recourse(_query([0.0], 0.0), _nbhd([1.0], 0.5, perturb_intercept=False))
    assert plan.saturated
    worst = best_response(_nbhd([1.0], 0.5, perturb_intercept=False), plan.x_prime)
    assert worst.weights[0] * plan.x_prime[0] == pytest.approx(SCORE_CAP, abs=1e-9)


def test_immutable_mask_respected():
    q = _query([1.0, 1.0], 0.05, immutable_mask=[True, False])
    n = _nbhd([1.0, 1.0], 0.2)
    plan = optimal_robust_recourse(q, n)
    assert plan.x_prime[0] == 1.0
    assert all(step.index != 0 for step in plan.trace)
    # against the oracle restricted to the free coordinate
    _, val_o = minimax_oracle(q, n, GridSpec(half_range=4.0, step=0.01, refine_levels=3))
    assert abs(plan.worst_case_total - val_o) <= 1e-6


def test_worst_case_total_monotone_in_alpha():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        q = _query(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.8)))
        w = rng.uniform(-2, 2, d)
        b = float(rng.uniform(-1, 1))
        small = optimal_robust_recourse(q, _nbhd(w, 0.1, intercept=b))
        large = optimal_robust_recourse(q, _nbhd(w, 0.5, intercept=b))
        assert small.worst_case_total <= large.worst_case_total + 1e-12


# ------------------------------------------------------------ trace replay


def _replay(query, neighborhood, plan):
    """Re-apply the trace, checking each move against the running adversary."""
    base = neighborhood.base
    alpha = neighborhood.alpha
    x = query.x0.copy()
    adv = base.weights - alpha * sign(x)
    active = ~query.immutable_mask
    for i in range(query.dim):
        if active[i] and x[i] == 0.0:
            if abs(base.weights[i]) > alpha:
                adv[i] = base.weights[i] - alpha * sign(base.weights[i])
            else:
                active[i] = False

    slopes_seen = []
    for j, delta, updated in plan.trace:
        assert active[j], "move on a retired or immutable coordinate"
        assert sign(delta) == sign(adv[j]), "move against the adversary slope"
        slopes_seen.append(abs(adv[j]) / query.cost.weights[j])
        if updated:
            assert x[j] + delta == pytest.approx(0.0, abs=1e-12)
            x[j] = 0.0
            flipped = base.weights[j] + alpha * sign(query.x0[j])
            if flipped != 0.0 and sign(flipped) == sign(delta):
                adv[j] = flipped
            else:
                active[j] = False
        else:
            x[j] += delta
    np.testing.assert_allclose(x, plan.x_prime, atol=1e-12)
    return slopes_seen


def test_trace_properties_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        mask = rng.random(d) < 0.2
        if mask.all():
            mask[0] = False
        q = _query(
            np.round(rng.uniform(-3, 3, d), 3),
            float(rng.uniform(0.02, 1.5)),
            immutable_mask=mask,
        )
        n = _nbhd(
            rng.uniform(-2, 2, d),
            float(rng.uniform(0.0, 1.0)),
            intercept=float(rng.uniform(-1, 1)),
            perturb_intercept=bool(rng.integers(0, 2)),
        )
        plan = optimal_robust_recourse(q, n)
        assert len(plan.trace) <= 2 * d
        slopes = _replay(q, n, plan)
        # unit costs: the selected slope sequence never increases
        for a, b in zip(slopes, slopes[1:]):
            assert b <= a + 1e-12
        assert plan.l1_cost == pytest.approx(weighted_l1(q, plan.x_prime), abs=1e-12)
        worst = best_response(n, plan.x_prime)
        assert plan.worst_case_total == pytest.approx(
            eval_total_cost(q, plan.x_prime, worst), abs=1e-12
        )
        # never worse than staying put
        stay = eval_total_cost(q, q.x0, best_response(n, q.x0))
        assert plan.worst_case_total <= stay + 1e-12


# ----------------------------------------------------------- stacked rows


def _reference_step(lam, s0, slope, loss):
    """The 1-D step written out on its own, with the BCE logit in ``math.log``."""
    if slope <= 0.0:
        return 0.0, False
    if loss is LossKind.BCE:
        if s0 >= SCORE_CAP or lam >= slope * sigmoid(-s0):
            return 0.0, False
        if lam <= 0.0 or lam / slope < sigmoid(-SCORE_CAP):
            return (SCORE_CAP - s0) / slope, True
        p = 1.0 - lam / slope
        return max(0.0, (math.log(p / (1.0 - p)) - s0) / slope), False
    # the squared loss's convex part (1 - s)_+^2 is stationary at 1 - lam / (2 slope)
    return max(0.0, (1.0 - lam / (2.0 * slope) - s0) / slope), False


def _reference_robust(q, n):
    """One query solved by a scalar greedy loop with per-row ``x @ adv`` scores.

    The squared loss is solved as its convex part (1 - s)_+^2. A start scoring
    at most 0 totals exactly 1, and its row stays at x0 when (a) the first
    move's convex total is at least 1, or (b) the finished plan's clamped
    worst-case total is at least 1.

    Returns (x', trace, saturated, l1 cost, worst-case total), the costs from
    ``weighted_l1`` and ``eval_total_cost`` against ``best_response``.
    """
    base, alpha, d = n.base.weights, n.alpha, q.dim
    x, cost_w = q.x0.copy(), q.cost.weights
    adv = base - alpha * sign(x)
    active = ~q.immutable_mask
    for i in range(d):
        if active[i] and x[i] == 0.0:
            if abs(base[i]) > alpha:
                adv[i] = base[i] - alpha * sign(base[i])
            else:
                active[i] = False
    trace, saturated, low = [], False, False
    for k in range(2 * d + 2):
        slopes = np.where(active, np.abs(adv) / cost_w, -np.inf)
        j = int(np.argmax(slopes))
        slope = float(slopes[j])
        if slope <= 0.0:
            break
        s_cur = float(x @ adv + n.worst_intercept)
        t, sat = _reference_step(q.lam, s_cur, slope, q.loss)
        if k == 0 and s_cur <= 0.0 and q.loss is LossKind.SQUARED:
            low = True
            if float(_convex_squared(s_cur + slope * t)) + q.lam * t >= 1.0:  # test (a)
                break
        if t <= solver.STEP_TOLERANCE:
            break
        direction, move = sign(adv[j]), t / cost_w[j]
        if x[j] * direction < 0.0 and move > abs(x[j]):
            trace.append((j, float(-x[j]), True))
            x[j] = 0.0
            flipped = base[j] + alpha * sign(q.x0[j])
            if flipped != 0.0 and sign(flipped) == direction:
                adv[j] = flipped
            else:
                active[j] = False
        else:
            x[j] += direction * move
            saturated = saturated or sat
            trace.append((j, float(direction * move), False))
    if low and eval_total_cost(q, x, best_response(n, x)) >= 1.0:  # test (b)
        x, trace = q.x0.copy(), []
    total = eval_total_cost(q, x, best_response(n, x))
    return x, tuple(trace), saturated, weighted_l1(q, x), total


def _random_stack(rng, loss):
    """A stack of rows with their own x0, lam, ball and mask and a shared cost."""
    d = int(rng.choice([1, 2, 3, 5, 20, 200]))
    m = int(rng.integers(1, 26 if d < 200 else 4))
    x0s = rng.uniform(-2, 2, (m, d))
    x0s[rng.random((m, d)) < 0.15] = 0.0
    lam = rng.choice([0.0, 0.05, 0.3, 1.0], m)
    balls = [
        _nbhd(rng.uniform(-2, 2, d), float(rng.choice([0.0, 0.02, 0.3, 1.0])),
              intercept=float(rng.uniform(-1, 1)), perturb_intercept=bool(rng.integers(2)))
        for _ in range(m)
    ]
    masks = rng.random((m, d)) < 0.2
    cost = CostSpec(rng.uniform(0.5, 2.0, d)) if rng.integers(2) else CostSpec.unit(d)
    return x0s, lam, balls, masks, cost


def test_stacked_rows_equal_one_row_calls_and_reference_bitwise():
    # both losses; squared-loss rows solve the convex part, or stay at x0
    rng = np.random.default_rng(15)
    seen = {"crossing": 0, "saturated": 0, "moves": 0, "stayed": 0}
    for k in range(300):
        loss = (LossKind.BCE, LossKind.SQUARED)[k % 2]
        x0s, lam, balls, masks, cost = _random_stack(rng, loss)
        got = optimal_robust_recourse_batch(x0s, lam, balls, loss, cost, masks)
        assert got.shape == x0s.shape
        for i, ball in enumerate(balls):
            q = _query(x0s[i], lam[i], loss=loss, cost=cost, immutable_mask=masks[i])
            x, trace, saturated, l1, total = _reference_robust(q, ball)
            plan = optimal_robust_recourse(q, ball)
            assert got[i].tobytes() == plan.x_prime.tobytes() == x.tobytes()
            assert [(j, delta.hex(), up) for j, delta, up in plan.trace] == [
                (j, delta.hex(), up) for j, delta, up in trace
            ]
            assert plan.saturated == saturated
            assert (plan.l1_cost.hex(), plan.worst_case_total.hex()) == (l1.hex(), total.hex())
            seen["crossing"] += any(up for _, _, up in trace)
            seen["saturated"] += saturated
            seen["moves"] += len(trace)
            seen["stayed"] += loss is LossKind.SQUARED and not trace and total == 1.0
    assert min(seen.values()) > 0
    # the squared-loss worked case: its first move crosses zero, and the plan
    # there totals 1.537 against x0's 1, so test (b) keeps x0, in a stack and alone
    worked = _query([1.834], 0.3, loss=LossKind.SQUARED, cost=CostSpec([0.976]))
    ball = _nbhd([-0.395], 0.5, intercept=0.107)
    stack = optimal_robust_recourse_batch(np.array([[1.834], [-1.0]]), 0.3, ball,
                                          LossKind.SQUARED, CostSpec([0.976]))
    plan = optimal_robust_recourse(worked, ball)
    assert stack[0, 0] == plan.x_prime[0] == 1.834
    assert (plan.l1_cost, plan.worst_case_total, plan.trace, plan.saturated) == (0.0, 1.0, (), False)


def test_stacked_bce_steps_keep_the_scalar_logit():
    # thousands of interior BCE steps in one stack: a logit taken over an array
    # (numpy's SIMD log) differs from math.log on about 0.15% of them
    rng = np.random.default_rng(17)
    m, d = 4000, 3
    x0s = rng.uniform(-2, 2, (m, d))
    lam = rng.uniform(0.02, 1.0, m)
    balls = [_nbhd(rng.uniform(-3, 3, d), float(rng.uniform(0.0, 0.5)),
                   intercept=float(rng.uniform(-2, 0))) for _ in range(m)]
    got = optimal_robust_recourse_batch(x0s, lam, balls)
    interior = 0
    for i, ball in enumerate(balls):
        x, trace, *_ = _reference_robust(_query(x0s[i], lam[i]), ball)
        assert got[i].tobytes() == x.tobytes(), i
        interior += any(not up for _, _, up in trace)
    assert interior > 3000


def test_batch_shares_or_stacks_each_argument():
    # a shared lam, ball or mask gives the rows that giving it per row gives
    rng = np.random.default_rng(16)
    x0s = rng.uniform(-2, 2, (6, 3))
    ball, mask = _nbhd([1.0, -0.5, 0.3], 0.2, intercept=-0.3), np.array([False, True, False])
    shared = optimal_robust_recourse_batch(x0s, 0.1, ball, immutable_mask=mask)
    stacked = optimal_robust_recourse_batch(x0s, [0.1] * 6, [ball] * 6, LossKind.BCE,
                                            CostSpec.unit(3), np.tile(mask, (6, 1)))
    assert shared.tobytes() == stacked.tobytes()
    assert (shared[:, 1] == x0s[:, 1]).all()


def test_batch_inputs_must_match_the_stack_shape():
    starts, ball = np.zeros((3, 2)), _nbhd([1.0, 1.0], 0.1)
    bad = [
        (0.1, [ball] * 2, {}),
        (0.1, [ball] * 4, {}),
        (0.1, _nbhd([1.0, 1.0, 1.0], 0.1), {}),
        (0.1, [ball, ball, _nbhd([1.0, 1.0, 1.0], 0.1)], {}),
        ([0.1], ball, {}),
        ([0.1, 0.1], ball, {}),
        (np.full((3, 1), 0.1), ball, {}),
        (0.1, ball, dict(immutable_mask=[True])),
        (0.1, ball, dict(immutable_mask=np.zeros((2, 2), dtype=bool))),
        (0.1, ball, dict(immutable_mask=np.zeros((3, 1), dtype=bool))),
        (0.1, ball, dict(cost=CostSpec([1.0]))),
        (0.1, ball, dict(cost=CostSpec([1.0, 1.0, 1.0]))),
    ]
    for lam, balls, kw in bad:
        with pytest.raises(DimensionMismatchError):
            optimal_robust_recourse_batch(starts, lam, balls, **kw)
    for lam in (-0.1, [0.1, math.nan, 0.1], math.inf):
        with pytest.raises(ValueError, match="lam must be finite and nonnegative"):
            optimal_robust_recourse_batch(starts, lam, ball)


@pytest.mark.parametrize("batch", ["exact", "roar"])
def test_batch_refuses_starts_a_query_refuses(batch):
    # a non-finite start fails as RecourseQuery fails, starts must be an (m, d)
    # stack, and the ball count must match the rows
    from robust_recourse.roar import RoarConfig, roar_recourse_batch

    ball = _nbhd([1.0, -0.5], 0.2)
    if batch == "exact":
        solve = optimal_robust_recourse_batch
    else:
        def solve(x0s, lam, nbhd):
            return roar_recourse_batch(x0s, lam, nbhd, RoarConfig(max_iters=5))
    for bad in (math.inf, -math.inf, math.nan):
        starts = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValueError, match="x0 must be finite"):
            RecourseQuery(x0=starts[1], lam=0.1)
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve(starts, 0.1, ball)
    for starts in (np.array([0.5, 0.5]), np.zeros((2, 2, 1)), np.float64(0.5)):
        with pytest.raises(DimensionMismatchError, match="not an \\(m, d\\) stack"):
            solve(starts, 0.1, ball)
    with pytest.raises(DimensionMismatchError, match="0 balls"):  # an empty ball list
        solve(np.zeros((2, 2)), 0.1, [])
    assert solve(np.array([[0.5, 0.5]]), 0.1, ball).shape == (1, 2)


# ----------------------------------------------------------------- oracle


def test_oracle_agrees_on_default_grid():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    plan = optimal_robust_recourse(q, n)
    _, val = minimax_oracle(q, n)
    assert val == pytest.approx(plan.worst_case_total, abs=1e-3)
    assert val >= plan.worst_case_total - 1e-12  # grid can only overshoot


def test_oracle_zero_alpha_matches_consistent():
    theta = ModelParams(weights=np.array([0.8]), intercept=0.1)
    q = _query([0.5], 0.2)
    plan = consistent_recourse(q, theta)
    _, val = minimax_oracle(q, Neighborhood(theta, 0.0), GridSpec(step=0.005, refine_levels=3))
    assert val == pytest.approx(plan.worst_case_total, abs=1e-8)


def test_oracle_large_lam_sits_at_start():
    q = _query([0.25], 5.0)
    n = _nbhd([1.0], 0.2)
    x, val = minimax_oracle(q, n, GridSpec(half_range=2.0, step=0.01))
    assert x[0] == pytest.approx(0.25)  # x0 snapped onto the axis exactly
    assert val == pytest.approx(
        eval_total_cost(q, q.x0, best_response(n, q.x0)), abs=1e-12
    )


@pytest.mark.parametrize("solve", [optimal_robust_recourse, minimax_oracle])
def test_one_query_solvers_refuse_a_ball_of_another_width(solve):
    with pytest.raises(DimensionMismatchError, match="model has 3 weights, query has 2 features"):
        solve(_query([0.0, 0.0], 0.1), _nbhd([1.0] * 3, 0.1))


def test_oracle_rejects_high_dim():
    with pytest.raises(ValueError):
        minimax_oracle(_query([0.0] * 4, 0.1), _nbhd([1.0] * 4, 0.1))
    with pytest.raises(ValueError):
        minimax_oracle(
            _query([0.0] * 5, 0.1, immutable_mask=[True] + [False] * 4), _nbhd([1.0] * 5, 0.1)
        )


def test_oracle_counts_mutable_dimensions():
    # Five features, two of them mutable: the scan is 2-D over 64 corners.
    mask = [True, False, True, False, True]
    q = _query([0.4, -0.8, 1.2, 0.3, -0.5], 0.1, immutable_mask=mask)
    n = _nbhd([0.7, 1.1, -0.6, -0.9, 0.4], 0.2, intercept=-0.3)
    plan = optimal_robust_recourse(q, n)
    x, val = minimax_oracle(q, n, GridSpec(refine_levels=4))
    np.testing.assert_array_equal(x[np.array(mask)], q.x0[np.array(mask)])
    assert abs(val - plan.worst_case_total) <= 1e-6


def _reference_scan(query, neighborhood, free, axes):
    """The scan as a point matrix: every grid point against every corner."""
    corner_w, corner_b = neighborhood.corners()
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    n_pts = mesh[0].size if mesh else 1
    pts = np.tile(query.x0, (n_pts, 1))
    for col, m in zip(free, mesh):
        pts[:, col] = m.ravel()
    worst_loss = eval_loss(query.loss, pts @ corner_w.T + corner_b).max(axis=1)
    totals = worst_loss + query.lam * (np.abs(pts - query.x0) @ query.cost.weights)
    k = int(np.argmin(totals))
    return pts[k].copy(), float(totals[k])


def test_oracle_scan_matches_point_matrix_reference(monkeypatch):
    rng = np.random.default_rng(17)
    cases = []
    for t in range(40):
        d = 1 + t % 3
        mask = np.ones(d, dtype=bool) if t % 10 == 9 else rng.random(d) < 0.3
        loss = (LossKind.BCE, LossKind.SQUARED)[t % 2]
        q = _query(
            rng.uniform(-2, 2, d),
            float(rng.choice([0.05, 0.3, 1.0])),
            loss=loss,
            cost=CostSpec(rng.uniform(0.5, 2.0, d)),
            immutable_mask=mask,
        )
        n = _nbhd(
            rng.uniform(-2, 2, d),
            float(rng.choice([0.1, 0.5])),
            intercept=float(rng.uniform(-1, 1)),
            perturb_intercept=bool(rng.integers(2)),
        )
        step = {1: 0.01, 2: 0.05, 3: 0.2}[d]
        grid = GridSpec(half_range=3.0, step=step, refine_levels=(0, 2)[t // 3 % 2])
        cases.append((q, n, grid, minimax_oracle(q, n, grid)))
    assert any(q.immutable_mask.all() for q, *_ in cases)

    monkeypatch.setattr(solver, "_grid_scan", _reference_scan)
    for q, n, grid, (x, val) in cases:
        x_ref, val_ref = minimax_oracle(q, n, grid)
        assert abs(val - val_ref) <= 1e-12
        # An axis can hold x0 and a linspace point a few ulps from it; the
        # last bit of a total decides between the two, so compare to 1e-12.
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=1e-12)


def _corner_loop_scan(query, neighborhood, free, axes):
    """The scan as a loop over the enumerated corners, one score pass each."""
    x0 = query.x0
    coords = list(x0)
    for k, (i, a) in enumerate(zip(free, axes)):
        coords[i] = a.reshape([-1 if j == k else 1 for j in range(len(free))])
    low = np.full([a.size for a in axes], math.inf)
    for w, b in zip(*neighborhood.corners()):
        s = coords[0] * w[0]
        for c, w_i in zip(coords[1:], w[1:]):
            s = s + c * w_i
        s += b
        np.minimum(low, s, out=low)
    cost = 0.0
    for i in free:
        cost = cost + query.cost.weights[i] * np.abs(coords[i] - x0[i])
    totals = np.asarray(eval_loss(query.loss, low) + query.lam * cost)
    k = int(np.argmin(totals))
    best_x = x0.copy()
    for i, a, j in zip(free, axes, np.unravel_index(k, totals.shape)):
        best_x[i] = a[j]
    return best_x, float(totals.flat[k])


def test_oracle_scan_equals_corner_enumeration_bitwise(monkeypatch):
    # The per-feature least terms must reproduce the corner loop's point and
    # value bit for bit, not to a tolerance: the argument is monotone rounding.
    rng = np.random.default_rng(29)
    cases = []
    for t in range(64):
        d = 1 + t % 8
        n_free = min(d, t % 4)
        mask = np.ones(d, dtype=bool)
        mask[rng.choice(d, n_free, replace=False)] = False
        x0 = rng.uniform(-2, 2, d)
        x0[rng.random(d) < 0.3] = 0.0
        weights = rng.uniform(-2, 2, d)
        weights[rng.random(d) < 0.3] = 0.0
        q = _query(
            x0,
            float(rng.choice([0.05, 0.3, 1.0])),
            loss=(LossKind.BCE, LossKind.SQUARED)[t % 2],
            cost=CostSpec(rng.uniform(0.5, 2.0, d)),
            immutable_mask=mask,
        )
        n = _nbhd(
            weights,
            float(rng.choice([0.0, 0.1, 0.5])),
            intercept=float(rng.choice([0.0, rng.uniform(-1, 1)])),
            perturb_intercept=bool(rng.integers(2)),
        )
        step = {0: 0.1, 1: 0.01, 2: 0.05, 3: 0.25}[n_free]
        grid = GridSpec(half_range=2.0, step=step, refine_levels=int(n_free < 3 and t // 4 % 2))
        cases.append((q, n, grid, minimax_oracle(q, n, grid)))
    assert {float(n.alpha) for _, n, _, _ in cases} >= {0.0, 0.1, 0.5}
    assert {int((~q.immutable_mask).sum()) for q, *_ in cases} == {0, 1, 2, 3}

    monkeypatch.setattr(solver, "_grid_scan", _corner_loop_scan)
    for q, n, grid, (x, val) in cases:
        x_ref, val_ref = minimax_oracle(q, n, grid)
        assert x.tobytes() == x_ref.tobytes()
        assert val.hex() == val_ref.hex()


def test_oracle_never_enumerates_corners(monkeypatch):
    # Three mutable of 40 features: enumerating 2^41 corners could not finish.
    def refuse(self):
        raise AssertionError("the oracle enumerated the ball's corners")

    monkeypatch.setattr(Neighborhood, "corners", refuse)
    rng = np.random.default_rng(41)
    mask = np.ones(40, dtype=bool)
    mask[[4, 17, 33]] = False
    q = _query(rng.uniform(-1, 1, 40), 0.3, immutable_mask=mask)
    n = _nbhd(rng.uniform(-1, 1, 40), 0.05, intercept=0.2)
    plan = optimal_robust_recourse(q, n)
    x, val = minimax_oracle(q, n, GridSpec(half_range=8.0, step=0.4, refine_levels=4))
    np.testing.assert_array_equal(x[mask], q.x0[mask])
    assert abs(val - plan.worst_case_total) <= 1e-6


def test_squared_loss_solver_matches_dense_grid():
    # every combination the CLI takes: cost weights, immutable masks, zeros in
    # x0 and both intercept modes
    rng = np.random.default_rng(5)
    gaps = []
    for _ in range(150):
        d = int(rng.integers(1, 3))
        alpha = float(rng.choice((0.1, 0.5)))
        lam = float(rng.choice((0.05, 0.3, 1.0)))
        weights = rng.uniform(-3.0, 3.0, d)
        intercept = float(rng.uniform(-1.0, 1.0))
        x0 = rng.uniform(-3.0, 3.0, d)
        x0[rng.random(d) < 0.2] = 0.0
        mask = rng.random(d) < 0.2
        cost = CostSpec(rng.uniform(0.5, 2.0, d))
        n = _nbhd(weights, alpha, intercept=intercept, perturb_intercept=bool(rng.integers(2)))
        q = _query(x0, lam, loss=LossKind.SQUARED, cost=cost, immutable_mask=mask)
        plan = optimal_robust_recourse(q, n)
        # The loss is at most 1, so no optimum lies beyond 1 / (lam * c_i) of x0.
        # The grid value bounds the minimum from above: a narrower window or a
        # coarser step can hide a failure but never invent one. No refinement,
        # since it assumes a convex objective.
        half = min(6.0, 1.0 / (lam * cost.weights.min()))
        _, val = minimax_oracle(q, n, GridSpec(half_range=half, step=0.002 if d == 1 else 0.02))
        gaps.append(plan.worst_case_total - val)
    n_over = sum(g > 1e-2 for g in gaps)
    assert max(gaps) <= 1e-2, f"{n_over} of 150 above the grid, worst {max(gaps):.3g}"


# ------------------------------------------------------------ plumbing


def test_plan_serialization_round_trip():
    plan = optimal_robust_recourse(_query([0.0], 0.1), _nbhd([1.0], 0.5, perturb_intercept=False))
    as_dict = plan.to_dict()
    assert set(as_dict) == {"x_prime", "l1_cost", "worst_case_total", "saturated", "trace"}
    rebuilt = RecoursePlan(
        x_prime=np.array(as_dict["x_prime"]),
        l1_cost=as_dict["l1_cost"],
        worst_case_total=as_dict["worst_case_total"],
        trace=tuple(tuple(t) for t in as_dict["trace"]),
        saturated=as_dict["saturated"],
    )
    assert rebuilt.worst_case_total == plan.worst_case_total
    assert "x_prime" in plan.to_json()


def test_config_validation():
    with pytest.raises(ValueError):
        GridSpec(half_range=-1.0)
    with pytest.raises(ValueError):
        GridSpec(step=0.0)
    with pytest.raises(ValueError):
        GridSpec(refine_levels=-1)
    # the settings type rule: a number is never a boolean or a string
    for kw, message in ((dict(refine_levels=True), "refine_levels must be an integer"),
                        (dict(refine_levels=2.0), "refine_levels must be an integer"),
                        (dict(step="0.1"), "step must be a number or null"),
                        (dict(half_range=False), "half_range must be a number")):
        with pytest.raises(ValueError, match=message):
            GridSpec(**kw)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GridSpec(half_range=bad)
        with pytest.raises(ValueError):
            GridSpec(step=bad)
