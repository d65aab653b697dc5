import math

import numpy as np
import pytest

from robust_recourse.adversary import Neighborhood, best_response
from robust_recourse.glm import (
    CostSpec,
    DimensionMismatchError,
    LossKind,
    ModelParams,
    RecourseQuery,
    eval_loss,
    eval_total_cost,
    score,
    weighted_l1,
)
from robust_recourse.solver import consistent_recourse, optimal_robust_recourse
from robust_recourse import tradeoff
from robust_recourse.tradeoff import (
    _STEP_GRID,
    Frontier,
    TradeoffQuery,
    _blend,
    blended_recourse,
    consistency,
    pareto_frontier,
    robustness,
    smoothness,
    validity,
)


def _blended_value(tq, x):
    """The blended objective at one point, or at every row of a stack of points."""
    x = np.asarray(x, dtype=float)
    rows = tradeoff._stack([tq.query], [tq.neighborhood], [[tq.prediction]], [tq.beta])[0]
    return tradeoff._value(rows, tq.query.loss, x).reshape(x.shape[:-1])


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
    assert robustness(q, n, plan.x_prime, plan) == pytest.approx(0.0, abs=1e-15)


def test_robustness_of_staying_put():
    # Worst-case total at x0 = 0 is log 2; the robust optimum costs
    # 0.5004024235381879, so staying put gives up exactly the difference.
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    robust = optimal_robust_recourse(q, n)
    assert robustness(q, n, q.x0, robust) == pytest.approx(0.1927447570217574, abs=1e-12)
    assert robustness(q, n, q.x0, robust) == pytest.approx(
        math.log(2.0) - 0.5004024235381879, abs=1e-14
    )


def test_robustness_nonnegative_random():
    rng = np.random.default_rng(20)
    for _ in range(100):
        tq = _random_tq(rng)
        x = rng.uniform(-3, 3, tq.query.dim)
        robust = optimal_robust_recourse(tq.query, tq.neighborhood)
        assert robustness(tq.query, tq.neighborhood, x, robust) >= -1e-9


def test_consistency_zero_at_consistent_plan():
    rng = np.random.default_rng(21)
    for _ in range(20):
        tq = _random_tq(rng)
        plan = consistent_recourse(tq.query, tq.prediction)
        assert consistency(tq.query, tq.prediction, plan.x_prime, plan) == pytest.approx(0.0, abs=1e-12)
        robust = optimal_robust_recourse(tq.query, tq.neighborhood)
        assert consistency(tq.query, tq.prediction, robust.x_prime, plan) >= -1e-9


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
    xs = np.linspace(lo, hi, n)
    return float(_blended_value(tq, xs[:, None]).min())


def test_blended_interior_close_to_dense_grid():
    q = _query([0.0], 0.1)
    n = _nbhd([1.0], 0.5, perturb_intercept=False)
    pred = ModelParams(weights=np.array([1.3]), intercept=0.0)
    tq = TradeoffQuery(q, n, pred, 0.5)
    plan = blended_recourse(tq)
    got = _blended_value(tq, plan.x_prime)
    assert got <= _dense_blend_min(tq) + 1e-3


def test_blended_never_worse_than_start_or_endpoints():
    rng = np.random.default_rng(23)
    for _ in range(40):
        tq = _random_tq(rng)
        plan = blended_recourse(tq)
        val = _blended_value(tq, plan.x_prime)
        assert val <= _blended_value(tq, tq.query.x0) + 1e-12
        robust = optimal_robust_recourse(tq.query, tq.neighborhood)
        cons = consistent_recourse(tq.query, tq.prediction)
        assert val <= _blended_value(tq, robust.x_prime) + 1e-2
        assert val <= _blended_value(tq, cons.x_prime) + 1e-2


def _reference_value(tq, x):
    """The blended objective as a dot product, the way the incremental search wrote it."""
    q, n = tq.query, tq.neighborhood
    ws = float(
        x @ n.base.weights
        - n.alpha * np.abs(x).sum()
        + n.base.intercept
        - (n.alpha if n.perturb_intercept else 0.0)
    )
    ps = score(tq.prediction, x)
    blend = tq.beta * eval_loss(q.loss, ws) + (1.0 - tq.beta) * eval_loss(q.loss, ps)
    return float(blend + q.lam * weighted_l1(q, x))


def _reference_blend(tq, robust, consistent):
    """Interior-beta blend with a per-coordinate loop and running dot products.

    Returns the plan's point, its worst-case total, and how many moves the
    search from x0 made.
    """
    q, n = tq.query, tq.neighborhood
    d = q.dim
    b_eff = n.base.intercept - (n.alpha if n.perturb_intercept else 0.0)

    def descend(x_start):
        x = x_start.copy()
        current = _reference_value(tq, x)
        steps = 0
        for _ in range(4 * d):
            best_gain, best_j, best_delta = 0.0, -1, 0.0
            dot0 = float(x @ n.base.weights)
            pdot = score(tq.prediction, x)
            abs_sum = float(np.abs(x).sum())
            cost_sum = weighted_l1(q, x)
            for j in range(d):
                if q.immutable_mask[j]:
                    continue
                xj_new = x[j] + _STEP_GRID
                ws = (
                    dot0
                    + n.base.weights[j] * (xj_new - x[j])
                    - n.alpha * (abs_sum - abs(x[j]) + np.abs(xj_new))
                    + b_eff
                )
                ps = pdot + tq.prediction.weights[j] * (xj_new - x[j])
                cost = cost_sum - q.cost.weights[j] * abs(x[j] - q.x0[j])
                cost += q.cost.weights[j] * np.abs(xj_new - q.x0[j])
                vals = (
                    tq.beta * eval_loss(q.loss, ws)
                    + (1.0 - tq.beta) * eval_loss(q.loss, ps)
                    + q.lam * cost
                )
                k = int(np.argmin(vals))
                gain = current - float(vals[k])
                if gain > best_gain:
                    best_gain, best_j, best_delta = gain, j, float(_STEP_GRID[k])
            if best_j < 0 or best_gain <= 1e-9:
                break
            x[best_j] += best_delta
            current -= best_gain
            steps += 1
        return x, current, steps

    x, current, steps = descend(q.x0)
    for endpoint in (robust, consistent):
        if _reference_value(tq, endpoint.x_prime) < current - 1e-12:
            x2, val2, _ = descend(endpoint.x_prime)
            if val2 < current - 1e-12:
                x, current = x2, val2
    return x, eval_total_cost(q, x, best_response(n, x)), steps


def test_blend_matches_per_coordinate_reference_exactly():
    # the vectorised search must make the same moves as a per-coordinate loop
    rng = np.random.default_rng(28)
    seen = set()
    for case in range(60):
        d = int(rng.choice([1, 2, 3, 5, 20]))
        mask = rng.random(d) < 0.3
        if case == 0:
            mask[:] = True  # nothing can move: the plan stays at x0
        x0 = rng.uniform(-2, 2, d)
        x0[rng.random(d) < 0.2] = 0.0
        loss = LossKind.SQUARED if case % 2 else LossKind.BCE
        q = _query(x0, float(rng.uniform(0.02, 0.4)), loss=loss, immutable_mask=mask,
                   cost=CostSpec(rng.uniform(0.5, 2.0, d)) if rng.random() < 0.5 else None)
        fixed = bool(rng.random() < 0.5)
        n = _nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.6)),
                  intercept=float(rng.uniform(-1, 1)), perturb_intercept=not fixed)
        shift = 0.0 if fixed else float(rng.uniform(-n.alpha, n.alpha))
        pred = ModelParams(n.base.weights + rng.uniform(-n.alpha, n.alpha, d), n.base.intercept + shift)
        tq = TradeoffQuery(q, n, pred, float(rng.uniform(0.05, 0.95)))
        robust = optimal_robust_recourse(q, n)
        consistent = consistent_recourse(q, pred)
        x_ref, worst_ref, _ = _reference_blend(tq, robust, consistent)
        (plan,) = _blend(tq, [tq.beta], robust, consistent)
        np.testing.assert_array_equal(plan.x_prime, x_ref)
        assert plan.trace == ()  # only the exact solvers record moves
        assert plan.worst_case_total == worst_ref
        seen.add((d, loss, fixed, bool(mask.all())))
        if case == 0:
            np.testing.assert_array_equal(plan.x_prime, q.x0)
    assert {d for d, *_ in seen} == {1, 2, 3, 5, 20}
    assert {fixed for _, _, fixed, _ in seen} == {True, False}


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
    (front,) = pareto_frontier(q, n, [pred], betas)
    pts = front.points
    assert [p.beta for p in pts] == betas
    assert pts[-1].robustness == pytest.approx(0.0, abs=1e-12)
    assert pts[0].consistency == pytest.approx(0.0, abs=1e-12)
    for a, b in zip(pts, pts[1:]):
        assert b.robustness <= a.robustness + 1e-3
        assert b.consistency >= a.consistency - 1e-3


def _random_problem(rng):
    """A TradeoffQuery over either loss, with random costs, mask and intercept mode."""
    d = int(rng.choice([1, 2, 3, 5, 20]))
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
    return TradeoffQuery(q, n, _random_prediction(rng, n), 1.0)


def _random_prediction(rng, n):
    """A model drawn uniformly from the ball, with the base intercept when it is fixed."""
    shift = float(rng.uniform(-n.alpha, n.alpha)) if n.perturb_intercept else 0.0
    return ModelParams(
        weights=n.base.weights + rng.uniform(-n.alpha, n.alpha, n.base.dim),
        intercept=n.base.intercept + shift,
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: the step-grid blend is a heuristic, and its interior betas "
    "break the frontier order that exact blends keep; the exact blend from the dual fixes it",
)
def test_frontiers_are_ordered_in_beta():
    # Exact minimizers of beta W + (1 - beta) P at beta_a < beta_b have W no
    # higher and P no lower at beta_b: robustness never rises with beta, and
    # consistency never falls
    rng = np.random.default_rng(31)
    betas = [k / 10 for k in range(11)]
    breaks = []
    for draw in range(12):
        d = int(rng.choice([1, 2, 3, 5]))
        cost = CostSpec(rng.uniform(0.5, 2.0, d)) if draw % 2 else CostSpec.unit(d)
        mask = rng.random(d) < 0.2
        mask[0] = False
        queries = [_query(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.8)), cost=cost,
                          immutable_mask=mask) for _ in range(20)]
        balls = [_nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.6)),
                       intercept=float(rng.uniform(-1, 1)), perturb_intercept=bool(rng.integers(2)))
                 for _ in queries]
        preds = [[_random_prediction(rng, n) for _ in range(2)] for n in balls]
        for fronts in tradeoff._frontiers(queries, balls, preds, betas):
            for front in fronts:
                rob = [p.robustness for p in front.points]
                con = [p.consistency for p in front.points]
                if any(b > a + 1e-9 for a, b in zip(rob, rob[1:])) or any(
                        b < a - 1e-9 for a, b in zip(con, con[1:])):
                    breaks.append((draw, rob, con))
    assert breaks == []


def _fold_draw(rng, template, n_instances, draw):
    """Instances sharing the template's d, loss, cost weights and mask; x0, lam and ball vary.

    Each instance has 1-3 predictions, the first instance's led by the
    template's; in every third draw of several instances, the last has none.
    """
    q0, d = template.query, template.query.dim
    queries, balls = [q0], [template.neighborhood]
    for _ in range(n_instances - 1):
        queries.append(_query(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.8)), loss=q0.loss,
                              cost=q0.cost, immutable_mask=q0.immutable_mask))
        balls.append(_nbhd(rng.uniform(-2, 2, d), float(rng.uniform(0.05, 0.6)),
                           intercept=float(rng.uniform(-1, 1)),
                           perturb_intercept=bool(rng.random() < 0.5)))
    pred_sets = [[template.prediction if k == 0 else _random_prediction(rng, n)]
                 + [_random_prediction(rng, n) for _ in range((draw + k) % 3)]
                 for k, n in enumerate(balls)]
    if n_instances > 1 and draw % 3 == 0:
        pred_sets[-1] = []
    return queries, balls, pred_sets


def test_beta_sweeps_equal_per_beta_blends_exactly(monkeypatch):
    # A fold's stack blends every (instance, prediction, beta) row in one
    # search, from endpoints solved in two exact loops. Each value must be the
    # one a one-beta blend of that instance and prediction gives from freshly
    # solved endpoints, and the one a per-coordinate loop gives; each
    # instance's values must be those of its own one-instance call.
    descend, searches = tradeoff._descend, []

    def spy(rows, loss, start):  # records each stacked search's rows and starts
        searches.append((rows, start.copy()))
        return descend(rows, loss, start)

    pinned = [
        # At beta = 0.5 the robust restart ends below the consistent plan's
        # value, so the consistent plan, which beats the search from x0, must
        # not restart.
        TradeoffQuery(
            _query([1.6], 0.4, loss=LossKind.SQUARED),
            _nbhd([-1.4], 0.3, intercept=0.5, perturb_intercept=False),
            ModelParams(weights=np.array([-1.7]), intercept=0.5),
            1.0,
        ),
        # Both coordinates alike: every move ties across them, and the lower
        # coordinate must win.
        TradeoffQuery(
            _query([-1.0, -1.0], 0.1),
            _nbhd([1.0, 1.0], 0.2),
            ModelParams(weights=np.array([1.1, 1.1]), intercept=0.1),
            1.0,
        ),
    ]
    rng = np.random.default_rng(27)
    losses, dims, sizes, folds = set(), set(), set(), set()
    staggered, mixed_modes, equal_correct = 0, 0, 0
    restarts = {"robust": 0, "consistent": 0}
    for i in range(32):
        template = pinned[i] if i < len(pinned) else _random_problem(rng)
        size = 1 if i < len(pinned) else int(rng.integers(1, 4))
        queries, balls, pred_sets = _fold_draw(rng, template, size, i)
        # some correct models equal a prediction; each is solved as its own row
        corrects = [ModelParams(ps[-1].weights.copy(), ps[-1].intercept)
                    if ps and rng.random() < 0.3 else _random_prediction(rng, n)
                    for ps, n in zip(pred_sets, balls)]
        inner = [0.5, *rng.uniform(0.01, 0.99, 7)]
        betas = [inner[0]] + inner + [0.0, 1.0]  # 9 interior rows, one beta twice
        rng.shuffle(betas)
        loss, d = queries[0].loss, queries[0].dim
        losses.add(loss)
        dims.add(d)
        folds.add(len(queries))
        sizes.update(len(ps) for ps in pred_sets)
        mixed_modes += len({n.perturb_intercept for n in balls}) > 1
        searches.clear()
        monkeypatch.setattr(tradeoff, "_descend", spy)
        fronts = tradeoff._frontiers(queries, balls, pred_sets, betas)
        monkeypatch.undo()
        regrets = tradeoff._regrets(queries, balls, pred_sets, corrects, betas)
        assert len(fronts) == len(regrets) == len(queries)
        monkeypatch.setattr(tradeoff, "_BLOCK_ENTRIES", 4 * d)  # search blocks of 4 rows
        blocked = tradeoff._frontiers(queries, balls, pred_sets, betas)
        monkeypatch.undo()
        assert [f.points for fs in blocked for f in fs] == [f.points for fs in fronts for f in fs]

        # one search from x0 over every interior row of the fold, then the
        # restarts that have rows, the robust plan's first
        robust = [optimal_robust_recourse(q, n) for q, n in zip(queries, balls)]
        consistent = {(k, j): consistent_recourse(q, p) for k, (q, ps)
                      in enumerate(zip(queries, pred_sets)) for j, p in enumerate(ps)}
        (rows, start), *ends = searches
        assert len(rows.x0) == 9 * len(consistent) and (start == rows.x0).all()
        assert len(ends) <= 2

        def pair_of(rows, r):  # the (instance, prediction) a stacked row belongs to
            k = next(k for k, q in enumerate(queries) if (q.x0 == rows.x0[r]).all())
            j = next(j for j, p in enumerate(pred_sets[k]) if (p.weights == rows.pred_w[r]).all()
                     and p.intercept == rows.pred_b[r, 0])
            return k, j

        for i_end, (rows, start) in enumerate(ends):
            owners = [pair_of(rows, r) for r in range(len(start))]
            from_robust = all((s == robust[k].x_prime).all() for s, (k, _) in zip(start, owners))
            name = "robust" if i_end == 0 and from_robust else "consistent"
            assert name == "robust" or all((s == consistent[o].x_prime).all()
                                           for s, o in zip(start, owners))
            restarts[name] += len(start)

        for k, (q, n, preds, correct) in enumerate(zip(queries, balls, pred_sets, corrects)):
            one = pareto_frontier(q, n, preds, betas)
            assert regrets[k] == smoothness(q, n, preds, correct, betas)
            best = consistent_recourse(q, correct).worst_case_total
            equal_correct += any(p.intercept == correct.intercept
                                 and (p.weights == correct.weights).all() for p in preds)
            for j, (pred, front, regret_list) in enumerate(zip(preds, fronts[k], regrets[k])):
                assert front.robust is fronts[k][0].robust  # one robust solve per instance
                for got, want in ((front.robust, robust[k]), (front.consistent, consistent[k, j])):
                    np.testing.assert_array_equal(got.x_prime, want.x_prime)
                    assert got.worst_case_total == want.worst_case_total
                    assert got.l1_cost == want.l1_cost
                assert front.points == one[j].points
                assert len(front.points) == len(regret_list) == len(betas)
                counts = []  # moves of each interior beta's search from x0
                for beta, pt, regret in zip(betas, front.points, regret_list):
                    tq_beta = TradeoffQuery(q, n, pred, beta)
                    (plan,) = _blend(tq_beta, [beta], robust[k], consistent[k, j])
                    if 0.0 < beta < 1.0:  # and the one a per-coordinate loop gives
                        x_ref, _, steps = _reference_blend(tq_beta, robust[k], consistent[k, j])
                        np.testing.assert_array_equal(plan.x_prime, x_ref)
                        counts.append(steps)
                    assert pt.beta == beta
                    assert pt.robustness == robustness(q, n, plan.x_prime, robust[k])
                    assert pt.consistency == consistency(q, pred, plan.x_prime, consistent[k, j])
                    assert pt.l1_cost == plan.l1_cost
                    assert regret == eval_total_cost(q, plan.x_prime, correct) - best
                # rows that stop in different rounds
                staggered += len({c for c in counts if c < 4 * q.dim}) > 1
    assert losses == {LossKind.BCE, LossKind.SQUARED}
    assert dims == {1, 2, 3, 5, 20}
    assert folds == {1, 2, 3} and sizes == {0, 1, 2, 3}
    assert staggered > 0 and mixed_modes > 0 and equal_correct > 0
    assert min(restarts.values()) > 0


def test_pareto_robustness_is_the_recomputed_metric_bitwise():
    # pareto_frontier reads robustness from each plan's stored worst-case
    # total; at every beta, endpoints included, it must be the value the
    # metric recomputes from the plan's point and a fresh robust solve
    rng = np.random.default_rng(36)
    seen = set()
    for _ in range(80):
        tq = _random_problem(rng)
        q, n = tq.query, tq.neighborhood
        seen.add((q.dim, q.loss, n.perturb_intercept))
        betas = [0.0, *rng.uniform(0.01, 0.99, 4), 1.0]
        rng.shuffle(betas)
        robust = optimal_robust_recourse(q, n)
        plans = _blend(tq, betas, robust, consistent_recourse(q, tq.prediction))
        (front,) = pareto_frontier(q, n, [tq.prediction], betas)
        for pt, plan in zip(front.points, plans):
            want = robustness(q, n, plan.x_prime, robust)
            assert np.float64(pt.robustness).tobytes() == np.float64(want).tobytes()
    assert {d for d, _, _ in seen} == {1, 2, 3, 5, 20}
    assert {loss for _, loss, _ in seen} == {LossKind.BCE, LossKind.SQUARED}
    assert {mode for _, _, mode in seen} == {True, False}


# -------------------------------------------------------------- smoothness


def test_smoothness_zero_when_prediction_correct_and_trusted():
    rng = np.random.default_rng(24)
    for _ in range(20):
        tq = _random_tq(rng, beta=0.0)
        ((got,),) = smoothness(tq.query, tq.neighborhood, [tq.prediction], tq.prediction, [0.0])
        assert got == pytest.approx(0.0, abs=1e-12)


def test_smoothness_prediction_independent_at_full_caution():
    rng = np.random.default_rng(25)
    tq = _random_tq(rng, beta=1.0)
    other = ModelParams(
        weights=tq.neighborhood.base.weights + tq.neighborhood.alpha,
        intercept=tq.neighborhood.base.intercept,
    )
    correct = tq.prediction
    a, b = smoothness(tq.query, tq.neighborhood, [tq.prediction, other], correct, [1.0])
    assert a == b


@pytest.mark.parametrize("width", [4, 1])
def test_smoothness_refuses_a_correct_model_of_another_width(width):
    # a 2-feature query: the correct model is checked as each prediction is
    query = _query([-1.0, -1.0], 0.1)
    ball = Neighborhood(ModelParams(weights=np.array([1.0, 1.0])), 0.5)
    with pytest.raises(DimensionMismatchError, match=f"model has {width} weights, query has 2"):
        smoothness(query, ball, [ball.base], ModelParams(np.ones(width)), [0.0, 0.5, 1.0])


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
        (got,) = smoothness(tq.query, tq.neighborhood, [tq.prediction], correct, [0.0, tq.beta, 1.0])
        assert min(got) >= -1e-9


def test_smoothness_solves_the_correct_model_as_one_more_zero_radius_row(monkeypatch):
    # the correct model's plan is solved as its own zero-radius row, whether
    # or not a prediction equals it, and the regrets stay exact either way
    rng = np.random.default_rng(27)
    tq = _random_tq(rng)
    q, n = tq.query, tq.neighborhood
    base, alpha = n.base, n.alpha
    correct = ModelParams(weights=base.weights + alpha / 2, intercept=base.intercept - alpha / 2)
    equal = ModelParams(weights=correct.weights.copy(), intercept=correct.intercept)
    nearby = ModelParams(weights=correct.weights, intercept=np.nextafter(correct.intercept, 0.0))
    betas = [0.0, 0.4, 1.0]
    best = consistent_recourse(q, correct).worst_case_total
    greedy, solved = tradeoff._greedy_rows, []  # the models of the exact loop's zero-radius rows

    def spy(rows, loss):
        solved.extend((w.tobytes(), float(b)) for w, b, a
                      in zip(rows.base, rows.worst_b[:, 0], rows.alpha[:, 0]) if a == 0.0)
        return greedy(rows, loss)

    monkeypatch.setattr(tradeoff, "_greedy_rows", spy)
    for preds in ([tq.prediction, equal], [tq.prediction, nearby]):
        solved.clear()
        got = smoothness(q, n, preds, correct, betas)
        assert solved == [(m.weights.tobytes(), m.intercept) for m in (*preds, correct)]
        robust = optimal_robust_recourse(q, n)
        for regrets, pred in zip(got, preds):
            tq_pred = TradeoffQuery(q, n, pred, 1.0)
            plans = _blend(tq_pred, betas, robust, consistent_recourse(q, pred))
            assert regrets == [eval_total_cost(q, x.x_prime, correct) - best for x in plans]


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
    with pytest.raises(ValueError, match="outside the model ball"):
        TradeoffQuery(q, fixed, ModelParams(weights=np.array([1.0]), intercept=0.1), 0.5)
    TradeoffQuery(q, fixed, ModelParams(weights=np.array([1.2]), intercept=1e-10), 0.5)
    TradeoffQuery(q, n, ModelParams(weights=np.array([0.8]), intercept=-0.2), 0.5)  # on the surface
    with pytest.raises(ValueError, match="different dimensions"):
        TradeoffQuery(q, n, ModelParams(weights=np.array([1.0, 1.0]), intercept=0.0), 0.5)
    # the sweeps check every beta, and every prediction as a TradeoffQuery does
    for betas in ([0.5, 1.5], [-0.1], [0.2, float("nan")]):
        with pytest.raises(ValueError, match="beta must lie in"):
            pareto_frontier(q, n, [inside], betas)
        with pytest.raises(ValueError, match="beta must lie in"):
            smoothness(q, n, [inside], inside, betas)
    outside = ModelParams(weights=np.array([1.5]), intercept=0.0)
    with pytest.raises(ValueError, match="outside the model ball"):
        smoothness(q, n, [inside, outside], inside, [0.5])
    with pytest.raises(ValueError, match="outside the model ball"):
        pareto_frontier(q, n, [inside, outside], [0.5])
    (front,) = pareto_frontier(q, n, [inside], [])
    assert isinstance(front, Frontier) and front.points == []
    assert smoothness(q, n, [inside], inside, []) == [[]]
    assert pareto_frontier(q, n, [], [0.5]) == smoothness(q, n, [], inside, [0.5]) == []


def test_blended_squared_loss_runs():
    q = _query([0.0], 0.1, loss=LossKind.SQUARED)
    n = _nbhd([1.0], 0.3, perturb_intercept=False)
    pred = ModelParams(weights=np.array([1.2]), intercept=0.0)
    plan = blended_recourse(TradeoffQuery(q, n, pred, 0.5))
    tq = TradeoffQuery(q, n, pred, 0.5)
    assert _blended_value(tq, plan.x_prime) <= _blended_value(tq, q.x0) + 1e-12
