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
    loss_derivative,
)
from robust_recourse.roar import (
    _BLOCK_ELEMENTS,
    _BLOCK_ITERS,
    RoarConfig,
    _reduce_columns,
    roar_recourse,
    roar_recourse_batch,
)
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
        robust = optimal_robust_recourse(q, n)
        assert robustness(q, n, plan.x_prime, robust) >= -1e-9
        assert plan.worst_case_total >= robust.worst_case_total - 1e-9


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
    bad = [
        dict(learning_rate=0.0),
        dict(learning_rate=-0.1),
        dict(learning_rate=np.nan),
        dict(learning_rate=np.inf),
        dict(max_iters=0),
        dict(max_iters=1.5),
        dict(max_iters=2000.0),
        dict(max_iters=True),
        dict(tolerance=-1e-7),
        dict(tolerance=np.nan),
        dict(tolerance=np.inf),
        dict(learning_rate=True),
        dict(tolerance=False),
        dict(tolerance="1"),
    ]
    for kw in bad:
        with pytest.raises(ValueError):
            RoarConfig(**kw)
    assert RoarConfig(max_iters=np.int64(5), tolerance=0.0).max_iters == 5


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


def test_batch_inputs_must_match_the_stack_shape():
    # nothing of length 1 is broadcast across features or rows
    starts, ball = np.zeros((3, 2)), _nbhd([1.0, 1.0], 0.1)
    bad = [
        (0.1, dict(cost=CostSpec([1.0]))),
        (0.1, dict(cost=CostSpec([1.0, 1.0, 1.0]))),
        (0.1, dict(immutable_mask=[True])),
        (0.1, dict(immutable_mask=np.zeros((2, 2), dtype=bool))),
        (0.1, dict(immutable_mask=np.zeros((3, 1), dtype=bool))),
        ([0.1], {}),
        ([0.1, 0.1], {}),
        (np.full((3, 1), 0.1), {}),
    ]
    for lam, kw in bad:
        with pytest.raises(DimensionMismatchError):
            roar_recourse_batch(starts, lam, ball, **kw)
    cfg = RoarConfig(max_iters=5)
    for lam, mask in ((0.1, [True, False]), ([0.1, 0.2, 0.3], [[True, False]] * 3)):
        got = roar_recourse_batch(starts, lam, ball, cfg, immutable_mask=mask)
        assert (got[:, 0] == 0.0).all() and (got[:, 1] != 0.0).all()


def test_column_reductions_equal_numpy_bytewise():
    # below 8 columns the helper adds or takes maxima column by column; from 8
    # up it is numpy's reduce. Zeros of both signs, infinities and NaN included
    rng = np.random.default_rng(36)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for width in range(1, 12):
        for shape in ((50, width), (3, 40, width)):
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape)
            pick = rng.random(shape) < 0.3
            a[pick] = rng.choice(specials, int(pick.sum()))
            a[..., 0, :] = -0.0  # numpy sums a row of only -0.0 to +0.0
            with np.errstate(invalid="ignore"):  # inf - inf
                pairs = [(_reduce_columns(np.add, a), a.sum(axis=-1)),
                         (_reduce_columns(np.maximum, a), a.max(axis=-1))]
            for got, want in pairs:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _reference_roar(x0s, lam, balls, cfg, loss, cost, mask):
    """The per-iteration loop: totals, best iterate and freeze after every step.

    Returns the best iterate of each row and the iteration each row froze at
    (0 for a row that ran its whole budget).
    """
    m, d = x0s.shape
    base_w = np.array([ball.base.weights for ball in balls])
    alpha = np.array([[ball.alpha] for ball in balls])
    b_eff = np.array([ball.worst_intercept for ball in balls])
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (m,))
    free = ~np.broadcast_to(np.asarray(mask, dtype=bool), (m, d))
    cost_w = cost.weights
    lam_cost = lam[:, None] * cost_w

    def scored(pts):
        weights = base_w - alpha * np.where(pts >= 0.0, 1.0, -1.0)
        return weights, (pts * weights).sum(axis=1) + b_eff

    def totals(s, diff):
        return eval_loss(loss, s) + lam * (np.abs(diff) * cost_w).sum(axis=1)

    x, diff = x0s.copy(), np.zeros_like(x0s)
    weights, s = scored(x)
    best_x = x0s.copy()
    best_val = totals(s, diff)
    alive = np.ones(m, dtype=bool)
    froze = np.zeros(m, dtype=int)
    for it in range(1, cfg.max_iters + 1):
        if not alive.any():
            break
        grad = loss_derivative(loss, s)[:, None] * weights + lam_cost * np.sign(diff)
        step = np.where(alive[:, None] & free, cfg.learning_rate * grad, 0.0)
        x = x - step
        diff = x - x0s
        weights, s = scored(x)
        val = totals(s, diff)
        improved = val < best_val
        best_val = np.where(improved, val, best_val)
        best_x[improved] = x[improved]
        stopped = alive & (np.abs(step).max(axis=1) <= cfg.tolerance)
        froze[stopped] = it
        alive &= ~stopped
    return best_x, froze


def _random_batch(rng, m, d):
    x0s = rng.uniform(-2, 2, (m, d))
    x0s[rng.random((m, d)) < 0.2] = 0.0
    balls = [
        _nbhd(
            rng.uniform(-1.5, 1.5, d),
            float(rng.choice([0.0, 0.1, 0.4])),
            intercept=float(rng.uniform(-1, 1)),
            perturb_intercept=bool(rng.random() < 0.5),
        )
        for _ in range(m)
    ]
    lam = rng.choice([0.0, 0.05, 0.2], m)
    mask = rng.random((m, d)) < 0.2
    cost = CostSpec(rng.uniform(0.5, 2.0, d))
    return x0s, lam, balls, cost, mask


@pytest.mark.parametrize("offset", [-(_BLOCK_ITERS - 1), -1, 0, 1, 1000 - _BLOCK_ITERS])
def test_blocks_match_the_per_iteration_loop_bitwise(offset):
    # max_iters runs 1, block - 1, block, block + 1 and 1000; tolerances up to
    # 3e-2 freeze rows at the first iteration, mid-block and never
    rng = np.random.default_rng([34, offset + _BLOCK_ITERS])
    froze_at, mid_block = [], []
    for trial in range(14):
        loss = (LossKind.BCE, LossKind.SQUARED)[trial % 2]
        # small stacks take the full block; trials 9-11 cap it by size; the
        # last two run 7 and 8 features, either side of the column switch
        if trial < 9:
            m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        elif trial < 12:
            m, d = 30, 20
        else:
            m, d = int(rng.integers(1, 9)), trial - 5
        block = min(_BLOCK_ITERS, _BLOCK_ELEMENTS // (m * d))
        cfg = RoarConfig(
            learning_rate=float(rng.choice([0.01, 0.1])),
            max_iters=max(1, block + offset),
            tolerance=float(rng.choice([1e-7, 1e-3, 3e-2])),
        )
        x0s, lam, balls, cost, mask = _random_batch(rng, m, d)
        got = roar_recourse_batch(x0s, lam, balls, cfg, loss, cost, mask)
        want, froze = _reference_roar(x0s, lam, balls, cfg, loss, cost, mask)
        assert got.tobytes() == want.tobytes()
        froze_at.extend(froze)
        mid_block.extend((froze > 1) & (froze % block != 0))
    if offset > -(_BLOCK_ITERS - 1):
        assert (np.array(froze_at) == 1).any() and any(mid_block)


def test_freeze_and_ties_match_the_per_iteration_loop():
    # row 0: squared loss with score >= 1 at x0, so the first step is exactly 0
    # and the row freezes at iteration 1 while the others run on;
    # row 1: the worst-case weight is 0 for x < 0 and lam is 0, so the first
    # step lands on a total equal to x0's, which is no strict improvement
    balls = [
        _nbhd([1.0, 1.0], 0.1, intercept=1.5),
        _nbhd([-0.5, 0.3], 0.5, perturb_intercept=False),
        _nbhd([0.5, -1.0], 0.2, intercept=-0.5),
    ]
    x0s = np.array([[0.5, 0.5], [0.0, 0.0], [-0.3, 0.4]])
    lam = np.array([0.1, 0.0, 0.05])
    mask = np.array([[False, False], [False, True], [False, False]])
    cost = CostSpec.unit(2)
    for loss in (LossKind.SQUARED, LossKind.BCE):
        cfg = RoarConfig(learning_rate=0.25, max_iters=200)
        got = roar_recourse_batch(x0s, lam, balls, cfg, loss, cost, mask)
        want, froze = _reference_roar(x0s, lam, balls, cfg, loss, cost, mask)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got[1], x0s[1])
        if loss is LossKind.SQUARED:
            assert froze[0] == 1
            np.testing.assert_array_equal(got[0], x0s[0])


def test_a_freeze_on_the_last_iteration_of_a_block_holds():
    # one BCE row, lam = 0, whose steps shrink every iteration; the tolerance
    # sits between its steps at iterations block - 1 and block, so it freezes
    # on the block's last iteration though later iterates would still improve
    lr, x, steps = 0.1, 0.5, []
    for _ in range(_BLOCK_ITERS):
        steps.append(-lr * loss_derivative(LossKind.BCE, x))  # weight 1, intercept 0
        x += steps[-1]
    cfg = RoarConfig(learning_rate=lr, max_iters=300, tolerance=(steps[-2] + steps[-1]) / 2)
    x0s, ball = np.array([[0.5]]), _nbhd([1.0], 0.0, perturb_intercept=False)
    got = roar_recourse_batch(x0s, 0.0, ball, cfg)
    want, froze = _reference_roar(x0s, 0.0, [ball], cfg, LossKind.BCE, CostSpec.unit(1), [False])
    assert froze[0] == _BLOCK_ITERS
    assert got.tobytes() == want.tobytes()
    assert roar_recourse_batch(x0s, 0.0, ball, RoarConfig(lr, 300))[0, 0] > got[0, 0]


def test_stacked_rows_equal_lone_rows_across_block_lengths():
    # a study-wide stack runs shorter blocks than a lone row (m·d > 256), and
    # 203 iterations are a multiple of neither block, so the rows' block
    # boundaries fall at different iterations; every row must still be bitwise
    # the one a call of its own gives, whether it froze mid-block, on a block
    # boundary or never
    rng = np.random.default_rng(35)
    m, d, iters = 40, 8, 203
    stack_block = _BLOCK_ELEMENTS // (m * d)
    assert m * d > 256 and stack_block < _BLOCK_ITERS
    assert iters % stack_block and iters % _BLOCK_ITERS
    x0s, lam, balls, cost, mask = _random_batch(rng, m, d)
    assert {ball.perturb_intercept for ball in balls} == {True, False}
    froze_at = []
    for loss in (LossKind.BCE, LossKind.SQUARED):
        for tolerance in (1e-7, 3e-3, 1e-2):
            cfg = RoarConfig(learning_rate=0.05, max_iters=iters, tolerance=tolerance)
            got = roar_recourse_batch(x0s, lam, balls, cfg, loss, cost, mask)
            froze_at.extend(_reference_roar(x0s, lam, balls, cfg, loss, cost, mask)[1])
            for i in range(m):
                row = roar_recourse_batch(x0s[i : i + 1], lam[i], balls[i], cfg, loss, cost, mask[i])
                assert got[i].tobytes() == row[0].tobytes()
    froze_at = np.array(froze_at)
    assert (froze_at == 0).any() and (froze_at == 1).any()
    assert (froze_at == stack_block).any()  # froze on the stack's first block boundary
    assert ((froze_at > stack_block) & (froze_at % stack_block > 0)).any()
