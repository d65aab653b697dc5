"""Exact recourse solvers and a brute-force certification oracle.

``optimal_robust_recourse_batch`` minimizes the worst-case total cost over
an L-infinity ball of models for many rows at once, each with its own
start, lam, ball and immutable mask, in one lockstep loop of greedy
coordinate moves (``_greedy_rows``). Each row keeps its worst-case model in
closed form, moves the coordinate with the largest cost-adjusted weight
magnitude, and solves that one-dimensional subproblem exactly
(``solve_coordinate_step``: a closed-form logit for BCE, a comparison of the
piece candidates for the squared loss). A move through zero stops there and
hands off to the far orthant's worst-case weight, or retires the coordinate
when that weight cannot keep helping. ``optimal_robust_recourse`` is the
one-row case; its plan's trace records every applied move.

Each pass picks every live row's coordinate and score in numpy, then takes
each row's step in Python. The step stays scalar so that its BCE logit is
``math.log``: numpy's array log differs from it in the last bit on about
0.2% of inputs. The stacked score is ``np.matmul`` of (1, d) by (d, 1) rows,
which equals each row's own ``x @ adv`` bit for bit where ``einsum`` and a
row sum do not. So every row is bitwise its one-row call.

``consistent_recourse`` is the same procedure with a zero-radius ball, which
minimizes the total cost under a single predicted model exactly.

``_Rows`` is the package's one row layout. The exact loop and ROAR's batch
loop read it from ``_row_stack``; the blend in ``tradeoff`` builds its own
and hands it to the loop. ``_worst`` and ``_totals`` total every row in
``np.matmul`` row dots, bitwise the one-row dots on C-contiguous rows.

``minimax_oracle`` certifies the solver on small instances by exhaustive
grid search over inputs, with the inner maximum taken over the corners of
the model ball, independent of the closed-form adversary. Both losses are
non-increasing in the score, so the scan keeps the least corner score per
grid point, a sum of each feature's smaller corner term, and evaluates the
loss once there, which is exact; it broadcasts one 1-D array per free axis
instead of building the point mesh. Optional refinement passes re-grid
around the incumbent with a ten times finer step; they assume the
worst-case objective is convex in the input, which holds for the BCE loss
(it is a maximum of convex functions) but not for the clamped squared loss.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import Neighborhood
from .glm import (
    CostSpec,
    DimensionMismatchError,
    LossKind,
    ModelParams,
    RecourseQuery,
    _check_json_types,
    eval_loss,
    logit,
    sigmoid,
    sign,
)

__all__ = [
    "GridSpec",
    "TraceStep",
    "RecoursePlan",
    "solve_coordinate_step",
    "optimal_robust_recourse",
    "optimal_robust_recourse_batch",
    "consistent_recourse",
    "minimax_oracle",
]

# Score treated as "fully on the desirable side" when lam = 0 leaves the
# improvement direction unbounded; BCE loss there is below 1e-13.
SCORE_CAP = 30.0

# Coordinate steps at or below this length are rounding noise and end the loop.
STEP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class GridSpec:
    """Search grid for the certification oracle.

    The base grid spans ``x0 +/- half_range`` at ``step`` spacing (when step
    is None: 0.01 in one dimension, 0.05 otherwise). Each refinement level
    re-grids 51 points per axis across incumbent +/- 2.5 steps, shrinking
    the step tenfold.
    """

    half_range: float = 5.0
    step: float | None = None
    refine_levels: int = 0

    def __post_init__(self) -> None:
        _check_json_types(self)
        if not 0.0 < self.half_range < math.inf:
            raise ValueError("half_range must be finite and positive")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ValueError("step must be finite and positive")
        if self.refine_levels < 0:
            raise ValueError("refine_levels must be nonnegative")

    def resolved_step(self, dim: int) -> float:
        if self.step is not None:
            return float(self.step)
        return 0.01 if dim == 1 else 0.05


class TraceStep(NamedTuple):
    index: int
    delta: float
    adversary_updated: bool


@dataclass(frozen=True)
class RecoursePlan:
    """Solver output: the recourse, its costs, and the moves that built it.

    Only the exact solvers record a trace; ROAR plans and interior blended
    plans carry an empty one.
    """

    x_prime: np.ndarray
    l1_cost: float
    worst_case_total: float
    trace: tuple
    saturated: bool = False

    def to_dict(self) -> dict:
        return {
            "x_prime": self.x_prime.tolist(),
            "l1_cost": self.l1_cost,
            "worst_case_total": self.worst_case_total,
            "saturated": self.saturated,
            "trace": [[int(i), float(d), bool(u)] for i, d, u in self.trace],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def solve_coordinate_step(
    lam: float,
    s0: float,
    slope: float,
    loss: LossKind = LossKind.BCE,
) -> tuple[float, bool]:
    """Best nonnegative move along one coordinate, in unit-cost steps.

    Minimizes eval_loss(loss, s0 + slope * t) + lam * t over t >= 0, where
    ``slope`` is the coordinate's weight magnitude divided by its cost
    weight, so one unit of t costs exactly lam. Returns (t, saturated);
    saturated means the loss had no finite minimizer (lam too small for BCE)
    and t was chosen to push the score to SCORE_CAP. For BCE the interior
    optimum is closed form: the stationarity condition
    slope * sigmoid(-(s0 + slope * t)) = lam solves to a logit.
    """
    if slope <= 0.0:
        return 0.0, False

    if loss is LossKind.BCE:
        if s0 >= SCORE_CAP:
            return 0.0, False
        # Marginal loss reduction at t=0 is slope * sigmoid(-s0); below lam
        # the cost term wins immediately.
        if lam >= slope * sigmoid(-s0):
            return 0.0, False
        if lam <= 0.0 or lam / slope < sigmoid(-SCORE_CAP):
            return (SCORE_CAP - s0) / slope, True
        target = logit(1.0 - lam / slope)
        return max(0.0, (target - s0) / slope), False

    if loss is LossKind.SQUARED:
        # Piecewise: flat loss 1 below score 0, parabola on (0, 1), flat 0
        # beyond. Not convex through the lower kink, so compare candidates.
        if s0 >= 1.0:
            return 0.0, False
        candidates = [0.0]
        t_full = (1.0 - s0) / slope  # reach score 1, loss 0
        candidates.append(t_full)
        s_station = 1.0 - lam / (2.0 * slope)
        if max(s0, 0.0) < s_station < 1.0:
            candidates.append((s_station - s0) / slope)
        best_t = 0.0
        best_val = eval_loss(loss, s0)
        for t in candidates:
            if t <= 0.0:
                continue
            val = eval_loss(loss, s0 + slope * t) + lam * t
            if val < best_val - 1e-15:
                best_val = val
                best_t = t
        return best_t, False

    raise ValueError(f"unknown loss {loss!r}")


class _Rows(NamedTuple):
    """A row stack: one recourse per row, each with its own query, ball, prediction and beta.

    Vectors are (R, d) and per-row scalars (R, 1), so every field lines up
    with (R, d) values, and with (R, d, k) values after ``columns``. Every
    field is C-contiguous.
    """

    x0: np.ndarray
    cost: np.ndarray
    lam: np.ndarray
    frozen: np.ndarray  # the immutable mask
    base: np.ndarray  # the ball's centre weights
    alpha: np.ndarray
    worst_b: np.ndarray  # the ball's lowest intercept
    pred_w: np.ndarray
    pred_b: np.ndarray
    beta: np.ndarray

    def take(self, index) -> "_Rows":
        return _Rows(*(field[index] for field in self))

    def columns(self) -> "_Rows":
        """Every field with a trailing unit axis: (R, d, 1) vectors, (R, 1, 1) scalars."""
        return _Rows(*(field[:, :, None] for field in self))


def optimal_robust_recourse(
    query: RecourseQuery,
    neighborhood: Neighborhood,
) -> RecoursePlan:
    """Recourse minimizing the worst-case total cost over the model ball; one row of the loop.

    Its costs are ``_worst`` of one row, written out on purpose: this is the
    library's one-query path, and the stacked totals made a solve about 10% slower.
    """
    base, x0 = neighborhood.base.weights, query.x0
    if base.size != x0.size:
        raise DimensionMismatchError(f"model has {base.size} weights, query has {x0.size} features")
    alpha, b, cost_w = neighborhood.alpha, neighborhood.worst_intercept, query.cost.weights
    lam, a, wb, pb, beta = np.array([query.lam, alpha, b, neighborhood.base.intercept, 1.0]
                                    ).reshape(5, 1, 1)  # the (1, 1) row scalars from one array
    rows = _Rows(x0[None], cost_w[None], lam, query.immutable_mask[None], base[None], a, wb,
                 base[None], pb, beta)
    xs, traces, saturated = _greedy_rows(rows, query.loss)
    x = xs[0]
    l1 = float(cost_w @ np.abs(x - x0))
    total = eval_loss(query.loss, float((base - alpha * sign(x)) @ x + b)) + query.lam * l1
    return RecoursePlan(x, l1, total, traces[0], saturated[0])


def optimal_robust_recourse_batch(
    x0s: np.ndarray,
    lam: float | np.ndarray,
    neighborhood: Neighborhood | list,
    loss: LossKind = LossKind.BCE,
    cost: CostSpec | None = None,
    immutable_mask: np.ndarray | None = None,
) -> np.ndarray:
    """The robust recourse of every row of ``x0s``, each bitwise its one-row call.

    As in ``roar_recourse_batch``, ``lam``, ``neighborhood`` (a ball) and
    ``immutable_mask`` are each shared or given per row; loss and cost
    weights are shared.
    """
    return _greedy_rows(_row_stack(x0s, lam, neighborhood, cost, immutable_mask), loss)[0]


def _row_stack(x0s, lam, neighborhood, cost, immutable_mask) -> _Rows:
    """Checked rows of a batch over the (m, d) starts ``x0s``, one per start.

    A lam, ball or mask given once serves every row, as do the cost weights.
    Each row's prediction is its ball's centre and its beta is 1. Starts
    must be finite, as a ``RecourseQuery``'s x0 must.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2:
        raise DimensionMismatchError(f"starts of shape {x0s.shape} are not an (m, d) stack")
    if not np.all(np.isfinite(x0s)):
        raise ValueError("x0 must be finite")
    m, d = x0s.shape
    balls = [neighborhood] if isinstance(neighborhood, Neighborhood) else list(neighborhood)
    if len(balls) not in (1, m) or any(ball.base.dim != d for ball in balls):
        raise DimensionMismatchError(f"{len(balls)} balls for starts of shape {(m, d)}: "
                                     f"need 1 or {m}, each of {d} weights")
    lam = np.asarray(lam, dtype=float)
    if lam.shape not in ((), (m,)):
        raise DimensionMismatchError(f"lam of shape {lam.shape} for {m} rows")
    if not np.all((0.0 <= lam) & (lam < np.inf)):
        raise ValueError("lam must be finite and nonnegative")
    mask = np.asarray(np.zeros(d) if immutable_mask is None else immutable_mask, dtype=bool)
    if mask.shape not in ((d,), (m, d)):
        raise DimensionMismatchError(f"mask of shape {mask.shape} for starts of shape {(m, d)}")
    cost_w = (cost or CostSpec.unit(d)).weights
    if cost_w.shape != (d,):
        raise DimensionMismatchError(f"cost has {cost_w.size} weights, starts have {d} features")

    def per_row(values, width=1, dtype=float):  # a C-contiguous (m, width) copy
        return np.ascontiguousarray(np.broadcast_to(
            np.asarray(values, dtype=dtype).reshape(-1, width), (m, width)))

    base = per_row([ball.base.weights for ball in balls], d)
    return _Rows(per_row(x0s, d), per_row(cost_w, d), per_row(lam), per_row(mask, d, bool), base,
                 per_row([ball.alpha for ball in balls]),
                 per_row([ball.worst_intercept for ball in balls]), base,
                 per_row([ball.base.intercept for ball in balls]), np.ones((m, 1)))


def _greedy_rows(rows: _Rows, loss: LossKind) -> tuple:
    """Every row's greedy solve in lockstep: (x', traces, saturated flags).

    A row ends at its first zero slope or sub-tolerance step, and runs at
    most 2 d + 2 passes: one crossing plus one interior move per coordinate,
    a final zero-length check, and one spare.
    """
    m, d = rows.x0.shape
    x, base, alpha = rows.x0.copy(), rows.base, rows.alpha
    # Worst-case weights for the orthant each coordinate currently occupies.
    adv = base - alpha * sign(x)
    active = ~rows.frozen
    zero = active & (x == 0.0)
    if zero.any():
        # Zero start: the coordinate will move with the sign of its base
        # weight, so the adversary shrinks that weight; where the adversary
        # can cancel any move outright the coordinate never moves.
        movable = np.abs(base) > alpha
        adv = np.where(zero & movable, base - alpha * sign(base), adv)
        active &= ~zero | movable

    b_eff = rows.worst_b.ravel()
    lams, alphas, costs = rows.lam.ravel().tolist(), alpha.ravel().tolist(), rows.cost.tolist()
    traces = [[] for _ in range(m)]
    saturated = [False] * m
    live = list(range(m))
    for _ in range(2 * d + 2):
        if not live:
            break
        if len(live) == m:
            xs, advs, act, b, cost_w = x, adv, active, b_eff, rows.cost
        else:
            xs, advs, act = x[live], adv[live], active[live]
            b, cost_w = b_eff[live], rows.cost[live]
        slopes = np.where(act, np.abs(advs) / cost_w, -np.inf)  # argmax takes the lowest tie
        picks = zip(live, slopes.argmax(axis=1).tolist(), slopes.max(axis=1).tolist(),
                    (_row_dots(xs, advs) + b).tolist())
        live = []
        for r, j, slope, s_cur in picks:
            if slope <= 0.0:
                continue  # no active coordinate, or none that can help
            t, sat = solve_coordinate_step(lams[r], s_cur, slope, loss)
            if t <= STEP_TOLERANCE:
                # All other active slopes are no larger, so their steps from
                # this score are zero too; sub-tolerance steps are rounding noise.
                continue
            direction = 1.0 if adv[r, j] >= 0.0 else -1.0
            move = t / costs[r][j]
            xj = float(x[r, j])
            if xj * direction < 0.0 and move > abs(xj):
                # Crossing: stop at zero and hand off to the far orthant.
                x[r, j] = 0.0
                flipped = base[r, j] + alphas[r] * (1.0 if rows.x0[r, j] >= 0.0 else -1.0)
                if flipped != 0.0 and (flipped > 0.0) == (direction > 0.0):
                    adv[r, j] = flipped
                else:
                    active[r, j] = False  # far-orthant weight points backward
                traces[r].append(TraceStep(j, -xj, True))
            else:
                # An interior optimum kills every remaining coordinate: their
                # slopes are no larger, so the next pass ends the row.
                x[r, j] = xj + direction * move
                saturated[r] = saturated[r] or sat
                traces[r].append(TraceStep(j, direction * move, False))
            live.append(r)
    return x, [tuple(t) for t in traces], saturated


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's ``a @ b``: bitwise the one-row dot when both stacks are C-contiguous."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _totals(rows: _Rows, loss: LossKind, x, weights, intercept) -> tuple:
    """Each row's weighted L1 cost and total cost at ``x`` under the model (weights, intercept).

    These are ``weighted_l1`` and ``eval_total_cost`` of every row, bit for bit.
    """
    l1 = _row_dots(rows.cost, np.abs(x - rows.x0))
    return l1, eval_loss(loss, _row_dots(weights, x) + intercept) + rows.lam[:, 0] * l1


def _worst(rows: _Rows, loss: LossKind, x) -> tuple:
    """Each row's L1 cost and total cost at ``x`` under ``best_response`` of its ball."""
    return _totals(rows, loss, x, rows.base - rows.alpha * sign(x), rows.worst_b[:, 0])


def _plans(x, l1, totals) -> list:
    """One traceless plan per row of ``x``."""
    return [RecoursePlan(xr, c, t, ()) for xr, c, t in zip(x, l1.tolist(), totals.tolist())]


def consistent_recourse(
    query: RecourseQuery,
    prediction: ModelParams,
) -> RecoursePlan:
    """Minimize the total cost under one predicted model exactly.

    This is the robust solver with a zero-radius ball: crossings keep the
    same model weight, so a coordinate simply continues through zero.
    """
    return optimal_robust_recourse(query, Neighborhood(prediction, 0.0))


def minimax_oracle(
    query: RecourseQuery,
    neighborhood: Neighborhood,
    grid: GridSpec | None = None,
) -> tuple[np.ndarray, float]:
    """Exhaustive-search reference value for the robust objective.

    Scans an axis-aligned grid over the mutable features (at most three;
    immutable ones stay at x0). The inner maximum over the ball is exact
    because the score is linear in the model, so it is attained at a corner,
    and both losses are non-increasing in the score, so the maximum loss
    over the corners is the loss at their minimum score. The scan sums each
    feature's least corner term (``_grid_scan``), never enumerating the
    2^(d+1) corners, and evaluates the loss once per grid point; scores and
    costs are broadcast sums of one 1-D array per free axis, so no point
    matrix is built. Only for low-dimensional certification runs.
    """
    grid = grid or GridSpec()
    d = query.dim
    if neighborhood.base.dim != d:
        raise DimensionMismatchError(
            f"model has {neighborhood.base.dim} weights, query has {d} features"
        )
    free = [i for i in range(d) if not query.immutable_mask[i]]
    if len(free) > 3:
        raise ValueError("oracle supports at most 3 mutable dimensions")
    step = grid.resolved_step(len(free) or 1)

    def axis(i: int, lo: float, hi: float, n_pts: int) -> np.ndarray:
        pts = np.linspace(lo, hi, n_pts)
        # The objective has kinks at 0 and at the start point; snap them onto
        # the axis so the scan can land exactly on kink optima.
        extra = [v for v in (0.0, float(query.x0[i])) if lo <= v <= hi]
        return np.unique(np.concatenate([pts, extra])) if extra else pts

    n_pts = max(2, int(round(2.0 * grid.half_range / step)) + 1)
    axes = [
        axis(i, float(query.x0[i]) - grid.half_range, float(query.x0[i]) + grid.half_range, n_pts)
        for i in free
    ]
    x_best, val_best = _grid_scan(query, neighborhood, free, axes)
    h = step
    for _ in range(grid.refine_levels):
        axes = [axis(i, float(x_best[i]) - 2.5 * h, float(x_best[i]) + 2.5 * h, 51) for i in free]
        x_cand, val_cand = _grid_scan(query, neighborhood, free, axes)
        if val_cand < val_best:
            x_best, val_best = x_cand, val_cand
        h /= 10.0
    return x_best, val_best


def _grid_scan(query, neighborhood, free, axes) -> tuple[np.ndarray, float]:
    """Best grid point and its worst-case total, scanned without a point matrix.

    The k-th free axis broadcasts along the k-th grid dimension and an
    immutable feature is the constant x0[i]. A corner's score adds the terms
    c_i * (w_i +/- alpha) in index order, then its intercept; the least one
    is the same sum of each feature's smaller term plus ``worst_intercept``,
    bit for bit: round-to-nearest addition is monotone, so no corner sums
    below it, and the corner taking every smaller term is summed in the same
    order. Only a zero's sign can differ, which no loss tells apart. The
    argmin over the C-order totals keeps the first minimum in the raveled
    ``meshgrid(..., indexing="ij")`` order.
    """
    x0 = query.x0
    coords = list(x0)
    for k, (i, a) in enumerate(zip(free, axes)):
        coords[i] = a.reshape([-1 if j == k else 1 for j in range(len(free))])

    alpha, weights = neighborhood.alpha, neighborhood.base.weights
    terms = [np.minimum(c * (w - alpha), c * (w + alpha)) for c, w in zip(coords, weights)]
    low = functools.reduce(np.add, terms) + neighborhood.worst_intercept

    cost = 0.0
    for i in free:
        cost = cost + query.cost.weights[i] * np.abs(coords[i] - x0[i])
    totals = np.asarray(eval_loss(query.loss, low) + query.lam * cost)

    k = int(np.argmin(totals))
    best_x = x0.copy()
    for i, a, j in zip(free, axes, np.unravel_index(k, totals.shape)):
        best_x[i] = a[j]
    return best_x, float(totals.flat[k])
