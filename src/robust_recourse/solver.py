"""Exact recourse solvers and a brute-force certification oracle.

``optimal_robust_recourse`` minimizes the worst-case total cost over an
L-infinity ball of models by greedy coordinate moves: it keeps the running
worst-case model in closed form, always moves the coordinate with the
largest cost-adjusted weight magnitude, and solves each one-dimensional
subproblem exactly (``solve_coordinate_step``: a closed-form logit for BCE,
a comparison of the piece candidates for the squared loss). A
per-coordinate region flag tracks which orthant the coordinate currently
occupies so that a move through zero hands off cleanly to the flipped
worst-case weight instead of oscillating at the boundary;
coordinates whose flipped weight cannot keep helping are retired. Every
applied move is recorded in the returned plan's trace.

``consistent_recourse`` is the same procedure with a zero-radius ball, which
minimizes the total cost under a single predicted model exactly.

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

from .adversary import Neighborhood, best_response
from .glm import (
    DimensionMismatchError,
    LossKind,
    ModelParams,
    RecourseQuery,
    eval_loss,
    eval_total_cost,
    logit,
    sigmoid,
    sign,
    weighted_l1,
)

__all__ = [
    "GridSpec",
    "TraceStep",
    "RecoursePlan",
    "solve_coordinate_step",
    "optimal_robust_recourse",
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

    raise ValueError(f"unknown loss {loss!r}")  # pragma: no cover


def optimal_robust_recourse(
    query: RecourseQuery,
    neighborhood: Neighborhood,
) -> RecoursePlan:
    """Recourse minimizing the worst-case total cost over the model ball.

    Greedy coordinate scheme: track the worst-case model for the current
    point in closed form, repeatedly pick the active coordinate with the
    largest weight magnitude per unit cost, and apply its exact
    one-dimensional optimum. A move that would push a coordinate through
    zero is clamped there; the coordinate stays active, with its region flag
    flipped, only when the worst-case weight of the far orthant keeps
    pointing in the travel direction. The loop runs at most 2 d + 2 passes:
    one boundary crossing plus one interior move per coordinate, a final
    zero-length check, and one spare.
    """
    base = neighborhood.base
    alpha = neighborhood.alpha
    d = query.dim
    if base.dim != d:
        raise DimensionMismatchError(f"model has {base.dim} weights, query has {d} features")

    x = query.x0.copy()
    cost_w = query.cost.weights
    intercept = neighborhood.worst_intercept

    # Worst-case weights for the orthant each coordinate currently occupies.
    adv = base.weights - alpha * sign(x)
    active = ~query.immutable_mask
    for i in range(d):
        if not active[i]:
            continue
        if x[i] == 0.0:
            if abs(base.weights[i]) > alpha:
                # Zero start: the coordinate will move with the sign of its
                # base weight, so the adversary shrinks that weight.
                adv[i] = base.weights[i] - alpha * sign(base.weights[i])
            else:
                active[i] = False  # adversary can cancel any move outright

    trace: list[TraceStep] = []
    saturated = False

    for _ in range(2 * d + 2):
        if not active.any():
            break
        slopes = np.where(active, np.abs(adv) / cost_w, -np.inf)
        j = int(np.argmax(slopes))  # ties resolve to the lowest index
        slope = float(slopes[j])
        if slope <= 0.0:
            break
        s_cur = float(x @ adv + intercept)
        t, sat = solve_coordinate_step(query.lam, s_cur, slope, query.loss)
        if t <= STEP_TOLERANCE:
            # All other active slopes are no larger, so their steps from this
            # score are zero too; sub-tolerance steps are rounding noise.
            break
        direction = sign(adv[j])
        move = t / cost_w[j]
        toward_zero = x[j] * direction < 0.0
        if toward_zero and move > abs(x[j]):
            # Crossing: stop at zero and hand off to the far orthant.
            delta = -x[j]
            x[j] = 0.0
            flipped = base.weights[j] + alpha * sign(query.x0[j])
            if flipped != 0.0 and sign(flipped) == direction:
                adv[j] = flipped
            else:
                active[j] = False  # far-orthant weight points backward
            trace.append(TraceStep(j, float(delta), True))
        else:
            x[j] += direction * move
            saturated = saturated or sat
            trace.append(TraceStep(j, float(direction * move), False))
            # An interior optimum kills every remaining coordinate: their
            # slopes are no larger, so their best step from here is zero.

    worst = best_response(neighborhood, x)
    return RecoursePlan(
        x_prime=x,
        l1_cost=weighted_l1(query, x),
        worst_case_total=eval_total_cost(query, x, worst),
        trace=tuple(trace),
        saturated=saturated,
    )


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
