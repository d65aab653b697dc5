"""Blended recourse under a trust parameter, and the scalar metrics.

The blended solver trades off two objectives: total cost under the worst
model in the ball (weight ``beta``) and total cost under a single predicted
model (weight ``1 - beta``). Its endpoints are the exact robust plan
(beta = 1) and the exact consistent plan (beta = 0); interior values use a
coordinate grid search, since mixing the two adversaries breaks the exact
solver's selection rule, and restart from an endpoint plan that does better.

The blended objective is written once. ``_coordinate_terms`` gives what
coordinates add to its three sums (worst-case score, predicted score,
weighted cost) and ``_mix`` turns the sums into the objective.
``_blended_value`` mixes a point's summed terms; each search round mixes
every candidate move's sums in one vectorised step.

One private function, ``_blend``, computes the blend from the two endpoint
plans. ``blended_recourse`` solves them for one beta; ``pareto_frontier``
and ``smoothness`` solve them once per query and blend for every beta.

Metrics:

* ``robustness``: excess worst-case total cost over the optimal robust plan.
* ``consistency``: excess total cost under the prediction over the optimal
  consistent plan.
* ``smoothness``: realized regret when the recourse was computed from one
  prediction but a different model materializes.
* ``validity``: fraction of recourse points classified desirable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .adversary import Neighborhood, best_response
from .glm import ModelParams, RecourseQuery, eval_loss, eval_total_cost, weighted_l1
from .models import BlackBoxScorer, GlmScorer, predict_label
from .solver import RecoursePlan, consistent_recourse, optimal_robust_recourse

__all__ = [
    "TradeoffQuery",
    "TradeoffPoint",
    "blended_recourse",
    "robustness",
    "consistency",
    "smoothness",
    "validity",
    "pareto_frontier",
]


@dataclass(frozen=True)
class TradeoffQuery:
    """A recourse query plus a model ball, a prediction inside it, and a trust level."""

    query: RecourseQuery
    neighborhood: Neighborhood
    prediction: ModelParams
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if self.prediction.dim != self.neighborhood.base.dim:
            raise ValueError("prediction and base model have different dimensions")
        if not self.neighborhood.contains(self.prediction):
            raise ValueError("prediction lies outside the model ball")


@dataclass(frozen=True)
class TradeoffPoint:
    beta: float
    robustness: float
    consistency: float
    l1_cost: float


# Signed candidate moves for the blended coordinate search: +/-0.01 * 2^k.
_STEP_GRID = np.concatenate([-0.01 * 2.0 ** np.arange(12, -1, -1), 0.01 * 2.0 ** np.arange(13)])
# The same moves after a zero one, so a round's first column holds the current terms.
_STAY_OR_STEP = np.append(0.0, _STEP_GRID)


def _coordinate_terms(tq: TradeoffQuery, v, j=slice(None)) -> np.ndarray:
    """What coordinates ``j`` at values ``v`` add to the blend's three sums.

    The sums are the worst-case score (each weight shifted by alpha against
    the sign of its input), the predicted score and the weighted L1 cost,
    all without intercepts; ``v`` broadcasts against ``j``, and the three
    terms stack along a new first axis.
    """
    q, n = tq.query, tq.neighborhood
    return np.stack([
        n.base.weights[j] * v - n.alpha * np.abs(v),
        tq.prediction.weights[j] * v,
        q.cost.weights[j] * np.abs(v - q.x0[j]),
    ])


def _mix(tq: TradeoffQuery, ws, ps, cost):
    """The blended objective from the three sums: add the intercepts and weigh."""
    q = tq.query
    return (
        tq.beta * eval_loss(q.loss, ws + tq.neighborhood.worst_intercept)
        + (1.0 - tq.beta) * eval_loss(q.loss, ps + tq.prediction.intercept)
        + q.lam * cost
    )


def _blended_value(tq: TradeoffQuery, x):
    """The blended objective at one point, or at every row of a stack of points."""
    return _mix(tq, *_coordinate_terms(tq, np.asarray(x, dtype=float)).sum(axis=-1))


def _blend(tq: TradeoffQuery, robust: RecoursePlan, consistent: RecoursePlan) -> RecoursePlan:
    """The blended plan for ``tq``, given the exact plans of its two endpoints.

    beta = 1 returns ``robust``; beta = 0 returns ``consistent`` with its
    worst-case total taken against the ball. Otherwise: starting from x0,
    each round scores every (mutable coordinate, step) move at once, as the
    current point's sums minus the coordinate's old terms plus its new ones
    (immutable coordinates score +inf), and applies the first best move,
    lowest coordinate then lowest step; it stops when no move improves by more
    than 1e-9, or after 4 d rounds. The search then restarts from either
    endpoint that already does better than it.
    """
    q, n = tq.query, tq.neighborhood
    if tq.beta == 1.0:
        return robust
    if tq.beta == 0.0:
        worst = eval_total_cost(q, consistent.x_prime, best_response(n, consistent.x_prime))
        return dataclasses.replace(consistent, worst_case_total=worst)

    def descend(x_start: np.ndarray) -> tuple[np.ndarray, float, list]:
        x = x_start.copy()
        current = _blended_value(tq, x)
        moves = []
        for _ in range(4 * q.dim):
            terms = _coordinate_terms(tq, x[:, None] + _STAY_OR_STEP, np.s_[:, None])
            here = terms[..., :1]
            vals = _mix(tq, *(here.sum(axis=1, keepdims=True) - here + terms[..., 1:]))
            vals[q.immutable_mask] = np.inf
            j, k = np.unravel_index(np.argmin(vals), vals.shape)
            if current - vals[j, k] <= 1e-9:
                break
            x[j] += _STEP_GRID[k]
            current = vals[j, k]
            moves.append((int(j), float(_STEP_GRID[k]), False))
        return x, current, moves

    x, current, trace = descend(q.x0)
    # The step grid can stall short of a valley an exact endpoint solution
    # sits in; restart from either endpoint that already does better.
    for endpoint in (robust, consistent):
        if _blended_value(tq, endpoint.x_prime) < current - 1e-12:
            x2, val2, moves2 = descend(endpoint.x_prime)
            if val2 < current - 1e-12:
                x, current = x2, val2
                trace = list(endpoint.trace) + moves2

    worst = eval_total_cost(q, x, best_response(n, x))
    return RecoursePlan(
        x_prime=x,
        l1_cost=weighted_l1(q, x),
        worst_case_total=worst,
        trace=tuple(trace),
    )


def blended_recourse(tq: TradeoffQuery) -> RecoursePlan:
    """Minimize beta-weighted worst-case plus prediction total cost.

    Solves both endpoint plans exactly, then blends; see ``_blend``. To sweep
    beta for one query, ``pareto_frontier`` and ``smoothness`` solve the
    endpoints once instead of once per beta.
    """
    q = tq.query
    return _blend(
        tq, optimal_robust_recourse(q, tq.neighborhood), consistent_recourse(q, tq.prediction)
    )


def robustness(
    query: RecourseQuery,
    neighborhood: Neighborhood,
    x_prime: np.ndarray,
    baseline: RecoursePlan | None = None,
) -> float:
    """Worst-case total cost of x_prime minus that of the optimal robust plan.

    Pass ``baseline`` to reuse a precomputed robust plan across many points.
    """
    if baseline is None:
        baseline = optimal_robust_recourse(query, neighborhood)
    worst = eval_total_cost(query, np.asarray(x_prime, dtype=float), best_response(neighborhood, x_prime))
    return worst - baseline.worst_case_total


def consistency(
    query: RecourseQuery,
    prediction: ModelParams,
    x_prime: np.ndarray,
    baseline: RecoursePlan | None = None,
) -> float:
    """Total cost of x_prime under the prediction minus the optimal value."""
    if baseline is None:
        baseline = consistent_recourse(query, prediction)
    return eval_total_cost(query, np.asarray(x_prime, dtype=float), prediction) - baseline.worst_case_total


def smoothness(
    query: RecourseQuery,
    neighborhood: Neighborhood,
    prediction_used: ModelParams,
    correct_prediction: ModelParams,
    betas: list,
) -> list[float]:
    """Regret per beta under the model that materialized, given the prediction used.

    Zero when the prediction was correct and fully trusted (beta = 0);
    independent of the prediction at beta = 1.
    """
    robust = optimal_robust_recourse(query, neighborhood)
    consistent = consistent_recourse(query, prediction_used)
    best = consistent_recourse(query, correct_prediction).worst_case_total
    regrets = []
    for beta in betas:
        tq = TradeoffQuery(query, neighborhood, prediction_used, float(beta))
        plan = _blend(tq, robust, consistent)
        regrets.append(eval_total_cost(query, plan.x_prime, correct_prediction) - best)
    return regrets


def validity(model: BlackBoxScorer | ModelParams, recourses: list) -> float:
    """Fraction of recourse points receiving the desirable label."""
    if len(recourses) == 0:
        raise ValueError("validity needs at least one recourse point")
    scorer = GlmScorer(model) if isinstance(model, ModelParams) else model
    hits = sum(predict_label(scorer, np.asarray(x, dtype=float)) for x in recourses)
    return hits / len(recourses)


def pareto_frontier(tq: TradeoffQuery, betas: list) -> list[TradeoffPoint]:
    """One TradeoffPoint per beta; ``tq.beta`` is ignored.

    The robust and consistent plans are solved once and serve both as the
    blend's endpoints and as the two metrics' baselines.
    """
    robust = optimal_robust_recourse(tq.query, tq.neighborhood)
    consistent = consistent_recourse(tq.query, tq.prediction)
    points = []
    for beta in betas:
        plan = _blend(dataclasses.replace(tq, beta=float(beta)), robust, consistent)
        points.append(
            TradeoffPoint(
                beta=float(beta),
                robustness=robustness(tq.query, tq.neighborhood, plan.x_prime, robust),
                consistency=consistency(tq.query, tq.prediction, plan.x_prime, consistent),
                l1_cost=plan.l1_cost,
            )
        )
    return points
