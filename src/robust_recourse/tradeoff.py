"""Blended recourse under a trust parameter, and the scalar metrics.

The blended solver trades off two objectives: total cost under the worst
model in the ball (weight ``beta``) and total cost under a single predicted
model (weight ``1 - beta``). Its endpoints are the exact robust plan
(beta = 1) and the exact consistent plan (beta = 0); interior values use a
coordinate grid search, since mixing the two adversaries breaks the exact
solver's selection rule, and restart from an endpoint plan that does better.

The blended objective is written once. ``_coordinate_terms`` gives what
coordinates add to its three sums (worst-case score, predicted score,
weighted cost) and ``_mix`` turns the sums into the objective at one trust
level or at a column of them. ``_blended_value`` mixes a point's summed
terms; each search round mixes every candidate move's sums in one
vectorised step.

One private function, ``_blend``, blends a whole beta sweep from the two
endpoint plans. Its interior betas share one search, ``_descend``, over a
(B, d, 26) stack of moves, one row per beta; a row that stops improving is
masked out for good, and two more stacked searches restart the rows an
endpoint plan beats. No sum runs across rows, and each row's sums reduce
over the coordinate axis as a lone row's would, so every plan is bitwise
the one a one-beta sweep gives. ``blended_recourse`` is that one-beta case.
An interior plan carries an empty trace, as a ROAR plan does: only the
exact solver records its moves.
``pareto_frontier`` and ``smoothness`` take one query and its whole
prediction set: they solve the robust plan once, each prediction's
consistent plan once, and blend each prediction's full ``betas``.

Metrics:

* ``robustness``: excess worst-case total cost over the optimal robust plan,
  which the caller passes in.
* ``consistency``: excess total cost under the prediction over the optimal
  consistent plan, which the caller passes in.
* ``smoothness``: realized regret when the recourse was computed from one
  prediction but a different model materializes, per prediction used.
* ``validity``: fraction of recourse points classified desirable.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import Neighborhood, best_response
from .glm import ModelParams, RecourseQuery, eval_loss, eval_total_cost, weighted_l1
from .models import BlackBoxScorer, GlmScorer, predict_label
from .solver import RecoursePlan, consistent_recourse, optimal_robust_recourse

__all__ = [
    "TradeoffQuery",
    "TradeoffPoint",
    "Frontier",
    "blended_recourse",
    "robustness",
    "consistency",
    "smoothness",
    "validity",
    "pareto_frontier",
]


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")


@dataclass(frozen=True)
class TradeoffQuery:
    """A recourse query plus a model ball, a prediction inside it, and a trust level."""

    query: RecourseQuery
    neighborhood: Neighborhood
    prediction: ModelParams
    beta: float

    def __post_init__(self) -> None:
        _check_beta(self.beta)
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


class Frontier(NamedTuple):
    """One prediction's beta sweep and the two optima its metrics are measured against."""

    robust: RecoursePlan
    consistent: RecoursePlan
    points: list


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


def _mix(tq: TradeoffQuery, beta, ws, ps, cost):
    """The blended objective from the three sums: add the intercepts and weigh.

    ``beta`` is a scalar or a column that broadcasts against the sums, one
    trust level per row.
    """
    q = tq.query
    return (
        beta * eval_loss(q.loss, ws + tq.neighborhood.worst_intercept)
        + (1.0 - beta) * eval_loss(q.loss, ps + tq.prediction.intercept)
        + q.lam * cost
    )


def _blended_value(tq: TradeoffQuery, x):
    """The blended objective at one point, or at every row of a stack of points."""
    return _mix(tq, tq.beta, *_coordinate_terms(tq, np.asarray(x, dtype=float)).sum(axis=-1))


def _descend(tq: TradeoffQuery, betas: np.ndarray, start: np.ndarray):
    """Coordinate search from ``start`` at every trust level in ``betas`` at once.

    Returns each row's final point and its blended value. A row leaves the
    search for good once no move improves it by more than 1e-9: its point
    and value are written back, and the rest of the search runs on the
    remaining rows only.
    """
    q = tq.query
    x = np.repeat(start[None], len(betas), axis=0)
    current = _mix(tq, betas, *_coordinate_terms(tq, x).sum(axis=-1))
    rows = np.arange(len(betas))  # the rows still searching, and their state
    xs, bs, cur, at = x, betas[:, None, None], current, rows
    for _ in range(4 * q.dim):
        terms = _coordinate_terms(tq, xs[:, :, None] + _STAY_OR_STEP, np.s_[:, None])
        here = terms[..., :1]
        vals = _mix(tq, bs, *(here.sum(axis=2, keepdims=True) - here + terms[..., 1:]))
        vals[:, q.immutable_mask] = np.inf
        vals = vals.reshape(rows.size, q.dim * _STEP_GRID.size)
        flat = np.argmin(vals, axis=1)
        best = vals[at, flat]
        stop = cur - best <= 1e-9
        stopped = np.count_nonzero(stop)
        if stopped == rows.size:
            break
        if stopped:
            x[rows], current[rows] = xs, cur
            rows, xs, bs, flat, best = (a[~stop] for a in (rows, xs, bs, flat, best))
            at = np.arange(rows.size)
        j, k = np.divmod(flat, _STEP_GRID.size)
        xs[at, j] += _STEP_GRID[k]
        cur = best
    x[rows], current[rows] = xs, cur
    return x, current


def _blend(tq: TradeoffQuery, betas, robust: RecoursePlan, consistent: RecoursePlan) -> list:
    """The blended plan for every beta in ``betas``, given the exact endpoint plans.

    ``tq.beta`` is ignored. beta = 1 gives ``robust``; beta = 0 gives
    ``consistent`` with its worst-case total taken against the ball. The
    interior betas share one search over a (B, d, 26) stack of moves: from
    x0, each round scores every (mutable coordinate, step) move of every row
    at once, as the current point's sums minus the coordinate's old terms
    plus its new ones (immutable coordinates score +inf), and each row takes
    its first best move, lowest coordinate then lowest step. A row stops for
    good when no move improves it by more than 1e-9, or after 4 d rounds.
    Two more stacked searches then restart, first from the robust plan and
    then from the consistent one, every row that endpoint already beats; a
    restart is kept if it ends strictly better than the row's current value.

    Each row's arithmetic is that of a search run for its beta alone: no sum
    runs across rows, each row's sums reduce over its own coordinate axis
    in the order a lone row's do, and a stopped row no longer moves. So
    every plan is bit for bit the one a one-beta call, and the per-beta
    loop this search replaced, gives.
    """
    q, n = tq.query, tq.neighborhood
    betas = np.array(betas, dtype=float)
    for beta in betas:
        _check_beta(beta)
    inner = betas[(betas > 0.0) & (betas < 1.0)]
    x, current = _descend(tq, inner, q.x0)
    # The step grid can stall short of a valley an exact endpoint solution
    # sits in; restart every row that endpoint already beats, robust first.
    for endpoint in (robust, consistent):
        sums = _coordinate_terms(tq, endpoint.x_prime).sum(axis=-1)
        rows = np.flatnonzero(_mix(tq, inner, *sums) < current - 1e-12)
        if rows.size == 0:
            continue
        x2, val2 = _descend(tq, inner[rows], endpoint.x_prime)
        better = val2 < current[rows] - 1e-12
        x[rows[better]], current[rows[better]] = x2[better], val2[better]

    if 0.0 in betas:
        worst = eval_total_cost(q, consistent.x_prime, best_response(n, consistent.x_prime))
        trusting = dataclasses.replace(consistent, worst_case_total=worst)
    blended = (
        RecoursePlan(
            x_prime=xr,
            l1_cost=weighted_l1(q, xr),
            worst_case_total=eval_total_cost(q, xr, best_response(n, xr)),
            trace=(),
        )
        for xr in x
    )
    return [
        robust if beta == 1.0 else trusting if beta == 0.0 else next(blended) for beta in betas
    ]


def blended_recourse(tq: TradeoffQuery) -> RecoursePlan:
    """Minimize beta-weighted worst-case plus prediction total cost.

    Solves both endpoint plans exactly, then blends; see ``_blend``. To sweep
    beta for one query, ``pareto_frontier`` and ``smoothness`` solve each
    endpoint once and blend every beta of a prediction in one search.
    """
    q = tq.query
    robust = optimal_robust_recourse(q, tq.neighborhood)
    return _blend(tq, [tq.beta], robust, consistent_recourse(q, tq.prediction))[0]


def robustness(
    query: RecourseQuery, neighborhood: Neighborhood, x_prime: np.ndarray, optimum: RecoursePlan
) -> float:
    """Worst-case total cost of x_prime minus that of ``optimum``, the optimal robust plan."""
    worst = eval_total_cost(query, np.asarray(x_prime, dtype=float), best_response(neighborhood, x_prime))
    return worst - optimum.worst_case_total


def consistency(
    query: RecourseQuery, prediction: ModelParams, x_prime: np.ndarray, optimum: RecoursePlan
) -> float:
    """Total cost of x_prime under the prediction minus that of ``optimum``, its consistent plan."""
    return eval_total_cost(query, np.asarray(x_prime, dtype=float), prediction) - optimum.worst_case_total


def smoothness(
    query: RecourseQuery,
    neighborhood: Neighborhood,
    predictions: list,
    correct_prediction: ModelParams,
    betas: list,
) -> list[list[float]]:
    """Regret per beta under the model that materialized, one list per prediction used.

    Zero when the prediction was correct and fully trusted (beta = 0);
    independent of the prediction at beta = 1. Each plan is solved once; a
    prediction equal to the correct model lends it its consistent plan.
    """
    robust = optimal_robust_recourse(query, neighborhood)
    sweeps = list(_sweeps(query, neighborhood, predictions, betas, robust))
    same = [c for p, c, _ in sweeps if p.intercept == correct_prediction.intercept
            and np.array_equal(p.weights, correct_prediction.weights)]
    best = (same or [consistent_recourse(query, correct_prediction)])[0].worst_case_total
    return [[eval_total_cost(query, plan.x_prime, correct_prediction) - best for plan in plans]
            for _, _, plans in sweeps]


def validity(model: BlackBoxScorer | ModelParams, recourses: list) -> float:
    """Fraction of recourse points receiving the desirable label."""
    if len(recourses) == 0:
        raise ValueError("validity needs at least one recourse point")
    scorer = GlmScorer(model) if isinstance(model, ModelParams) else model
    hits = sum(predict_label(scorer, np.asarray(x, dtype=float)) for x in recourses)
    return hits / len(recourses)


def _sweeps(query, neighborhood, predictions, betas, robust):
    """Yields (prediction, its consistent plan, its blended plan per beta) in turn."""
    for prediction in predictions:
        tq = TradeoffQuery(query, neighborhood, prediction, 1.0)
        consistent = consistent_recourse(query, prediction)
        yield prediction, consistent, _blend(tq, betas, robust, consistent)


def pareto_frontier(
    query: RecourseQuery, neighborhood: Neighborhood, predictions: list, betas: list
) -> list[Frontier]:
    """One Frontier per prediction: a TradeoffPoint per beta and the two optima.

    The robust plan is solved once for the query and each consistent plan
    once per prediction; each serves both as an endpoint of that
    prediction's sweep and as a metric's optimum. Each plan's
    ``worst_case_total`` is the value ``robustness`` would compute for it,
    by the same expression, so robustness is read from it.
    """
    robust = optimal_robust_recourse(query, neighborhood)
    sweeps = _sweeps(query, neighborhood, predictions, betas, robust)
    return [
        Frontier(robust, consistent, [
            TradeoffPoint(
                beta=float(beta),
                robustness=plan.worst_case_total - robust.worst_case_total,
                consistency=consistency(query, prediction, plan.x_prime, consistent),
                l1_cost=plan.l1_cost,
            )
            for beta, plan in zip(betas, plans)
        ])
        for prediction, consistent, plans in sweeps
    ]
