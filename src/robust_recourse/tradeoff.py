"""Blended recourse under a trust parameter, and the scalar metrics.

The blended solver trades off two objectives: total cost under the worst
model in the ball (weight ``beta``) and total cost under a single predicted
model (weight ``1 - beta``). Its endpoints are the exact robust plan
(beta = 1) and the exact consistent plan (beta = 0); interior values use a
coordinate grid search, since mixing the two adversaries breaks the exact
solver's selection rule, and restart from an endpoint plan that does better.

One path does all of it, over the solver's row layout (``solver._Rows``),
one row per (instance, prediction, beta). ``_coordinate_terms`` gives what
coordinates add to the blend's three sums (worst-case score, predicted
score, weighted cost) and ``_mix`` turns the sums into the objective.
``_search`` blends every interior row in one search, ``_descend``, then
restarts the rows an endpoint beats, each from its own endpoint. The
solver's ``_totals`` give every row's L1 cost and total cost under a
model. No sum runs across rows, so every plan is bitwise the one a
one-row stack gives, on C-contiguous rows: ``_stack`` builds every field
by indexing.

``blended_recourse`` is one row, blended from endpoints that the one-row
exact solvers solve (``_blend``). ``pareto_frontier`` and ``smoothness``
are the one-instance cases of ``_frontiers`` and ``_regrets``, which the
study runners call once per fold: ``_fold`` hands its own rows to the
solver's exact loop for the robust endpoints and, on zero-radius balls,
for the consistent ones, then blends every row in one ``_search``.
Endpoint plans from the fold path carry an empty trace, as ROAR plans and
interior blended plans do: only the one-row exact solvers record moves.

Metrics:

* ``robustness``: excess worst-case total cost over the optimal robust plan,
  which the caller passes in.
* ``consistency``: excess total cost under the prediction over the optimal
  consistent plan, which the caller passes in.
* ``smoothness``: realized regret when the recourse was computed from one
  prediction but a different model materializes, per prediction used.
* ``validity``: fraction of recourse points classified desirable.

``_metrics`` gives the first two and the L1 cost for a whole stack; the
pareto study scores its blended plans and its ROAR points with it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adversary import Neighborhood, best_response
from .glm import (DimensionMismatchError, LossKind, ModelParams, RecourseQuery, eval_loss,
                  eval_total_cost)
from .models import BlackBoxScorer, GlmScorer, predict_label
from .solver import (RecoursePlan, _greedy_rows, _plans, _Rows, _totals, _worst,
                     consistent_recourse, optimal_robust_recourse)

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
# A search block holds at most this many (row, coordinate) entries of x, so a
# round's (3, rows, d, 27) stacks stay near 3 MB each, whatever the fold size.
_BLOCK_ENTRIES = 4096


def _stack(queries, neighborhoods, prediction_sets, betas) -> tuple:
    """Rows of every (instance, prediction, beta), instance-major, and each row's instance and pair.

    A pair is an (instance, prediction), numbered in the same order. Each
    field is indexed out of a per-instance or per-pair array, which copies
    in C order. Every beta is checked.
    """
    for beta in betas:
        _check_beta(beta)
    d = queries[0].dim
    preds = [p for ps in prediction_sets for p in ps]
    inst = np.repeat(np.arange(len(queries)), [len(ps) * len(betas) for ps in prediction_sets])
    pair = np.repeat(np.arange(len(preds)), len(betas))

    def pick(values, index, width=d, dtype=float):
        return np.array(values, dtype=dtype).reshape(-1, width)[index]

    rows = _Rows(
        pick([q.x0 for q in queries], inst),
        pick([q.cost.weights for q in queries], inst),
        pick([q.lam for q in queries], inst, 1),
        pick([q.immutable_mask for q in queries], inst, dtype=bool),
        pick([n.base.weights for n in neighborhoods], inst),
        pick([n.alpha for n in neighborhoods], inst, 1),
        pick([n.worst_intercept for n in neighborhoods], inst, 1),
        pick([p.weights for p in preds], pair),
        pick([p.intercept for p in preds], pair, 1),
        np.tile(pick(betas, slice(None), 1), (len(preds), 1)),
    )
    return rows, inst, pair


def _coordinate_terms(rows: _Rows, v) -> np.ndarray:
    """What coordinates at values ``v`` add to each row's three blend sums.

    The sums are the worst-case score (each weight shifted by alpha against
    the sign of its input), the predicted score and the weighted L1 cost,
    all without intercepts. ``v`` broadcasts against the row fields, and
    the three terms stack along a new first axis.
    """
    return np.stack([
        rows.base * v - rows.alpha * np.abs(v),
        rows.pred_w * v,
        rows.cost * np.abs(v - rows.x0),
    ])


def _mix(rows: _Rows, loss: LossKind, ws, ps, cost):
    """The blended objective from the three sums: add each row's intercepts, weigh by its beta."""
    return (
        rows.beta * eval_loss(loss, ws + rows.worst_b)
        + (1.0 - rows.beta) * eval_loss(loss, ps + rows.pred_b)
        + rows.lam * cost
    )


def _value(rows: _Rows, loss: LossKind, x) -> np.ndarray:
    """Each row's blended objective at its row of the (R, d) points ``x``."""
    return _mix(rows, loss, *_coordinate_terms(rows, x).sum(axis=-1, keepdims=True))[..., 0]


def _blended_value(tq: TradeoffQuery, x):
    """The blended objective at one point, or at every row of a stack of points."""
    x = np.asarray(x, dtype=float)
    rows = _stack([tq.query], [tq.neighborhood], [[tq.prediction]], [tq.beta])[0]
    return _value(rows, tq.query.loss, x).reshape(x.shape[:-1])


def _descend(rows: _Rows, loss: LossKind, start: np.ndarray):
    """Coordinate search of every row of ``rows`` at once, each from its row of ``start``.

    Returns each row's final point and its blended value. A row leaves the
    search for good once no move improves it by more than 1e-9: its point
    and value are written back, and the rest of the search runs on the
    remaining rows only.
    """
    d = start.shape[1]
    x = start.copy()
    current = _value(rows, loss, x)
    live = np.arange(len(x))  # the rows still searching, and their state
    cols, xs, cur, at = rows.columns(), x, current, live
    for _ in range(4 * d):
        terms = _coordinate_terms(cols, xs[:, :, None] + _STAY_OR_STEP)
        here = terms[..., :1]
        vals = _mix(cols, loss, *(here.sum(axis=2, keepdims=True) - here + terms[..., 1:]))
        vals[cols.frozen[..., 0]] = np.inf
        vals = vals.reshape(live.size, d * _STEP_GRID.size)
        flat = np.argmin(vals, axis=1)
        best = vals[at, flat]
        stop = cur - best <= 1e-9
        stopped = np.count_nonzero(stop)
        if stopped == live.size:
            break
        if stopped:
            x[live], current[live] = xs, cur
            keep = ~stop
            live, xs, flat, best = live[keep], xs[keep], flat[keep], best[keep]
            cols = cols.take(keep)
            at = np.arange(live.size)
        j, k = np.divmod(flat, _STEP_GRID.size)
        xs[at, j] += _STEP_GRID[k]
        cur = best
    x[live], current[live] = xs, cur
    return x, current


def _search(rows: _Rows, loss: LossKind, robust_x: np.ndarray, consistent_x: np.ndarray):
    """Each row's plan point: its robust endpoint at beta 1, its consistent one at 0, else a blend.

    ``robust_x`` and ``consistent_x`` hold each row's endpoint points. The
    interior rows share one search (in blocks of ``_BLOCK_ENTRIES`` entries
    of x, to bound memory) over an (R, d, 26) stack of moves: from
    x0, each round scores every (mutable coordinate, step) move of every
    row, as the current point's sums minus the coordinate's old terms plus
    its new ones (immutable coordinates score +inf), and each row takes its
    first best move, lowest coordinate then lowest step. A row stops for
    good when no move improves it by more than 1e-9, or after 4 d rounds.
    Two more stacked searches then restart, first from the robust plan and
    then from the consistent one, every row that endpoint already beats; a
    restart is kept if it ends strictly better than the row's value.

    Each row's sums reduce over its own coordinate axis in the order a lone
    row's do, and a stopped row no longer moves, so every point is bit for
    bit the one a one-row stack gives.
    """
    beta = rows.beta[:, 0]
    x = np.where((beta == 1.0)[:, None], robust_x, consistent_x)
    inner = np.flatnonzero((beta > 0.0) & (beta < 1.0))
    size = max(1, _BLOCK_ENTRIES // x.shape[1])
    for block in (inner[i:i + size] for i in range(0, inner.size, size)):
        stack = rows if block.size == len(beta) else rows.take(block)
        found, current = _descend(stack, loss, stack.x0)
        # The step grid can stall short of a valley an exact endpoint solution
        # sits in; restart every row that endpoint already beats, robust first.
        for ends in (robust_x[block], consistent_x[block]):
            redo = np.flatnonzero(_value(stack, loss, ends) < current - 1e-12)
            if redo.size == 0:
                continue
            x2, val2 = _descend(stack.take(redo), loss, ends[redo])
            better = val2 < current[redo] - 1e-12
            found[redo[better]], current[redo[better]] = x2[better], val2[better]
        x[block] = found
    return x


def _metrics(rows: _Rows, loss: LossKind, x, robust_total, consistent_total) -> tuple:
    """Each row's robustness, consistency and L1 cost at ``x``, against its optima's totals."""
    l1, worst = _worst(rows, loss, x)
    predicted = _totals(rows, loss, x, rows.pred_w, rows.pred_b[:, 0])[1]
    return worst - robust_total, predicted - consistent_total, l1


def _blend(tq: TradeoffQuery, betas, robust: RecoursePlan, consistent: RecoursePlan) -> list:
    """The blended plan for every beta in ``betas``, given the exact endpoint plans.

    ``tq.beta`` is ignored. beta = 1 gives ``robust``; beta = 0 gives
    ``consistent`` with its worst-case total taken against the ball; the
    interior betas are one ``_search``.
    """
    q = tq.query
    rows, inst, pair = _stack([q], [tq.neighborhood], [[tq.prediction]], betas)
    x = _search(rows, q.loss, robust.x_prime[None][inst], consistent.x_prime[None][pair])
    l1, worst = (a.tolist() for a in _worst(rows, q.loss, x))
    return [
        robust if beta == 1.0
        else dataclasses.replace(consistent, worst_case_total=worst[r]) if beta == 0.0
        else RecoursePlan(x[r], l1[r], worst[r], ())
        for r, beta in enumerate(rows.beta[:, 0].tolist())
    ]


def blended_recourse(tq: TradeoffQuery) -> RecoursePlan:
    """Minimize beta-weighted worst-case plus prediction total cost.

    Solves both endpoint plans exactly, then blends; see ``_blend``. To sweep
    beta, ``pareto_frontier`` and ``smoothness`` solve each endpoint once
    and blend every (prediction, beta) row in one search.
    """
    q = tq.query
    robust = optimal_robust_recourse(q, tq.neighborhood)
    return _blend(tq, [tq.beta], robust, consistent_recourse(q, tq.prediction))[0]


def _fold(queries, neighborhoods, prediction_sets, betas, extra_sets=None) -> tuple:
    """Every endpoint and blend of a fold's instances.

    Instance i has query ``queries[i]``, ball ``neighborhoods[i]`` and the
    predictions ``prediction_sets[i]``; the queries share loss and cost
    weights. Each beta and each prediction is checked as a ``TradeoffQuery``
    checks it, and each extra model's width as the query's. One exact loop
    solves every robust plan, and one more, on zero-radius balls, every
    pair's consistent plan and then those of ``extra_sets[i]``, further
    models per instance.

    Returns the robust plan per instance, the consistent plans (pairs, then
    extra models), and the stack's rows, instances, pairs and points.
    """
    loss = queries[0].loss
    for q, n, preds in zip(queries, neighborhoods, prediction_sets):
        for p in preds:
            TradeoffQuery(q, n, p, 1.0)
    for q, extras in zip(queries, extra_sets or ()):
        for m in extras:
            if m.dim != q.dim:
                raise DimensionMismatchError(f"model has {m.dim} weights, query has {q.dim}")
    # a row per instance, its ball's centre standing in for a prediction
    tops = _stack(queries, neighborhoods, [[n.base] for n in neighborhoods], [1.0])[0]
    robust_x = _greedy_rows(tops, loss)[0]
    robust = _plans(robust_x, *_worst(tops, loss, robust_x))

    # a row per (instance, model): every pair, then every extra model
    models = [*prediction_sets, *(extra_sets or [[]] * len(queries))]
    ends = _stack([*queries] * 2, [*neighborhoods] * 2, models, [1.0])[0]
    consistent_x = _greedy_rows(ends._replace(base=ends.pred_w, alpha=np.zeros_like(ends.alpha),
                                              worst_b=ends.pred_b), loss)[0]
    consistent = _plans(consistent_x, *_totals(ends, loss, consistent_x, ends.pred_w,
                                                ends.pred_b[:, 0]))

    rows, inst, pair = _stack(queries, neighborhoods, prediction_sets, betas)
    return robust, consistent, rows, inst, pair, _search(rows, loss, robust_x[inst],
                                                          consistent_x[pair])


def _frontiers(queries, neighborhoods, prediction_sets, betas) -> list:
    """``pareto_frontier`` of every instance of a fold, from one ``_fold``."""
    robust, consistent, rows, inst, pair, x = _fold(queries, neighborhoods, prediction_sets, betas)
    robust_totals = np.array([p.worst_case_total for p in robust])
    consistent_totals = np.array([p.worst_case_total for p in consistent])
    metrics = _metrics(rows, queries[0].loss, x, robust_totals[inst], consistent_totals[pair])
    points = iter(map(TradeoffPoint, rows.beta[:, 0].tolist(), *(m.tolist() for m in metrics)))
    ends = iter(consistent)
    return [[Frontier(plan, next(ends), [next(points) for _ in betas]) for _ in preds]
            for plan, preds in zip(robust, prediction_sets)]


def _baseline_metrics(queries, neighborhoods, prediction_sets, frontiers, points) -> tuple:
    """Robustness, consistency and L1 cost of one point per instance, per (instance, prediction).

    ``frontiers`` are the instances' ``_frontiers``; each pair is scored
    against its frontier's two optima. Returns three lists in pair order.
    """
    rows, inst, _ = _stack(queries, neighborhoods, prediction_sets, [1.0])
    fronts = [f for fs in frontiers for f in fs]
    metrics = _metrics(rows, queries[0].loss, np.asarray(points, dtype=float)[inst],
                       np.array([f.robust.worst_case_total for f in fronts]),
                       np.array([f.consistent.worst_case_total for f in fronts]))
    return tuple(m.tolist() for m in metrics)


def _regrets(queries, neighborhoods, prediction_sets, corrects, betas) -> list:
    """``smoothness`` of every instance of a fold, from one ``_fold``.

    Each instance's correct model is solved as its extra model, one more zero-radius row.
    """
    _, consistent, rows, inst, _, x = _fold(queries, neighborhoods, prediction_sets, betas,
                                            [[c] for c in corrects])
    best_totals = np.array([plan.worst_case_total for plan in consistent[-len(queries):]])
    under = _totals(rows, queries[0].loss, x, np.array([c.weights for c in corrects])[inst],
                    np.array([c.intercept for c in corrects])[inst])[1]
    regrets = iter((under - best_totals[inst]).tolist())
    return [[[next(regrets) for _ in betas] for _ in preds] for preds in prediction_sets]


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
    independent of the prediction at beta = 1. The one-instance case of
    ``_regrets``: the robust plan and each model's consistent plan, the
    correct model's included, are solved once.
    """
    return _regrets([query], [neighborhood], [list(predictions)], [correct_prediction], betas)[0]


def validity(model: BlackBoxScorer | ModelParams, recourses: list) -> float:
    """Fraction of recourse points receiving the desirable label."""
    if len(recourses) == 0:
        raise ValueError("validity needs at least one recourse point")
    scorer = GlmScorer(model) if isinstance(model, ModelParams) else model
    hits = sum(predict_label(scorer, np.asarray(x, dtype=float)) for x in recourses)
    return hits / len(recourses)


def pareto_frontier(
    query: RecourseQuery, neighborhood: Neighborhood, predictions: list, betas: list
) -> list[Frontier]:
    """One Frontier per prediction: a TradeoffPoint per beta and the two optima.

    The one-instance case of ``_frontiers``. The robust plan is solved once
    for the query and each consistent plan once per prediction; each serves
    both as an endpoint of that prediction's sweep and as a metric's
    optimum. Every point's metrics come from ``_metrics``, which computes
    what ``robustness`` and ``consistency`` compute, bit for bit.
    """
    return _frontiers([query], [neighborhood], [list(predictions)], betas)[0]
