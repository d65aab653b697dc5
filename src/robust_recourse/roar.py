"""Gradient-descent baseline for robust recourse.

Alternates an exact inner maximization (the closed-form worst-case model for
the current point) with one subgradient step on the total cost. Unlike the
exact coordinate solver this only finds local optima: trajectories that
would need to cross a sign region can stall, which is precisely the gap the
comparison studies measure.

The cost term's subgradient uses ``numpy.sign`` (0 at the kink), so from an
exact tie the step ignores the cost; the best iterate seen, judged by
worst-case total cost, is returned rather than the last one.

One loop, ``roar_recourse_batch``, runs many rows at once, each with its own
``lam``, model ball and immutable mask. Every operation stays within a row, so
no row's result depends on the others; ``roar_recourse`` is the one-row case.

The loop runs in blocks of at most 64 iterations, fewer when the stack is
large (a block buffers about 16k entries of x). Inside a block it does only
the recurrence: gradient, masked step, x, offset from x0, worst-case weights
and score, and each iterate's x, score and step go into buffers. Once per
block, over all its iterates at once, it evaluates the totals, applies the
``tolerance`` freeze and updates the best iterate. This is exact, bit for bit,
against a loop that does all of it every iteration:

- each buffered number comes from the same elementwise operations, in the
  same order, as in the per-iteration loop; only the array holding it is
  larger;
- a row whose step falls to ``tolerance`` at iterate k would take no further
  step, so its later iterates all equal iterate k and none can improve on
  it. The block drops the row's iterates after k, and from the next block on
  its steps are masked to zero. That gives the result of rewinding the row to
  iterate k, although it runs on in the buffers to the end of the block;
- the per-iteration loop keeps an iterate only if it is strictly lower than
  the best so far, so it ends on the first minimum of all iterates. The block
  takes its own first minimum and keeps it only if strictly lower than the
  best of the earlier blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import Neighborhood, best_response
from .glm import (
    CostSpec,
    LossKind,
    RecourseQuery,
    _check_json_types,
    eval_loss,
    eval_total_cost,
    loss_derivative,
    weighted_l1,
)
from .solver import RecoursePlan, _row_stack

__all__ = ["RoarConfig", "roar_recourse", "roar_recourse_batch"]

# a block runs at most this many iterations and buffers about this many x entries
_BLOCK_ITERS = 64
_BLOCK_ELEMENTS = 16384


@dataclass(frozen=True)
class RoarConfig:
    learning_rate: float = 0.01
    max_iters: int = 2000
    tolerance: float = 1e-7

    def __post_init__(self) -> None:
        _check_json_types(self)
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1")
        if not 0.0 <= self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and nonnegative")


def roar_recourse(
    query: RecourseQuery,
    neighborhood: Neighborhood,
    cfg: RoarConfig | None = None,
) -> RecoursePlan:
    """Alternating maximization / subgradient descent on the worst-case cost."""
    x = roar_recourse_batch(
        query.x0[None, :], query.lam, neighborhood, cfg, query.loss, query.cost,
        query.immutable_mask,
    )[0]
    return RecoursePlan(
        x_prime=x,
        l1_cost=weighted_l1(query, x),
        worst_case_total=eval_total_cost(query, x, best_response(neighborhood, x)),
        trace=(),
    )


def roar_recourse_batch(
    x0s: np.ndarray,
    lam: float | np.ndarray,
    neighborhood: Neighborhood | list,
    cfg: RoarConfig | None = None,
    loss: LossKind = LossKind.BCE,
    cost: CostSpec | None = None,
    immutable_mask: np.ndarray | None = None,
) -> np.ndarray:
    """The baseline from many starts; returns the best-seen iterate of each row.

    ``lam``, ``neighborhood`` (a ball) and ``immutable_mask`` are each either
    shared or given per row; loss and cost weights are shared. Rows whose
    step drops below tolerance are frozen while the rest continue.
    """
    cfg = cfg or RoarConfig()
    stack = _row_stack(x0s, lam, neighborhood, cost, immutable_mask)
    x0s, cost_w, free = stack.x0, stack.cost, ~stack.frozen
    lam, b_eff = stack.lam[:, 0], stack.worst_b[:, 0]
    m, d = x0s.shape
    lam_cost = stack.lam * cost_w
    # worst-case weights on each orthant side; sign convention +1 at zero, matching best_response
    w_pos, w_neg = stack.base - stack.alpha, stack.base + stack.alpha

    def scored(pts: np.ndarray) -> tuple:
        weights = np.where(pts >= 0.0, w_pos, w_neg)
        return weights, (pts * weights).sum(axis=1) + b_eff

    def totals(s: np.ndarray, diff: np.ndarray) -> np.ndarray:
        return eval_loss(loss, s) + lam * (np.abs(diff) * cost_w).sum(axis=-1)

    # an iterate's weights, score and offset from x0 serve the next step; its
    # x, score and step wait in the block buffers for the bookkeeping
    block = max(1, min(_BLOCK_ITERS, cfg.max_iters, _BLOCK_ELEMENTS // max(1, m * d)))
    xs, ss, steps = np.empty((block, m, d)), np.empty((block, m)), np.empty((block, m, d))
    x, diff = x0s.copy(), np.zeros_like(x0s)
    weights, s = scored(x)
    best_x = x0s.copy()
    best_val = totals(s, diff)
    alive = np.ones(m, dtype=bool)
    rows = np.arange(m)
    for start in range(0, cfg.max_iters, block):
        if not alive.any():
            break
        n = min(block, cfg.max_iters - start)
        moving = alive[:, None] & free
        for i in range(n):
            grad = loss_derivative(loss, s)[:, None] * weights + lam_cost * np.sign(diff)
            step = steps[i] = np.where(moving, cfg.learning_rate * grad, 0.0)
            x = np.subtract(x, step, out=xs[i])
            diff = x - x0s
            weights, s = scored(x)
            ss[i] = s
        # iterate i counts if its row was alive entering the block and every
        # earlier step of the block cleared the tolerance; a NaN total never
        # counts, as it is never strictly lower than the best
        stepped = np.abs(steps[:n]).max(axis=2) > cfg.tolerance
        counted = np.logical_and.accumulate(np.vstack([alive, stepped[:-1]]), axis=0)
        vals = totals(ss[:n], xs[:n] - x0s)
        vals = np.where(counted & ~np.isnan(vals), vals, np.inf)
        # the first minimum of the block replaces the best only if strictly lower
        first = vals.argmin(axis=0)
        low = vals[first, rows]
        improved = low < best_val
        best_val = np.where(improved, low, best_val)
        best_x[improved] = xs[first[improved], rows[improved]]
        alive = counted[-1] & stepped[-1]
    return best_x
