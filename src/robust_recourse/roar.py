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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import Neighborhood, best_response
from .glm import (
    CostSpec,
    DimensionMismatchError,
    LossKind,
    RecourseQuery,
    eval_loss,
    eval_total_cost,
    loss_derivative,
    weighted_l1,
)
from .solver import RecoursePlan

__all__ = ["RoarConfig", "roar_recourse", "roar_recourse_batch"]


@dataclass(frozen=True)
class RoarConfig:
    learning_rate: float = 0.01
    max_iters: int = 2000
    tolerance: float = 1e-7

    def __post_init__(self) -> None:
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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
    x0s = np.asarray(x0s, dtype=float)
    m, d = x0s.shape
    balls = [neighborhood] if isinstance(neighborhood, Neighborhood) else list(neighborhood)
    base_w = np.array([ball.base.weights for ball in balls])
    if len(balls) not in (1, m) or base_w.shape[1] != d:
        raise DimensionMismatchError(
            f"{len(balls)} balls of {base_w.shape[1]} weights for starts of shape {(m, d)}"
        )
    alpha = np.array([[ball.alpha] for ball in balls])
    b_eff = np.array([ball.worst_intercept for ball in balls])
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (m,)).copy()
    if not np.all((0.0 <= lam) & (lam < np.inf)):
        raise ValueError("lam must be finite and nonnegative")
    mask = np.zeros(d, dtype=bool) if immutable_mask is None else immutable_mask
    free = ~np.broadcast_to(np.asarray(mask, dtype=bool), (m, d))
    cost_w = (cost or CostSpec.unit(d)).weights
    lam_cost = lam[:, None] * cost_w

    def scored(pts: np.ndarray) -> tuple:
        # worst-case weights and scores; sign convention +1 at zero, matching best_response
        weights = base_w - alpha * np.where(pts >= 0.0, 1.0, -1.0)
        return weights, (pts * weights).sum(axis=1) + b_eff

    def totals(s: np.ndarray, diff: np.ndarray) -> np.ndarray:
        return eval_loss(loss, s) + lam * (np.abs(diff) * cost_w).sum(axis=1)

    # an iterate's weights, score and offset from x0 serve its total and the next step
    x, diff = x0s.copy(), np.zeros_like(x0s)
    weights, s = scored(x)
    best_x = x0s.copy()
    best_val = totals(s, diff)
    alive = np.ones(m, dtype=bool)
    for _ in range(cfg.max_iters):
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
        alive &= np.abs(step).max(axis=1) > cfg.tolerance
    return best_x
