"""Worst-case model computations inside an L-infinity parameter ball.

Three views of the adversary live here. ``best_response`` is the closed form:
against a fixed input the score-minimizing model shifts every weight by the
full budget, in the direction opposite the input's sign, and always lowers
the intercept (its multiplier is the constant +1). ``corner_oracle`` checks
the same thing by brute force over the corners ``Neighborhood.corners``
enumerates and is used to certify the closed form.
``worst_case_shared_model`` finds a single model that degrades a whole
batch of recourses at once, via projected gradient ascent,
for validity experiments; it also takes a stack of equal-size batches, each
with its own ball, and ascends them all in one loop.

A Neighborhood may be built with ``perturb_intercept=False`` for problems
posed without an attackable intercept term; the intercept then stays fixed.
The ball owns its rules: the lowest intercept it allows
(``worst_intercept``), membership with a 1e-9 slack (``contains``), the
coordinatewise clamp onto it (``clamp``) and its corner enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glm import DimensionMismatchError, LossKind, ModelParams, eval_loss, sigmoid, sign

__all__ = ["Neighborhood", "AscentConfig", "best_response", "corner_oracle", "worst_case_shared_model"]


@dataclass(frozen=True)
class Neighborhood:
    """Ball of models within ``alpha`` of ``base`` in every coordinate."""

    base: ModelParams
    alpha: float
    perturb_intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("alpha must be finite and nonnegative")

    @property
    def _reach(self) -> float:
        """How far the intercept may move: alpha when it is attackable, else 0."""
        return self.alpha if self.perturb_intercept else 0.0

    @property
    def worst_intercept(self) -> float:
        """The lowest intercept in the ball: alpha below the base when attackable."""
        return self.base.intercept - self._reach

    def contains(self, params: ModelParams) -> bool:
        """Whether ``params`` lies in the ball, up to 1e-9 in every coordinate."""
        return (
            params.dim == self.base.dim
            and float(np.max(np.abs(params.weights - self.base.weights))) <= self.alpha + 1e-9
            and abs(params.intercept - self.base.intercept) <= self._reach + 1e-9
        )

    def clamp(self, params: ModelParams) -> ModelParams:
        """The model in the ball nearest ``params``, clamped coordinatewise."""
        w, b, reach = self.base.weights, self.base.intercept, self._reach
        return ModelParams(
            np.clip(params.weights, w - self.alpha, w + self.alpha),
            float(np.clip(params.intercept, b - reach, b + reach)),
        )

    def corners(self) -> tuple[np.ndarray, np.ndarray]:
        """Every +/-alpha corner, as a weight matrix and an intercept vector.

        Rows run in lexicographic order of the sign patterns, -1 before +1:
        the weights first, then the intercept when it is attackable. All
        2^n rows are built at once, so callers bound n.
        """
        d = self.base.dim
        n_dims = d + int(self.perturb_intercept)
        bits = (np.arange(2**n_dims)[:, None] >> np.arange(n_dims - 1, -1, -1)) & 1
        signs = 2.0 * bits - 1.0
        intercepts = np.full(len(signs), self.base.intercept)
        if self.perturb_intercept:
            intercepts += self.alpha * signs[:, d]
        return self.base.weights + self.alpha * signs[:, :d], intercepts


@dataclass(frozen=True)
class AscentConfig:
    learning_rate: float = 0.001
    steps: int = 1000
    moment_decay: tuple = (0.9, 0.999)
    epsilon: float = 1e-8


def best_response(neighborhood: Neighborhood, x) -> ModelParams:
    """Model in the ball minimizing the score of x, in closed form.

    Each weight moves by alpha against the sign of the matching input entry
    (sign(0) counts as positive); the intercept moves down by alpha when it
    participates in the ball.
    """
    base = neighborhood.base
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != base.dim:
        raise DimensionMismatchError(
            f"model has {base.dim} weights, input has {x.size} features"
        )
    return ModelParams(base.weights - neighborhood.alpha * sign(x), neighborhood.worst_intercept)


def corner_oracle(neighborhood: Neighborhood, x) -> ModelParams:
    """Score every +/-alpha corner of the ball, return a score minimizer.

    Ties are broken in favor of the lexicographically smallest sign pattern
    (weights first, then the intercept when it participates).
    """
    base = neighborhood.base
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != base.dim:
        raise DimensionMismatchError(
            f"model has {base.dim} weights, input has {x.size} features"
        )
    n_dims = base.dim + (1 if neighborhood.perturb_intercept else 0)
    if n_dims > 20:
        raise ValueError(f"corner enumeration needs 2^{n_dims} models; dimension too large")
    weights, intercepts = neighborhood.corners()
    k = int(np.argmin(weights @ x + intercepts))  # first minimum: rows run in lex order
    return ModelParams(weights[k], intercepts[k])


def worst_case_shared_model(neighborhood, recourses, cfg: AscentConfig = AscentConfig()):
    """One model in the ball that hurts a whole recourse set.

    Maximizes the mean BCE loss of the set toward the desirable label with
    adaptive-moment gradient ascent, projecting every coordinate back into
    the ball after each step. The iterate with the best objective seen is
    returned, so the result is never worse than the ball's base model.

    Stacked form: given P balls and a (P, n, d) array of P equal-size sets,
    one loop ascends each set in its own ball with its own moments and
    best-so-far, and returns a list of P models, bitwise equal to P calls.
    """
    stacked = not isinstance(neighborhood, Neighborhood)
    balls = list(neighborhood) if stacked else [neighborhood]
    points = np.asarray(recourses, dtype=float)
    points = points if stacked else np.atleast_2d(points)[None]
    if points.size == 0:
        raise ValueError("recourse list is empty")
    theta0 = np.array([np.append(ball.base.weights, ball.base.intercept) for ball in balls])
    if points.ndim != 3 or len(points) != len(balls) or points.shape[2] + 1 != theta0.shape[1]:
        raise DimensionMismatchError(
            f"{len(balls)} balls of {theta0.shape[1] - 1} weights, recourse sets {points.shape}"
        )
    radius = np.array([[ball.alpha] for ball in balls])
    lo, hi = theta0 - radius, theta0 + radius
    fixed = np.array([not ball.perturb_intercept for ball in balls])
    lo[fixed, -1] = hi[fixed, -1] = theta0[fixed, -1]
    design = np.concatenate([points, np.ones(points.shape[:2] + (1,))], axis=2)
    design_t = design.transpose(0, 2, 1)

    def scores(theta):
        return (design @ theta[:, :, None])[:, :, 0]

    def objective(s):
        return np.mean(eval_loss(LossKind.BCE, s), axis=1)

    beta1, beta2 = cfg.moment_decay
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best_theta = theta.copy()
    s = scores(theta)  # the current iterate's scores serve its objective and the next gradient
    best_value = objective(s)

    for step in range(1, cfg.steps + 1):
        # ascent direction: d/dtheta mean log(1 + exp(-s)) = -mean sigmoid(-s) x
        grad = -(design_t @ sigmoid(-s)[:, :, None])[:, :, 0] / points.shape[1]
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        theta = theta + cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        theta = np.clip(theta, lo, hi)
        s = scores(theta)
        value = objective(s)
        improved = value > best_value
        best_value = np.where(improved, value, best_value)
        best_theta[improved] = theta[improved]

    models = [ModelParams(row[:-1], row[-1]) for row in best_theta]
    return models if stacked else models[0]
