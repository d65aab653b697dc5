"""Worst-case model computations inside an L-infinity parameter ball.

Three views of the adversary live here. ``best_response`` is the closed form:
against a fixed input the score-minimizing model shifts every weight by the
full budget, in the direction opposite the input's sign, and always lowers
the intercept (its multiplier is the constant +1). ``corner_oracle`` checks
the same thing by brute force over the corners ``Neighborhood.corners``
enumerates and is used to certify the closed form.
``worst_case_shared_model`` finds a single model that degrades a whole
recourse set at once, for validity experiments. Its mean loss is convex in
the model, so it searches the ball's vertices: all of them when there are
few, a local 1-flip search when there are many.

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

__all__ = ["Neighborhood", "best_response", "corner_oracle", "worst_case_shared_model"]

_ENUMERATION_CAP = 12  # free ball coordinates up to which every corner is scored


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


def worst_case_shared_model(neighborhood: Neighborhood, recourses) -> ModelParams:
    """One model in the ball that hurts a whole recourse set.

    Maximizes the mean BCE loss of the set toward the desirable label. The
    loss is convex in the model and the ball is a box, so a vertex attains
    the maximum. With at most ``_ENUMERATION_CAP`` free coordinates (the
    weights, plus the intercept when it is attackable) every corner is
    scored and the first best in ``corners()`` order is returned: the exact
    worst case. Above the cap a 1-flip vertex search runs instead: it starts
    at the vertex the signs of the base model's gradient point to and takes
    the best strictly improving single flip until none improves. That is a
    local optimum only; convex maximization over a box is NP-hard.
    """
    base, alpha = neighborhood.base, neighborhood.alpha
    points = np.atleast_2d(np.asarray(recourses, dtype=float))
    if points.size == 0:
        raise ValueError("recourse list is empty")
    if points.ndim != 2 or points.shape[1] != base.dim:
        raise DimensionMismatchError(f"model has {base.dim} weights, recourse set {points.shape}")

    def objective(scores):
        return np.mean(eval_loss(LossKind.BCE, scores), axis=-1)

    d, n_free = base.dim, base.dim + int(neighborhood.perturb_intercept)
    if n_free <= _ENUMERATION_CAP:
        weights, intercepts = neighborhood.corners()
        k = int(np.argmax(objective(weights @ points.T + intercepts[:, None])))
        return ModelParams(weights[k], intercepts[k])

    def vertex(signs):
        shift = alpha * signs[d] if n_free > d else 0.0
        return ModelParams(base.weights + alpha * signs[:d], base.intercept + shift)

    # start where the gradient's signs point: d/dtheta mean log(1 + exp(-s)) = -mean sigmoid(-s) x
    free = np.hstack([points, np.ones((len(points), 1))])[:, :n_free]
    signs = sign(-(sigmoid(-(points @ base.weights + base.intercept)) @ free))
    start = vertex(signs)
    scores = points @ start.weights + start.intercept
    value = objective(scores)
    while True:
        # flipping coordinate j moves every score by -2 alpha signs[j] free[:, j]
        flipped = scores - 2.0 * alpha * (signs[:, None] * free.T)
        values = objective(flipped)
        j = int(np.argmax(values))
        if not values[j] > value:
            return vertex(signs)
        signs[j], scores, value = -signs[j], flipped[j], values[j]
