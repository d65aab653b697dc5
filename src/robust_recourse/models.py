"""Classifiers that recourse is computed against.

Two concrete scorers sit behind a small probability interface: a generalized
linear scorer built from ModelParams, and an inference-only feed-forward
network loaded from serialized weights. A logistic fit by Newton's method, run
to its gradient tolerance, produces the base model for the experiment harness;
network training is out of scope.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .glm import ModelParams, score, sigmoid

__all__ = [
    "BlackBoxScorer",
    "GlmScorer",
    "MlpWeights",
    "MlpScorer",
    "TrainingDataError",
    "mlp_forward",
    "predict_label",
    "fit_logistic",
    "train_logistic",
]


class TrainingDataError(ValueError):
    """Training data is unusable (single class, non-finite or overflowing features)."""


@runtime_checkable
class BlackBoxScorer(Protocol):
    """Maps an (n, d) stack to its n probabilities of the desirable label, a point to a float."""

    def probability(self, x): ...


@dataclass(frozen=True)
class GlmScorer:
    """Probability as the logistic sigmoid of the linear score, per row of a stack."""

    params: ModelParams

    def probability(self, x):
        return sigmoid(score(self.params, x))


@dataclass(frozen=True)
class MlpWeights:
    """Dense layers as (weight matrix, bias vector) pairs, output dimension 1.

    Hidden layers use the rectifier; the final layer is squashed by a sigmoid.
    Serialized form: {"layers": [{"w": [[...]], "b": [...]}, ...]}.
    """

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        cleaned = []
        prev_out = None
        for idx, (w, b) in enumerate(self.layers):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.size:
                raise ValueError(f"layer {idx} has inconsistent shapes {w.shape} / {b.shape}")
            if prev_out is not None and w.shape[1] != prev_out:
                raise ValueError(
                    f"layer {idx} expects {w.shape[1]} inputs but layer {idx - 1} outputs {prev_out}"
                )
            prev_out = w.shape[0]
            cleaned.append((w, b))
        if prev_out != 1:
            raise ValueError(f"final layer must output 1 value, got {prev_out}")
        object.__setattr__(self, "layers", tuple(cleaned))

    def to_json(self) -> str:
        return json.dumps(
            {"layers": [{"w": w.tolist(), "b": b.tolist()} for w, b in self.layers]}
        )

    @classmethod
    def from_json(cls, text: str) -> "MlpWeights":
        spec = json.loads(text)
        return cls(tuple((layer["w"], layer["b"]) for layer in spec["layers"]))


def mlp_forward(weights: MlpWeights, x):
    """Rectifier hidden layers, sigmoid output: each row's probability, a float for a point.

    Each layer is one stacked mat-vec on a C-contiguous copy, bitwise each row's own forward.
    """
    x = np.asarray(x, dtype=float)
    h = np.ascontiguousarray(np.atleast_2d(x))
    n_layers = len(weights.layers)
    for idx, (w, b) in enumerate(weights.layers):
        if h.shape[1] != w.shape[1]:
            raise ValueError(
                f"layer {idx} expects {w.shape[1]} inputs, got {h.shape[1]}"
            )
        h = np.matmul(w, h[:, :, None])[:, :, 0] + b
        if idx < n_layers - 1:
            h = np.maximum(h, 0.0)
    probs = sigmoid(h[:, 0])
    return float(probs[0]) if x.ndim < 2 else probs


@dataclass(frozen=True)
class MlpScorer:
    weights: MlpWeights

    def probability(self, x):
        return mlp_forward(self.weights, x)


def predict_label(scorer: BlackBoxScorer, x):
    """1 iff the probability of the desirable label is at least 0.5: per row, an int for a point.

    The boundary itself counts as desirable: recourse targets score
    crossings and the sigmoid maps score 0 to probability exactly 0.5.
    """
    labels = (np.asarray(scorer.probability(x)) >= 0.5).astype(int)
    return int(labels) if labels.ndim == 0 else labels


# The logistic fit's L2 penalty on the weights, the gradient tolerance (largest
# absolute component) at which it stops, and a guard on its Newton step count.
L2_PENALTY, TOLERANCE, MAX_STEPS = 1e-4, 1e-6, 100
_log = logging.getLogger("robust_recourse")


def _mean_bce_loss(theta: np.ndarray, xb: np.ndarray, y: np.ndarray, l2: float) -> float:
    s = xb @ theta
    # log(1 + exp(-s)) for y=1 and log(1 + exp(s)) for y=0, stably
    per_row = np.logaddexp(0.0, np.where(y == 1, -s, s))
    return float(per_row.mean() + 0.5 * l2 * np.dot(theta[:-1], theta[:-1]))


def fit_logistic(features, labels):
    """Newton's method (IRLS) on mean BCE with an L2 penalty (``L2_PENALTY``) on weights.

    Each step solves the penalised Hessian system; where it is singular
    (every p(1 - p) rounds to 0 on huge features) the gradient is the
    direction instead. A step is halved while it would raise the loss, so
    the recorded losses are non-increasing, and one that cannot lower it
    ends the fit. The fit stops once no gradient component exceeds
    ``TOLERANCE``, 10-11 steps on the synthetic data; ``MAX_STEPS`` only
    guards the loop. An unconverged fit is logged as a warning. Returns the
    parameters and that loss history. Labels other than 0 and 1 and
    features that overflow raise TrainingDataError.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels).ravel()
    if x.ndim == 1:
        x = x[:, None]
    if not np.all(np.isfinite(x)):
        raise TrainingDataError("features contain non-finite values")
    if x.shape[0] != y.size:
        raise TrainingDataError(f"{x.shape[0]} rows of features but {y.size} labels")
    if not np.isin(y, (0, 1)).all():
        raise TrainingDataError("labels must be 0 or 1")
    y = y.astype(float)
    if np.unique(y).size < 2:
        raise TrainingDataError("training data contains a single class")

    n, d = x.shape
    xb = np.hstack([x, np.ones((n, 1))])  # last column carries the intercept
    penalty = np.append(np.full(d, L2_PENALTY), 0.0)  # the intercept is not penalised
    theta = np.zeros(d + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            losses = [_mean_bce_loss(theta, xb, y, L2_PENALTY)]
            for steps in range(MAX_STEPS + 1):
                p = sigmoid(xb @ theta)
                grad = xb.T @ (p - y) / n + penalty * theta
                grad_max = float(np.max(np.abs(grad)))
                if grad_max <= TOLERANCE or steps == MAX_STEPS:
                    break
                hessian = (xb.T * (p * (1.0 - p))) @ xb / n + np.diag(penalty)
                try:
                    step = np.linalg.solve(hessian, grad)
                except np.linalg.LinAlgError:
                    step = grad
                for lr in 0.5 ** np.arange(40):  # the full step, then halves of it
                    candidate = theta - lr * step
                    cand_loss = _mean_bce_loss(candidate, xb, y, L2_PENALTY)
                    if cand_loss <= losses[-1] + 1e-12:
                        break
                else:
                    break
                theta = candidate
                losses.append(cand_loss)
    except FloatingPointError as exc:
        raise TrainingDataError(f"logistic fit overflowed: {exc}") from None
    if grad_max > TOLERANCE:
        _log.warning("logistic fit stopped unconverged after %d steps: max |gradient| %.3g",
                     steps, grad_max)
    return ModelParams(theta[:-1], theta[-1]), np.asarray(losses)


def train_logistic(features, labels) -> ModelParams:
    """Deterministic logistic-regression fit; see fit_logistic for details."""
    params, _ = fit_logistic(features, labels)
    return params
