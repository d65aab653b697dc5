"""Scoring and cost primitives for recourse on generalized linear classifiers.

A classifier is evaluated as g(h(x)) where h(x) = weights . x + intercept is a
linear score and g is a non-decreasing link mapping scores to probabilities.
A candidate recourse x' for an instance x0 is judged by a total cost: a loss
term measuring how far the score is from the desirable side of the decision
boundary, plus ``lam`` times a weighted L1 modification cost. Every solver,
baseline, and metric in this package is written against these helpers.

The costs are written once, for (R, d) row stacks, in ``_l1`` and ``_totals``;
``weighted_l1`` and ``eval_total_cost`` are their one-row calls.

Sign convention: ``sign`` is two-valued with sign(0) = +1. The worst-case
model computations depend on this convention, so it is defined once here and
used everywhere.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "LossKind",
    "ModelParams",
    "CostSpec",
    "RecourseQuery",
    "sign",
    "sigmoid",
    "logit",
    "score",
    "eval_loss",
    "loss_derivative",
    "weighted_l1",
    "eval_total_cost",
]


class DimensionMismatchError(ValueError):
    """A vector's length does not match the model or query dimension."""


_MAX_INT = 2**31 - 1  # the largest integer setting; a derived seed keeps 31 bits

# The JSON value a field of a settings class takes, by its annotation (a
# string, as annotations are postponed); one ending in "| None" also admits
# null. A number is never a boolean. Every settings class checks this first.
_JSON_KINDS = {"str": (str, "a string"), "float": (numbers.Real, "a number"),
               "int": (numbers.Integral, "an integer"), "tuple": ((tuple, list), "a list")}


def _check_json_types(settings, error=ValueError) -> None:
    """Raise ``error`` naming the first field of ``settings`` its annotation does not admit."""
    for f in fields(settings):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(settings, f.name)
        if kind in _JSON_KINDS and not (optional and value is None):
            typ, what = _JSON_KINDS[kind]
            if isinstance(value, bool) or not isinstance(value, typ):
                raise error(f"{f.name} must be {what}{' or null' if optional else ''}"
                            f", got {value!r}")
            if kind == "int" and abs(value) > _MAX_INT:  # no size, count or seed needs more
                raise error(f"{f.name} must be an integer of magnitude at most {_MAX_INT}")
            if kind == "float" and not isinstance(value, float):
                # stored as a float, which must hold it exactly: 10**30 rounds, 10**400 overflows
                if not (abs(value) <= sys.float_info.max and float(value) == value):
                    raise error(f"{f.name} must be a number a float holds exactly, got {value!r}")
                object.__setattr__(settings, f.name, float(value))


class LossKind(Enum):
    """Loss on the score toward the desirable label.

    BCE is log(1 + exp(-s)); SQUARED is (p - 1)^2 on the clamped-identity
    probability p = clip(s, 0, 1). Both are non-increasing in the score,
    which the worst-case computations rely on.
    """

    BCE = "bce"
    SQUARED = "squared"


def sign(v):
    """Two-valued sign: +1.0 for v >= 0, -1.0 otherwise. Elementwise on arrays."""
    v_arr = np.asarray(v, dtype=float)
    out = np.where(v_arr >= 0.0, 1.0, -1.0)
    if v_arr.ndim == 0:
        return float(out)
    return out


def sigmoid(s):
    """Numerically stable logistic function, scalar or elementwise."""
    s_arr = np.asarray(s, dtype=float)
    out = np.exp(-np.logaddexp(0.0, -s_arr))
    if s_arr.ndim == 0:
        return float(out)
    return out


def logit(p: float) -> float:
    """Inverse of the sigmoid; p must lie in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"logit requires p in (0, 1), got {p}")
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class ModelParams:
    """Linear score parameters: h(x) = weights . x + intercept."""

    weights: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "intercept", float(self.intercept))
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-D vector")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.intercept)):
            raise ValueError("model parameters must be finite")

    @property
    def dim(self) -> int:
        return int(self.weights.size)

    def to_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "intercept": self.intercept}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(np.asarray(d["weights"], dtype=float), float(d["intercept"]))

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class CostSpec:
    """Per-feature positive cost weights for the L1 modification term."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "weights", w)
        if w.size < 1 or not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("cost weights must be finite and strictly positive")

    @classmethod
    def unit(cls, dim: int) -> "CostSpec":
        return cls(np.ones(dim))


@dataclass(frozen=True)
class RecourseQuery:
    """One recourse problem: starting point, regularizer, loss, costs, mask."""

    x0: np.ndarray
    lam: float
    loss: LossKind = LossKind.BCE
    cost: CostSpec | None = None
    immutable_mask: np.ndarray | None = None

    def __post_init__(self):
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lam", float(self.lam))
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and nonnegative")
        if self.cost is None:
            object.__setattr__(self, "cost", CostSpec.unit(x0.size))
        if self.cost.weights.size != x0.size:
            raise DimensionMismatchError(
                f"cost has {self.cost.weights.size} weights, x0 has {x0.size} features"
            )
        if self.immutable_mask is None:
            object.__setattr__(self, "immutable_mask", np.zeros(x0.size, dtype=bool))
        else:
            mask = np.atleast_1d(np.asarray(self.immutable_mask, dtype=bool))
            if mask.size != x0.size:
                raise DimensionMismatchError(
                    f"mask has {mask.size} entries, x0 has {x0.size} features"
                )
            object.__setattr__(self, "immutable_mask", mask)

    @property
    def dim(self) -> int:
        return int(self.x0.size)


def score(params: ModelParams, x):
    """Linear score weights . x + intercept per row of an (n, d) stack, a float for a point.

    The row dots are a stacked ``matmul`` on a C-contiguous copy, bitwise ``weights @ row``.
    """
    x = np.asarray(x, dtype=float)
    rows = np.ascontiguousarray(np.atleast_2d(x))
    if rows.shape[1] != params.dim:
        raise DimensionMismatchError(
            f"model has {params.dim} weights, input has {rows.shape[1]} features"
        )
    scores = np.matmul(rows[:, None, :], params.weights[:, None])[:, 0, 0] + params.intercept
    return float(scores[0]) if x.ndim < 2 else scores


def eval_loss(loss: LossKind, s):
    """Loss at score s toward the desirable label. Scalar or elementwise."""
    s_arr = np.asarray(s, dtype=float)
    if loss is LossKind.BCE:
        out = np.logaddexp(0.0, -s_arr)
    elif loss is LossKind.SQUARED:
        out = np.square(np.clip(s_arr, 0.0, 1.0) - 1.0)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    if s_arr.ndim == 0:
        return float(out)
    return out


def loss_derivative(loss: LossKind, s):
    """Derivative of eval_loss in the score (subgradient 0 at kinks)."""
    s_arr = np.asarray(s, dtype=float)
    if loss is LossKind.BCE:
        out = -sigmoid(-s_arr)
    elif loss is LossKind.SQUARED:
        out = np.where((s_arr > 0.0) & (s_arr < 1.0), 2.0 * (s_arr - 1.0), 0.0)
    else:
        raise ValueError(f"unknown loss {loss!r}")
    if s_arr.ndim == 0:
        return float(out)
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's ``a @ b``: bitwise its 1-D dot when both (R, d) stacks are C-contiguous."""
    return np.matmul(a[:, None], b[..., None]).ravel()


def _l1(x0: np.ndarray, cost: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row's weighted L1 cost of the (R, d) points ``x`` from the starts ``x0``."""
    return _row_dots(cost, np.abs(x - x0))


def _totals(loss: LossKind, x0, cost, lam, x, weights, intercept) -> tuple:
    """(L1 cost, total) per row of ``x`` under (weights, intercept); lam, intercept: (R,) or ()."""
    l1 = _l1(x0, cost, x)
    return l1, eval_loss(loss, _row_dots(weights, x) + intercept) + lam * l1


def _row(query: RecourseQuery, x_prime, width: int | None = None) -> np.ndarray:
    """x' as a C-contiguous (1, d) row, checked against a model's ``width`` and the query."""
    x = np.ascontiguousarray(x_prime, dtype=float).reshape(1, -1)
    if width is not None and x.shape[1] != width:
        raise DimensionMismatchError(f"model has {width} weights, input has {x.shape[1]} features")
    if x.shape[1] != query.dim:
        raise DimensionMismatchError(f"query has {query.dim} features, x' has {x.shape[1]}")
    return x


def weighted_l1(query: RecourseQuery, x_prime) -> float:
    """Weighted L1 modification cost of x' relative to the query's x0: one row of ``_l1``."""
    return float(_l1(query.x0[None], query.cost.weights[None], _row(query, x_prime))[0])


def eval_total_cost(query: RecourseQuery, x_prime, params: ModelParams) -> float:
    """Loss at the score of x' plus lam times the weighted L1 cost: one row of ``_totals``."""
    x = _row(query, x_prime, params.dim)
    return float(_totals(query.loss, query.x0[None], query.cost.weights[None], query.lam, x,
                         params.weights[None], params.intercept)[1][0])
