"""Local linear approximation of a black-box scorer around one instance.

Samples Gaussian perturbations of the instance, weights them by proximity,
and fits a weighted ridge regression in logit space so the result is a
linear score model the recourse solvers can consume directly. Probabilities
of exactly 0 or 1 clamp to logits of -15 / +15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glm import ModelParams, _check_json_types
from .models import BlackBoxScorer, TrainingDataError

__all__ = ["SurrogateConfig", "fit_local_linear"]

LOGIT_CLAMP = 15.0


@dataclass(frozen=True)
class SurrogateConfig:
    """Sampling and regression knobs; width defaults to 0.75 * sqrt(d) at fit time."""

    n_samples: int = 1000
    stddev: float = 1.0
    width: float | None = None
    ridge: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        _check_json_types(self)
        if self.n_samples < 1:
            raise ValueError("n_samples must be an integer of at least 1")
        if not np.isfinite(self.stddev):
            raise ValueError("stddev must be a finite number")
        if self.width is not None and not 0.0 < self.width < np.inf:
            raise ValueError("kernel width must be finite and positive")
        if not 0.0 <= self.ridge < np.inf:
            raise ValueError("ridge penalty must be finite and nonnegative")


def fit_local_linear(
    scorer: BlackBoxScorer,
    x0: np.ndarray,
    cfg: SurrogateConfig | None = None,
) -> ModelParams:
    """Weighted ridge fit of clamped logits on perturbations of ``x0``.

    The scorer scores all samples in one call. Deterministic given the config
    seed. Raises TrainingDataError when the sampled design is degenerate (all
    samples identical), the scorer does not give one probability per sample,
    or the weighted normal equations are singular.
    """
    cfg = cfg or SurrogateConfig()
    x0 = np.asarray(x0, dtype=float)
    d = x0.shape[0]
    if cfg.n_samples < d + 1:
        raise ValueError(f"need at least {d + 1} samples for {d} features, got {cfg.n_samples}")
    width = cfg.width if cfg.width is not None else 0.75 * np.sqrt(d)

    rng = np.random.default_rng(cfg.seed)
    samples = x0 + cfg.stddev * rng.standard_normal((cfg.n_samples, d))
    if np.ptp(samples, axis=0).max() == 0.0:
        raise TrainingDataError("degenerate design: all surrogate samples identical")

    probs = np.asarray(scorer.probability(samples), dtype=float)
    if probs.shape != (cfg.n_samples,):
        raise TrainingDataError(f"scorer gave shape {probs.shape} for {cfg.n_samples} samples")
    # a vanishing width gives weight 0, its limit
    with np.errstate(divide="ignore", over="ignore"):
        omega = np.exp(-((samples - x0) ** 2).sum(axis=1) / width**2)
        logits = np.log(probs / (1.0 - probs))
    targets = np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP)

    design = np.column_stack([samples, np.ones(cfg.n_samples)])
    weighted = design * omega[:, None]
    gram = design.T @ weighted
    gram[np.arange(d), np.arange(d)] += cfg.ridge  # intercept unpenalized
    rhs = weighted.T @ targets
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise TrainingDataError(f"surrogate normal equations singular: {exc}") from exc
    return ModelParams(weights=beta[:d], intercept=float(beta[d]))
