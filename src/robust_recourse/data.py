"""Dataset synthesis, CSV ingestion, normalization, and fold splitting.

The synthetic generator draws labels uniformly and then one Gaussian block
for the features around the class means ``MU0`` and ``MU1`` (variance
``SIGMA``), so two specs differing only in ``shift`` consume the random
stream identically; a zero shift reproduces the unshifted data bit for bit.

Normalization is a z-score: the studies compute the statistics on each
fold's training rows (``compute_norm_stats``) and apply them to that fold's
rows (``apply_norm``). Constant features normalize to zero and are flagged.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .glm import _check_json_types

__all__ = [
    "DataError",
    "SyntheticSpec",
    "NormStats",
    "Dataset",
    "FoldPlan",
    "generate_synthetic",
    "ingest_csv",
    "compute_norm_stats",
    "apply_norm",
    "kfold",
]


class DataError(ValueError):
    """Malformed input data or an infeasible split request."""


MU0, MU1, SIGMA = (-2.0, -2.0), (2.0, 2.0), 0.5  # the class means and the per-feature variance


@dataclass(frozen=True)
class SyntheticSpec:
    """A synthetic draw; ``shift`` moves the class-0 mean along axis 0."""

    n_points: int = 1000
    seed: int = 0
    shift: float = 0.0

    def __post_init__(self) -> None:
        _check_json_types(self)
        if self.n_points < 2:
            raise ValueError("n_points must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not np.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean and stddev; constant features are divided by 1 and flagged."""

    mean: np.ndarray
    stddev: np.ndarray
    constant: np.ndarray


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple = ()

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2 or feats.shape[1] == 0:
            raise DataError("features must be a 2-D matrix with at least one column")
        if labs.shape != (feats.shape[0],):
            raise DataError("labels must align with feature rows")
        if not np.isfinite(feats).all():
            raise DataError("features contain non-finite entries")
        if not np.isin(labs, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs.astype(int))
        if not self.feature_names:
            object.__setattr__(
                self, "feature_names", tuple(f"x{i}" for i in range(feats.shape[1]))
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def to_json(self) -> str:
        payload = {
            "features": self.features.tolist(),
            "labels": self.labels.tolist(),
            "feature_names": list(self.feature_names),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"dataset is not valid JSON: {exc}") from None
        if not isinstance(d, dict) or not {"features", "labels"} <= d.keys():
            raise DataError("dataset JSON needs 'features' and 'labels'")
        return cls(
            features=np.asarray(d["features"], dtype=float),
            labels=d["labels"],
            feature_names=tuple(d.get("feature_names", ())),
        )


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignment: np.ndarray

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignment != fold)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Uniform labels, then Gaussian features around the labeled class mean."""
    rng = np.random.default_rng(spec.seed)
    mu = np.vstack([(MU0[0] + spec.shift, *MU0[1:]), MU1])
    labels = rng.integers(0, 2, size=spec.n_points)
    noise = rng.standard_normal((spec.n_points, mu.shape[1])) * np.sqrt(SIGMA)
    return Dataset(features=mu[labels] + noise, labels=labels)


def ingest_csv(path: str, label_column: str, positive_label: str) -> Dataset:
    """Read a headered CSV into a Dataset, mapping one label value to 1.

    Rows with unparsable feature cells are reported by 1-based data row
    number; any such row fails the ingest.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if label_column not in header:
        raise DataError(f"{path}: no column named {label_column!r}")
    if len(header) < 2:
        raise DataError(f"{path}: no feature column besides {label_column!r}")
    if not rows:
        raise DataError(f"{path}: no data rows")

    label_idx = header.index(label_column)
    feature_names = tuple(name for i, name in enumerate(header) if i != label_idx)

    bad_rows = []
    features = []
    raw_labels = []
    for row_no, row in enumerate(rows, start=1):
        if len(row) != len(header):
            bad_rows.append(row_no)
            continue
        try:
            features.append([float(cell) for i, cell in enumerate(row) if i != label_idx])
        except ValueError:
            bad_rows.append(row_no)
            continue
        raw_labels.append(row[label_idx].strip())
    if bad_rows:
        listed = ", ".join(str(r) for r in bad_rows[:20])
        raise DataError(f"{path}: unparsable rows: {listed}")

    if positive_label not in raw_labels:
        raise DataError(f"{path}: positive label {positive_label!r} never occurs")
    labels = np.array([1 if lab == positive_label else 0 for lab in raw_labels])
    return Dataset(features=np.array(features), labels=labels, feature_names=feature_names)


def compute_norm_stats(features: np.ndarray) -> NormStats:
    features = np.asarray(features, dtype=float)
    mean = features.mean(axis=0)
    stddev = features.std(axis=0)
    constant = stddev == 0.0
    return NormStats(mean=mean, stddev=np.where(constant, 1.0, stddev), constant=constant)


def apply_norm(stats: NormStats, features: np.ndarray) -> np.ndarray:
    """Z-score one row or a matrix of rows; constant features map to zero."""
    out = (np.asarray(features, dtype=float) - stats.mean) / stats.stddev
    return np.where(stats.constant, 0.0, out)


def kfold(n: int, k: int = 5, seed: int = 0) -> FoldPlan:
    """Shuffled balanced fold assignment; fold sizes differ by at most one."""
    if k < 1:
        raise DataError("k must be at least 1")
    if k > n:
        raise DataError(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    assignment = np.empty(n, dtype=int)
    assignment[perm] = np.arange(n) % k
    return FoldPlan(k=k, assignment=assignment)
