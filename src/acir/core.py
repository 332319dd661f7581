"""Shared data containers, the conformal quantile convention, and evaluation metrics.

Everything here is immutable after construction and free of hidden state, so
all of it can be used from concurrent workers without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "EnvDataset",
    "DataSplit",
    "PredictionInterval",
    "conformal_quantile",
    "coverage_rate",
    "average_length",
    "check_unique_env_ids",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class EnvDataset:
    """One environment's labeled sample.

    Parameters
    ----------
    env_id : int
        Integer label of the environment.
    features : ndarray of shape (n, p)
        Dense feature matrix, one row per observation.
    targets : ndarray of shape (n,)
        Real-valued targets aligned with the feature rows.
    """

    env_id: int
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "env_id", int(self.env_id))
        features = _readonly(np.atleast_2d(self.features))
        targets = _readonly(np.atleast_1d(self.targets))
        if features.ndim != 2:
            raise ValueError(f"features must be a matrix, got ndim={features.ndim}")
        if targets.ndim != 1:
            raise ValueError(f"targets must be a vector, got ndim={targets.ndim}")
        if features.shape[0] != targets.shape[0]:
            raise ValueError(
                f"row mismatch: {features.shape[0]} feature rows vs "
                f"{targets.shape[0]} targets"
            )
        if features.shape[0] < 1:
            raise ValueError("dataset must contain at least one observation")
        if not np.isfinite(features).all() or not np.isfinite(targets).all():
            raise ValueError("features and targets must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


def check_unique_env_ids(envs: list[EnvDataset] | tuple[EnvDataset, ...]) -> None:
    """Raise if the collection reuses an environment id (or is empty)."""
    if len(envs) == 0:
        raise ValueError("need at least one environment")
    ids = [env.env_id for env in envs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate environment ids in {ids}")


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/calibration partition of one environment's data."""

    train: EnvDataset
    calibration: EnvDataset

    def __post_init__(self) -> None:
        if self.train.env_id != self.calibration.env_id:
            raise ValueError(
                f"split parts disagree on env_id: "
                f"{self.train.env_id} vs {self.calibration.env_id}"
            )


@dataclass(frozen=True, eq=False)
class PredictionInterval:
    """Symmetric prediction intervals [center - half_width, center + half_width].

    center and half_width are read-only float arrays of one shape: (n,) for a
    batch of n points, () for a single point. lower, upper and contains work
    elementwise; len() counts the points and [i] is point i as a view.
    Compare intervals through their arrays: == is identity, as arrays have
    no single truth value.
    """

    center: np.ndarray
    half_width: np.ndarray

    def __post_init__(self) -> None:
        center = _readonly(self.center)
        half_width = _readonly(self.half_width)
        if center.shape != half_width.shape or center.ndim > 1:
            raise ValueError(
                f"center and half_width must share one shape (n,) or (), "
                f"got {center.shape} and {half_width.shape}"
            )
        if not np.isfinite(center).all():
            raise ValueError("center must be finite")
        if not (half_width >= 0).all():
            raise ValueError("half_width must be >= 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", half_width)

    def __len__(self) -> int:
        return len(self.center)  # TypeError for a single point, as for a 0-d array

    def __getitem__(self, i: int) -> PredictionInterval:
        # Rows of a validated interval are valid: share the read-only data
        # instead of copying and checking it again.
        row = object.__new__(PredictionInterval)
        object.__setattr__(row, "center", self.center[i, ...])
        object.__setattr__(row, "half_width", self.half_width[i, ...])
        return row

    def __iter__(self) -> Iterator[PredictionInterval]:
        return (self[i] for i in range(len(self)))

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width

    def contains(self, y: np.ndarray) -> np.ndarray:
        """Elementwise lower <= y <= upper."""
        return (self.lower <= y) & (y <= self.upper)


def conformal_quantile(scores: np.ndarray, alpha: float) -> float:
    """Finite-sample conformal quantile of a vector of conformity scores.

    Returns the k-th smallest score with k = ceil((1 - alpha) * (n + 1)),
    or +inf when k exceeds n (the calibration set is too small for the
    requested miscoverage level; an infinite interval keeps validity).

    Parameters
    ----------
    scores : array-like of shape (n,)
        Finite, nonnegative conformity scores. Need not be sorted.
    alpha : float
        Miscoverage rate in (0, 1).
    """
    scores = np.asarray(scores, dtype=float).ravel()
    n = scores.size
    if n == 0:
        raise ValueError("scores must be nonempty")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if scores.min() < 0:
        raise ValueError("scores must be nonnegative")
    k = math.ceil((1.0 - alpha) * (n + 1))
    if k > n:
        return math.inf
    return float(np.sort(scores)[k - 1])


def coverage_rate(intervals: PredictionInterval, truths: np.ndarray) -> float:
    """Fraction of truths falling inside their interval (bounds inclusive)."""
    truths = np.asarray(truths, dtype=float).ravel()
    if intervals.center.size != truths.size:
        raise ValueError(
            f"length mismatch: {intervals.center.size} intervals vs {truths.size} truths"
        )
    if truths.size == 0:
        raise ValueError("need at least one interval")
    return np.count_nonzero(intervals.contains(truths)) / truths.size


def average_length(intervals: PredictionInterval) -> float:
    """Mean interval half-width; +inf as soon as any half-width is infinite."""
    if intervals.half_width.size == 0:
        raise ValueError("need at least one interval")
    return float(np.mean(intervals.half_width))
