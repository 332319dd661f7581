"""Per-environment conformity calibration and interval construction.

Two interval constructions share one calibration pass:

* ``sc_intervals`` pools every environment's calibration scores and uses a
  single finite-sample quantile as the half-width for all test points.
* ``acir_intervals`` keeps per-environment quantiles and combines them with
  weights that measure how similar each test point's representation moments
  are to each environment's average moments, so the half-width adapts to
  the environment the point appears to come from. An optional nonnegative
  per-environment inflation vector can widen the result by its weighted
  average.

Both return one array-valued ``PredictionInterval`` for a batch of points;
``sc_interval`` and ``acir_interval`` are their single-point views.

The calibration state is a compact, serializable artifact: sorted scores and
two moment summaries per environment plus the model used to score. It is
immutable, and interval construction is a pure read, so a single state can
serve concurrent prediction requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EnvDataset, PredictionInterval, check_unique_env_ids, conformal_quantile
from .models import LinearIRMModel

__all__ = [
    "CalibrationState",
    "calibrate",
    "moment_stats",
    "save_state",
    "load_state",
]


def moment_stats(representation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation across representation coordinates.

    Works along the last axis: a (k,) representation gives two scalars, an
    (n, k) batch two (n,) arrays. Needs k >= 2; a one-dimensional
    representation has no spread to measure.
    """
    rep = np.atleast_1d(np.asarray(representation, dtype=float))
    if rep.shape[-1] < 2:
        raise ValueError(f"representation must have >= 2 coordinates, got {rep.shape[-1]}")
    return rep.mean(axis=-1), rep.std(axis=-1)


@dataclass(frozen=True)
class CalibrationState:
    """Sorted conformity scores and representation moments per environment."""

    model: LinearIRMModel
    env_ids: tuple[int, ...]
    scores: tuple[np.ndarray, ...]
    mu: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if len(self.env_ids) < 1:
            raise ValueError("need at least one environment")
        if len(set(self.env_ids)) != len(self.env_ids):
            raise ValueError(f"duplicate environment ids in {self.env_ids}")
        if not (len(self.scores) == len(self.env_ids) == len(self.mu) == len(self.v)):
            raise ValueError("per-environment fields disagree on length")
        frozen = []
        for env_id, sc in zip(self.env_ids, self.scores):
            sc = np.array(sc, dtype=float, copy=True)
            if sc.size < 1:
                raise ValueError(f"env {env_id}: empty score vector")
            if not np.isfinite(sc).all() or sc.min() < 0:
                raise ValueError(f"env {env_id}: scores must be finite and nonnegative")
            if np.any(np.diff(sc) < 0):
                raise ValueError(f"env {env_id}: scores must be sorted ascending")
            sc.setflags(write=False)
            frozen.append(sc)
        object.__setattr__(self, "env_ids", tuple(int(e) for e in self.env_ids))
        object.__setattr__(self, "scores", tuple(frozen))
        mu = np.array(self.mu, dtype=float, copy=True)
        v = np.array(self.v, dtype=float, copy=True)
        if not (np.isfinite(mu).all() and np.isfinite(v).all() and v.min() >= 0):
            raise ValueError("moment summaries must be finite, spreads nonnegative")
        mu.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v", v)

    @property
    def m(self) -> int:
        return len(self.env_ids)

    def pooled_scores(self) -> np.ndarray:
        return np.concatenate(self.scores)

    def env_quantiles(self, alpha: float) -> np.ndarray:
        """Per-environment conformal quantiles at miscoverage alpha."""
        return np.array([conformal_quantile(sc, alpha) for sc in self.scores])

    # -- similarity weighting -------------------------------------------------

    def environment_weights(self, x: np.ndarray) -> np.ndarray:
        """Similarity weights over environments, normalized to sum to one."""
        return self._weights_matrix(np.asarray(x, dtype=float)[None, :])[0]

    def _weights_matrix(self, x: np.ndarray) -> np.ndarray:
        """(n, m) weight matrix for a batch of points.

        Point i's weight on environment e is proportional to the similarity
        exp(-|v_i - v_e|) * exp(-|mu_i - mu_e|) of their moments.
        Normalization happens in log space (largest similarity is scaled to
        one before exponentiating), which is algebraically identical to
        dividing by the similarity sum but cannot underflow to an all-zero
        row for far-away points.
        """
        mu_x, v_x = moment_stats(self.model.represent(x))
        log_tau = -np.abs(v_x[:, None] - self.v[None, :]) - np.abs(
            mu_x[:, None] - self.mu[None, :]
        )
        log_tau -= log_tau.max(axis=1, keepdims=True)
        tau = np.exp(log_tau)
        return tau / tau.sum(axis=1, keepdims=True)

    # -- intervals ------------------------------------------------------------

    @staticmethod
    def _combine(weights: np.ndarray, env_q: np.ndarray) -> np.ndarray:
        finite = np.isfinite(env_q)
        if finite.all():
            return weights @ env_q
        out = np.full(weights.shape[0], np.inf)
        blocked = (weights[:, ~finite] > 0).any(axis=1)
        if not blocked.all():
            out[~blocked] = weights[np.ix_(~blocked, finite)] @ env_q[finite]
        return out

    def sc_intervals(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """Split-conformal intervals: the pooled calibration quantile around each prediction."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        half = conformal_quantile(self.pooled_scores(), alpha)
        centers = self.model.predict(x)
        return PredictionInterval(centers, np.full(centers.shape, half))

    def sc_interval(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """sc_intervals for the single point x of shape (p,)."""
        return self.sc_intervals(np.asarray(x, dtype=float)[None, :], alpha)[0]

    def acir_intervals(
        self, x: np.ndarray, alpha: float, delta_inflation: np.ndarray | None = None
    ) -> PredictionInterval:
        """Adaptive intervals with similarity-weighted per-environment quantiles.

        delta_inflation, when given, is a finite nonnegative per-environment
        vector whose weighted average is added to each half-width.
        """
        return self._acir(np.atleast_2d(np.asarray(x, dtype=float)), alpha, delta_inflation)

    def acir_interval(
        self, x: np.ndarray, alpha: float, delta_inflation: np.ndarray | None = None
    ) -> PredictionInterval:
        """acir_intervals for the single point x of shape (p,)."""
        return self._acir(np.asarray(x, dtype=float)[None, :], alpha, delta_inflation)[0]

    def _acir(
        self, x: np.ndarray, alpha: float, delta_inflation: np.ndarray | None
    ) -> PredictionInterval:
        # The one AC body. acir_interval calls it directly rather than through
        # acir_intervals, so a call profile keeps single-point queries apart.
        w = self._weights_matrix(x)
        halves = self._combine(w, self.env_quantiles(alpha))
        if delta_inflation is not None:
            delta = np.asarray(delta_inflation, dtype=float).ravel()
            if delta.size != self.m or not (np.isfinite(delta).all() and delta.min() >= 0):
                raise ValueError(
                    f"delta_inflation must have length {self.m} and finite nonnegative "
                    f"entries, got {delta}"
                )
            halves = halves + w @ delta
        return PredictionInterval(self.model.predict(x), halves)


def calibrate(model: LinearIRMModel, cal: list[EnvDataset]) -> CalibrationState:
    """Score calibration data and summarize representation moments per environment.

    Conformity scores are absolute residuals |y - f(x)|, sorted ascending
    within each environment. The moment summaries are the environment means
    of the per-sample representation mean and spread from moment_stats.
    """
    check_unique_env_ids(cal)
    env_ids, scores, mus, vs = [], [], [], []
    for env in cal:
        resid = np.abs(env.targets - model.predict(env.features))
        mu_x, v_x = moment_stats(model.represent(env.features))
        env_ids.append(env.env_id)
        scores.append(np.sort(resid))
        mus.append(float(mu_x.mean()))
        vs.append(float(v_x.mean()))
    return CalibrationState(
        model=model,
        env_ids=tuple(env_ids),
        scores=tuple(scores),
        mu=np.array(mus),
        v=np.array(vs),
    )


def save_state(state: CalibrationState, path: str) -> None:
    """Write per-environment sections: ``env m n_cal mu v`` then sorted scores."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, env_id in enumerate(state.env_ids):
            sc = state.scores[i]
            fh.write(
                f"{env_id} {state.m} {sc.size} "
                f"{float(state.mu[i])!r} {float(state.v[i])!r}\n"
            )
            for val in sc:
                fh.write(f"{float(val)!r}\n")


def load_state(path: str, model: LinearIRMModel) -> CalibrationState:
    """Read a state written by save_state; every value is re-validated."""
    env_ids, scores, mus, vs = [], [], [], []
    declared_m = None
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    pos = 0
    while pos < len(lines):
        head = lines[pos].split()
        if len(head) != 5:
            raise ValueError(
                f"{path}: expected section header 'env m n_cal mu v', got {lines[pos]!r}"
            )
        env_id, m, n_cal = int(head[0]), int(head[1]), int(head[2])
        if declared_m is None:
            declared_m = m
        elif m != declared_m:
            raise ValueError(f"{path}: inconsistent environment count {m} vs {declared_m}")
        if pos + 1 + n_cal > len(lines):
            raise ValueError(f"{path}: env {env_id}: fewer than {n_cal} score lines")
        vals = np.array([float(v) for v in lines[pos + 1 : pos + 1 + n_cal]])
        env_ids.append(env_id)
        scores.append(vals)
        mus.append(float(head[3]))
        vs.append(float(head[4]))
        pos += 1 + n_cal
    if declared_m is not None and declared_m != len(env_ids):
        raise ValueError(
            f"{path}: header declares {declared_m} environments, found {len(env_ids)}"
        )
    try:
        return CalibrationState(
            model=model,
            env_ids=tuple(env_ids),
            scores=tuple(scores),
            mu=np.array(mus),
            v=np.array(vs),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
