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
immutable, and interval construction only reads it, so a single state can
serve concurrent prediction requests. The one write is the cache of the
sorted pooled scores on the first SC query; threads racing to fill it
compute the same read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    EnvDataset,
    PredictionInterval,
    _readonly,
    check_unique_env_ids,
    numbered_lines,
    parse_tokens,
    sorted_conformal_quantile,
    write_float_rows,
)
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
    d = rep.shape[-1]
    if d < 2:
        raise ValueError(f"representation must have >= 2 coordinates, got {d}")
    # np.mean and np.std, bit for bit: numpy's _mean/_var reduce, divide,
    # subtract, square and reduce in this order; one sum serves both.
    mean = np.add.reduce(rep, axis=-1) / d
    dev = rep - mean[..., None]
    np.square(dev, out=dev)
    return mean, np.sqrt(np.add.reduce(dev, axis=-1) / d)


@dataclass(frozen=True)
class CalibrationState:
    """Sorted conformity scores and representation moments per environment.

    Cost model: construction (and so calibrate and load_state) validates
    the per-environment scores once and keeps the read-only arrays that
    calibrate and load_state hand over without copying them. The pooled
    scores are sorted once, on the first SC query, into ``pooled_sorted``.
    After that a conformal quantile is one index read into sorted scores:
    env_quantiles reads one per environment, sc_intervals one from
    ``pooled_sorted``, and nothing is sorted or re-validated per query but
    alpha. A single acir_interval is those m reads plus the O(p*d)
    computation of the point's d-dimensional representation and its m
    weights, run as the batch code on one row. README gives its timings.

    The moments have closed forms that the code does not use, since they
    agree only up to rounding: mu_x is the prediction f(x) divided by d,
    and v_x is the spread of phi0 @ x, with phi0 the fit's seeded initial
    representation, because fitting adds one shift to every row of phi.
    """

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
            sc = _readonly(sc)
            if sc.size < 1:
                raise ValueError(f"env {env_id}: empty score vector")
            if not np.isfinite(sc).all() or sc.min() < 0:
                raise ValueError(f"env {env_id}: scores must be finite and nonnegative")
            if np.any(np.diff(sc) < 0):
                raise ValueError(f"env {env_id}: scores must be sorted ascending")
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

    @cached_property
    def pooled_sorted(self) -> np.ndarray:
        """The pooled scores sorted ascending, read-only; sorted on first use.

        Sorting here, not at construction, keeps states that never serve an
        SC query (AC-only prediction) free of this copy.
        """
        pooled = np.sort(np.concatenate(self.scores))
        pooled.setflags(write=False)
        return pooled

    def pooled_scores(self) -> np.ndarray:
        return np.concatenate(self.scores)

    def env_quantiles(self, alpha: float) -> np.ndarray:
        """Per-environment conformal quantiles at miscoverage alpha."""
        return np.array([sorted_conformal_quantile(sc, alpha) for sc in self.scores])

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
        # The log-similarity -|v_i - v_e| - |mu_i - mu_e| is exactly -dist,
        # with dist the sum of the two distances, and -dist - max(-dist) is
        # exactly min(dist) - dist: IEEE rounding is symmetric under negation,
        # which also makes |v_e - v_i| equal |v_i - v_e|. The elementwise
        # steps run on the (m, n) transpose, where numpy's inner loop spans
        # the n points rather than the m environments. The copy back to a
        # C-ordered (n, m) matrix keeps the order in which the row sums here
        # and the matrix product in _combine add.
        dist = np.abs(np.subtract.outer(self.v, v_x))
        dist += np.abs(np.subtract.outer(self.mu, mu_x))
        tau = np.minimum.reduce(dist) - dist
        np.exp(tau, out=tau)
        tau = tau.T.copy()
        tau /= np.add.reduce(tau, axis=1, keepdims=True)
        return tau

    # -- intervals ------------------------------------------------------------

    @staticmethod
    def _combine(weights: np.ndarray, env_q: np.ndarray) -> np.ndarray:
        finite = np.isfinite(env_q)
        if np.count_nonzero(finite) == finite.size:
            return weights @ env_q
        out = np.full(weights.shape[0], np.inf)
        blocked = (weights[:, ~finite] > 0).any(axis=1)
        if not blocked.all():
            out[~blocked] = weights[np.ix_(~blocked, finite)] @ env_q[finite]
        return out

    def sc_intervals(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """Split-conformal intervals: the pooled calibration quantile around each prediction."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        half = sorted_conformal_quantile(self.pooled_sorted, alpha)
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
        # Both arrays are new and owned here; read-only, the interval keeps
        # them instead of copying them.
        centers = self.model.predict(x)
        centers.setflags(write=False)
        halves.setflags(write=False)
        return PredictionInterval(centers, halves)


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
        sorted_scores = np.sort(resid)
        sorted_scores.setflags(write=False)  # handed over to the state, not copied
        env_ids.append(env.env_id)
        scores.append(sorted_scores)
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
            write_float_rows(fh, [sc])


def _parse_scores(path: str, block: list[tuple[int, str]]) -> np.ndarray:
    """One float per numbered line, converted in one pass; a bad line is named.

    The array is returned read-only, so the state keeps it without a copy.
    """
    try:
        scores = np.fromiter(map(float, [text for _, text in block]), float, len(block))
    except ValueError:
        for lineno, text in block:
            parse_tokens(path, lineno, (text,))
        raise
    scores.setflags(write=False)
    return scores


def load_state(path: str, model: LinearIRMModel) -> CalibrationState:
    """Read a state written by save_state; every value is re-validated."""
    env_ids, scores, mus, vs = [], [], [], []
    declared_m = None
    lines = numbered_lines(path)
    pos = 0
    while pos < len(lines):
        lineno, text = lines[pos]
        head = text.split()
        if len(head) != 5:
            raise ValueError(
                f"{path}: line {lineno}: expected section header 'env m n_cal mu v', "
                f"got {text!r}"
            )
        env_id, m, n_cal = parse_tokens(path, lineno, head[:3], int)
        mu, v = parse_tokens(path, lineno, head[3:])
        if declared_m is None:
            declared_m = m
        elif m != declared_m:
            raise ValueError(f"{path}: inconsistent environment count {m} vs {declared_m}")
        if n_cal < 1:
            raise ValueError(f"{path}: line {lineno}: env {env_id}: n_cal must be >= 1")
        if pos + 1 + n_cal > len(lines):
            raise ValueError(f"{path}: env {env_id}: fewer than {n_cal} score lines")
        block = lines[pos + 1 : pos + 1 + n_cal]
        env_ids.append(env_id)
        scores.append(_parse_scores(path, block))
        mus.append(mu)
        vs.append(v)
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
