"""Per-environment conformity calibration and interval construction.

Two interval constructions share one calibration pass:

* ``sc_intervals`` pools every environment's calibration scores and uses a
  single finite-sample quantile as the half-width for all test points.
* ``acir_intervals`` keeps per-environment quantiles and combines them with
  weights that measure how similar each test point's representation moments
  are to each environment's average moments, so the half-width adapts to
  the environment the point appears to come from.

Both return one array-valued ``PredictionInterval`` for a batch of points;
``sc_interval`` and ``acir_interval`` are their single-point views.

The calibration state is a compact, serializable artifact: sorted scores and
two moment summaries per environment plus the model used to score, whose
predict and represent give every centre and representation. Every value
derived from them is made at construction, and interval construction only
reads the state, so a single state can serve concurrent prediction
requests. Its one write after construction is the pooled and
per-environment quantiles of the last alpha asked for, by either kind of
interval: a one-slot memo (alpha, pooled_q, env_q) replaced as one tuple,
so threads asking for different alphas each get their own alpha's
quantiles, whichever memo is left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EnvDataset,
    PredictionInterval,
    _check_env_ids,
    _frozen,
    _readonly,
    check_alpha,
    check_envs,
    numbered_lines,
    sorted_conformal_quantile,
    write_float_rows,
)
from .datagen import _read_header, _read_rows
from .models import LinearIRMModel

__all__ = [
    "CalibrationState",
    "calibrate",
    "save_state",
    "load_state",
]


def _stacked_moments(rep: np.ndarray) -> np.ndarray:
    """Mean and population standard deviation across representation
    coordinates, as one (2, ...) array [mean; std]: the one moments body.

    Works along the last axis: a (k,) representation gives a (2,) stack, an
    (n, k) batch a (2, n) one. Needs k >= 2; a one-dimensional
    representation has no spread to measure. calibrate unpacks the stack;
    the AC weights keep it, so one broadcast subtraction measures both
    distances.
    """
    d = rep.shape[-1]
    if d < 2:
        raise ValueError(f"representation must have >= 2 coordinates, got {d}")
    out = np.empty((2, *rep.shape[:-1]))
    # np.mean and np.std, bit for bit: numpy's _mean/_var reduce, divide,
    # subtract, square and reduce in this order; one sum serves both.
    mean = np.divide(np.add.reduce(rep, axis=-1), d, out=out[0, ...])
    dev = rep - mean[..., None]
    np.square(dev, out=dev)
    np.sqrt(np.add.reduce(dev, axis=-1) / d, out=out[1, ...])
    return out


def _env_scores(env_id: int, scores: np.ndarray) -> np.ndarray:
    """One environment's scores, read-only, unless they are empty, negative,
    non-finite or unsorted: the one score rule of a state and of its file."""
    sc = _readonly(scores)
    if sc.size < 1:
        raise ValueError(f"env {env_id}: empty score vector")
    if not np.isfinite(sc).all() or sc.min() < 0:
        raise ValueError(f"env {env_id}: scores must be finite and nonnegative")
    if np.any(np.diff(sc) < 0):
        raise ValueError(f"env {env_id}: scores must be sorted ascending")
    return sc


def _check_moments(mu, v) -> None:
    """Raise unless the moment summaries (arrays or one environment's floats)
    are finite and the spreads nonnegative."""
    if not (np.isfinite(mu).all() and np.isfinite(v).all() and np.min(v) >= 0):
        raise ValueError("moment summaries must be finite, spreads nonnegative")


@dataclass(frozen=True)
class CalibrationState:
    """Sorted conformity scores and representation moments per environment.

    Cost model: construction (and so calibrate and load_state) validates
    the per-environment scores once and keeps the read-only arrays that
    calibrate and load_state hand over without copying them. It sorts the
    pooled scores, in place, into the read-only ``pooled_sorted`` and stacks
    mu and v. After that a conformal quantile is one index read into sorted
    scores, made in one method once per alpha: the first query at an alpha,
    SC or AC, reads the pooled quantile from ``pooled_sorted`` and one per
    environment, and keeps them as the memo (alpha, pooled_q, env_q), and
    nothing else. Nothing is sorted or re-validated per query but alpha and
    the shape of the points. A single acir_interval is the O(p*d)
    computation of the point's d-dimensional representation (the model's
    represent), its moments and its m weights, run as the batch code on one
    row: both moment distances in one broadcast subtraction against the
    (2, m, 1) stack of mu and v. Both kinds take their centres from the
    model's predict. README gives the timings.

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
    pooled_sorted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "env_ids", _check_env_ids(self.env_ids))
        if len(self.scores) != len(self.env_ids):
            raise ValueError("per-environment fields disagree on length")
        frozen = tuple(_env_scores(env_id, sc) for env_id, sc in zip(self.env_ids, self.scores))
        object.__setattr__(self, "scores", frozen)
        mu, v = _readonly(self.mu), _readonly(self.v)
        if mu.shape != (self.m,) or v.shape != (self.m,):
            raise ValueError(
                f"mu and v must have shape ({self.m},), one value per environment, "
                f"got {mu.shape} and {v.shape}"
            )
        _check_moments(mu, v)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v", v)
        pooled = np.concatenate(frozen)
        pooled.sort()  # in place: a sorted copy would hold the scores twice
        object.__setattr__(self, "pooled_sorted", _frozen(pooled))
        # [mu; v] as a (2, m, 1) stack, laid out like _stacked_moments
        object.__setattr__(self, "_moment_stack", _frozen(np.stack([mu, v])[:, :, None]))
        # nan equals no alpha, so the first query fills the memo
        object.__setattr__(self, "_quantile_memo", (np.nan, None, None))

    @property
    def m(self) -> int:
        return len(self.env_ids)

    def pooled_scores(self) -> np.ndarray:
        return np.concatenate(self.scores)

    def _quantiles(self, alpha: float) -> tuple[float, float, np.ndarray]:
        """(alpha, pooled_q, env_q): the one quantile read, kept for the last alpha asked for."""
        memo = self._quantile_memo
        if memo[0] != alpha:  # nan never matches, so it reaches check_alpha
            alpha = check_alpha(alpha)
            q = [sorted_conformal_quantile(sc, alpha) for sc in (self.pooled_sorted, *self.scores)]
            memo = (alpha, q[0], _frozen(np.array(q[1:])))
            object.__setattr__(self, "_quantile_memo", memo)
        return memo

    def env_quantiles(self, alpha: float) -> np.ndarray:
        """Per-environment conformal quantiles at miscoverage alpha, read-only."""
        return self._quantiles(alpha)[2]

    # -- similarity weighting -------------------------------------------------

    def _points(self, x: np.ndarray, one: bool) -> np.ndarray:
        """x as an (n, p) float array: the one check of a query's points.

        A single-point call (one=True) takes a point of shape (p,); a batch
        takes (n, p) or one point (p,). Anything else is a ValueError that
        names the expected shape.
        """
        x = np.asarray(x, dtype=float)
        p = self.model.p
        if x.shape == (p,):
            return x[None, :]
        if not one and x.ndim == 2 and x.shape[1] == p:
            return x
        want = f"({p},)" if one else f"(n, {p}) or ({p},)"
        raise ValueError(f"expected points of shape {want}, got shape {x.shape}")

    def environment_weights(self, x: np.ndarray) -> np.ndarray:
        """Similarity weights over environments for the point x of shape (p,); they sum to one."""
        return self._weights_matrix(self._points(x, one=True))[0]

    def _weights_matrix(self, x: np.ndarray) -> np.ndarray:
        """(n, m) weight matrix for an (n, p) batch of points.

        Point i's weight on environment e is proportional to the similarity
        exp(-|v_i - v_e|) * exp(-|mu_i - mu_e|) of their moments.
        Normalization happens in log space (largest similarity is scaled to
        one before exponentiating), which is algebraically identical to
        dividing by the similarity sum but cannot underflow to an all-zero
        row for far-away points.
        """
        # The log-similarity -|v_i - v_e| - |mu_i - mu_e| is exactly -dist,
        # with dist the sum of the two distances, and -dist - max(-dist) is
        # exactly min(dist) - dist: IEEE rounding is symmetric under negation,
        # which also makes |mu_e - mu_i| equal |mu_i - mu_e|, and addition
        # commutes. The elementwise steps run on (m, n) planes, where numpy's
        # inner loop spans the n points rather than the m environments; exp
        # writes through the transpose of the C-ordered (n, m) result, which
        # keeps the order in which the row sums here and the matrix product
        # in _combine add.
        dist = self._moment_stack - _stacked_moments(self.model.represent(x))[:, None, :]
        np.abs(dist, out=dist)
        tau = np.add(dist[0], dist[1], out=dist[0])
        np.subtract(np.minimum.reduce(tau), tau, out=tau)
        w = np.empty(tau.shape[::-1])
        np.exp(tau, out=w.T)
        w /= np.add.reduce(w, axis=1, keepdims=True)
        return w

    # -- intervals ------------------------------------------------------------

    @staticmethod
    def _combine(weights: np.ndarray, env_q: np.ndarray) -> np.ndarray:
        # exact, as a quantile is a finite score or +inf, and cheaper than np.isinf
        if math.inf not in env_q.tolist():
            return weights @ env_q
        finite = np.isfinite(env_q)
        out = np.full(weights.shape[0], np.inf)
        blocked = (weights[:, ~finite] > 0).any(axis=1)
        if not blocked.all():
            out[~blocked] = weights[np.ix_(~blocked, finite)] @ env_q[finite]
        return out

    def sc_intervals(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """Split-conformal intervals: the pooled calibration quantile around each prediction."""
        x = self._points(x, one=False)
        half = self._quantiles(alpha)[1]
        centers = self.model.predict(x)
        return PredictionInterval(_frozen(centers), _frozen(np.full(centers.shape, half)))

    def sc_interval(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """sc_intervals for the single point x of shape (p,)."""
        return self.sc_intervals(self._points(x, one=True), alpha)[0]

    def acir_intervals(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """Adaptive intervals with similarity-weighted per-environment quantiles."""
        x = self._points(x, one=False)
        halves = self._combine(self._weights_matrix(x), self.env_quantiles(alpha))
        # Both arrays are new and owned here: handed over, not copied.
        return PredictionInterval(_frozen(self.model.predict(x)), _frozen(halves))

    def acir_interval(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """acir_intervals for the single point x of shape (p,)."""
        return self.acir_intervals(self._points(x, one=True), alpha)[0]


def calibrate(model: LinearIRMModel, cal: list[EnvDataset]) -> CalibrationState:
    """Score calibration data and summarize representation moments per environment.

    Conformity scores are absolute residuals |y - f(x)|, sorted ascending
    within each environment. The moment summaries are the environment means
    of the per-sample representation mean and spread, from the moments body
    that the AC weights use.
    """
    check_envs(cal)
    env_ids, scores, mus, vs = [], [], [], []
    for env in cal:
        resid = np.abs(env.targets - model.predict(env.features))
        mu_x, v_x = _stacked_moments(model.represent(env.features))
        env_ids.append(env.env_id)
        scores.append(_frozen(np.sort(resid)))  # handed over to the state, not copied
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i, env_id in enumerate(state.env_ids):
            sc = state.scores[i]
            fh.write(
                f"{env_id} {state.m} {sc.size} "
                f"{float(state.mu[i])!r} {float(state.v[i])!r}\n"
            )
            write_float_rows(fh, [sc])


def load_state(path: str, model: LinearIRMModel) -> CalibrationState:
    """Read a state written by save_state; every value is re-validated.

    Each section is checked as it is read: its header and score lines keep the
    row rule, and a break of the state's own rules is named by the header line.
    The environment count is checked after the last section, against every header.
    """
    env_ids, scores, mus, vs, declared = [], [], [], [], []
    lines = numbered_lines(path)
    if not lines:
        raise ValueError(f"{path}: need at least one environment")
    pos = 0
    while pos < len(lines):
        lineno, env_id, m, n_cal, (mu, v) = _read_header(
            path, lines[pos], 5, ("env", "m", "n_cal"),
            "expected section header 'env m n_cal mu v'")
        declared.append((lineno, m))
        if n_cal < 1:
            raise ValueError(f"{path}: line {lineno}: env {env_id}: n_cal must be >= 1")
        if pos + 1 + n_cal > len(lines):
            raise ValueError(f"{path}: line {lineno}: env {env_id}: fewer than {n_cal} score lines")
        sc = _read_rows(path, lines[pos + 1 : pos + 1 + n_cal], 1)["vals"].ravel()
        try:
            _check_env_ids((*env_ids, env_id))
            _check_moments(mu, v)
            scores.append(_env_scores(env_id, sc))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        env_ids.append(env_id)
        mus.append(mu)
        vs.append(v)
        pos += 1 + n_cal
    for lineno, m in declared:
        if m != len(env_ids):
            raise ValueError(
                f"{path}: line {lineno}: header declares {m} environments, found {len(env_ids)}"
            )
    return CalibrationState(
        model=model, env_ids=tuple(env_ids), scores=tuple(scores), mu=np.array(mus), v=np.array(vs)
    )
