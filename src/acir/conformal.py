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
two moment summaries per environment plus the model used to score. It is
immutable, and interval construction only reads it, so a single state can
serve concurrent prediction requests. Its only writes are caches: the
sorted pooled scores on the first SC query, the stacked moments on the
first AC query, and the quantiles of the last alpha asked for, a one-slot
memo replaced as one tuple. Threads racing to fill a cache compute the
same read-only value; threads asking for different alphas each get their
own alpha's quantiles, whichever memo is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    mean, std = _stacked_moments(np.atleast_1d(np.asarray(representation, dtype=float)))
    return mean, std


def _stacked_moments(rep: np.ndarray) -> np.ndarray:
    """moment_stats as one (2, ...) array [mean; std]: the one moments body.

    The AC weights take the moments of a batch as this stack, so one
    broadcast subtraction measures both distances.
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


def _all_finite(a: np.ndarray) -> bool:
    # count_nonzero, not ndarray.all, whose Python-level wrapper costs more
    # than the check on a few values
    return np.count_nonzero(np.isfinite(a)) == a.size


@dataclass(frozen=True)
class CalibrationState:
    """Sorted conformity scores and representation moments per environment.

    Cost model: construction (and so calibrate and load_state) validates
    the per-environment scores once and keeps the read-only arrays that
    calibrate and load_state hand over without copying them. The pooled
    scores are sorted once, on the first SC query, into ``pooled_sorted``.
    After that a conformal quantile is one index read into sorted scores:
    sc_intervals reads one from ``pooled_sorted``, and env_quantiles one
    per environment, once per alpha: it keeps the last alpha's read-only
    quantiles and whether all are finite. Nothing is sorted or
    re-validated per query but alpha and the shape of the points, checked
    once. A single acir_interval is the O(p*d) computation of the point's
    d-dimensional representation, its moments and its m weights, run as
    the batch code on one row: both moment distances in one broadcast
    subtraction against the cached (2, m, 1) stack of mu and v. README
    gives its timings.

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
        _check_env_ids(self.env_ids)
        if len(self.scores) != len(self.env_ids):
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
        mu, v = _readonly(self.mu), _readonly(self.v)
        if mu.shape != (self.m,) or v.shape != (self.m,):
            raise ValueError(
                f"mu and v must have shape ({self.m},), one value per environment, "
                f"got {mu.shape} and {v.shape}"
            )
        if not (np.isfinite(mu).all() and np.isfinite(v).all() and v.min() >= 0):
            raise ValueError("moment summaries must be finite, spreads nonnegative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "v", v)
        # nan equals no alpha, so the first query fills the memo
        object.__setattr__(self, "_quantile_memo", (np.nan, None, False))

    @property
    def m(self) -> int:
        return len(self.env_ids)

    @cached_property
    def pooled_sorted(self) -> np.ndarray:
        """The pooled scores sorted ascending, read-only; sorted on first use.

        Sorting here, not at construction, keeps states that never serve an
        SC query (AC-only prediction) free of this copy.
        """
        return _frozen(np.sort(np.concatenate(self.scores)))

    def pooled_scores(self) -> np.ndarray:
        return np.concatenate(self.scores)

    def env_quantiles(self, alpha: float) -> np.ndarray:
        """Per-environment conformal quantiles at miscoverage alpha, read-only.

        The last alpha's quantiles are kept, with whether all of them are
        finite, so repeated queries at one alpha read them once.
        """
        memo = self._quantile_memo
        if memo[0] != alpha:  # nan never matches, so it reaches check_alpha
            alpha = check_alpha(alpha)
            q = _frozen(np.array([sorted_conformal_quantile(sc, alpha) for sc in self.scores]))
            memo = (alpha, q, _all_finite(q))
            object.__setattr__(self, "_quantile_memo", memo)
        return memo[1]

    # -- similarity weighting -------------------------------------------------

    @cached_property
    def _moment_stack(self) -> np.ndarray:
        """[mu; v] as a read-only (2, m, 1) stack, laid out like _stacked_moments."""
        return _frozen(np.stack([self.mu, self.v])[:, :, None])

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
        dist = self._moment_stack - _stacked_moments(x @ self.model.phi.T)[:, None, :]
        np.abs(dist, out=dist)
        tau = np.add(dist[0], dist[1], out=dist[0])
        np.subtract(np.minimum.reduce(tau), tau, out=tau)
        w = np.empty(tau.shape[::-1])
        np.exp(tau, out=w.T)
        w /= np.add.reduce(w, axis=1, keepdims=True)
        return w

    # -- intervals ------------------------------------------------------------

    @staticmethod
    def _combine(weights: np.ndarray, env_q: np.ndarray, all_finite: bool) -> np.ndarray:
        if all_finite:
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
        half = sorted_conformal_quantile(self.pooled_sorted, alpha)
        centers = x @ self.model.weights
        return PredictionInterval(_frozen(centers), _frozen(np.full(centers.shape, half)))

    def sc_interval(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """sc_intervals for the single point x of shape (p,)."""
        return self.sc_intervals(self._points(x, one=True), alpha)[0]

    def acir_intervals(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """Adaptive intervals with similarity-weighted per-environment quantiles."""
        return self._acir(self._points(x, one=False), alpha)

    def acir_interval(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        """acir_intervals for the single point x of shape (p,)."""
        return self._acir(self._points(x, one=True), alpha)[0]

    def _acir(self, x: np.ndarray, alpha: float) -> PredictionInterval:
        # The one AC body, on points _points has checked. acir_interval calls
        # it directly rather than through acir_intervals, so a call profile
        # keeps single-point queries apart.
        env_q = self.env_quantiles(alpha)
        _, memo_q, all_finite = self._quantile_memo
        if memo_q is not env_q:  # another thread's alpha replaced the memo
            all_finite = _all_finite(env_q)
        halves = self._combine(self._weights_matrix(x), env_q, all_finite)
        # Both arrays are new and owned here: handed over, not copied.
        return PredictionInterval(_frozen(x @ self.model.weights), _frozen(halves))


def calibrate(model: LinearIRMModel, cal: list[EnvDataset]) -> CalibrationState:
    """Score calibration data and summarize representation moments per environment.

    Conformity scores are absolute residuals |y - f(x)|, sorted ascending
    within each environment. The moment summaries are the environment means
    of the per-sample representation mean and spread from moment_stats.
    """
    check_envs(cal)
    env_ids, scores, mus, vs = [], [], [], []
    for env in cal:
        resid = np.abs(env.targets - model.predict(env.features))
        mu_x, v_x = moment_stats(model.represent(env.features))
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

    float() reads nan and inf, so a non-finite result sends the block to the
    same line-by-line rescan as a malformed one. The array is returned
    read-only, so the state keeps it without a copy.
    """
    try:
        scores = np.fromiter(map(float, [text for _, text in block]), float, len(block))
        if not np.isfinite(scores).all():
            raise ValueError("non-finite score")
    except ValueError:
        for lineno, text in block:
            parse_tokens(path, lineno, (text,))
        raise
    return _frozen(scores)


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
            raise ValueError(
                f"{path}: line {lineno}: inconsistent environment count {m} vs {declared_m}"
            )
        if n_cal < 1:
            raise ValueError(f"{path}: line {lineno}: env {env_id}: n_cal must be >= 1")
        if pos + 1 + n_cal > len(lines):
            raise ValueError(
                f"{path}: line {lineno}: env {env_id}: fewer than {n_cal} score lines"
            )
        block = lines[pos + 1 : pos + 1 + n_cal]
        env_ids.append(env_id)
        scores.append(_parse_scores(path, block))
        mus.append(mu)
        vs.append(v)
        pos += 1 + n_cal
    if declared_m is not None and declared_m != len(env_ids):
        raise ValueError(
            f"{path}: line {lines[0][0]}: header declares {declared_m} environments, "
            f"found {len(env_ids)}"
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
