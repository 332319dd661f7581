"""Linear invariant-risk-minimization and empirical-risk-minimization fitting.

The model is a linear representation ``phi`` (d x p) under a fixed all-ones
last layer, so the prediction for x is the sum of the representation
coordinates: f(x) = sum_j (phi @ x)_j. The invariance penalty is the squared
gradient of each environment's risk with respect to a scalar multiplier on
the prediction, evaluated at multiplier 1:

    g_e = (2 / n_e) * sum_i (f(x_i) - y_i) * f(x_i),      penalty = sum_e g_e^2

and the fitted objective is  sum_e mean squared error_e + penalty_weight *
penalty. Fitting is full-batch gradient descent with a backtracking line
search, which keeps runs deterministic and the objective non-increasing.

Because predictions depend on phi only through its column sums, the fitter
precomputes per-environment second-moment statistics and iterates in that
reduced space; the public objective below evaluates the same quantities
directly from the data.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .core import (
    EnvDataset,
    _check_feature_count,
    _frozen,
    _integer,
    _readonly,
    _refuse_given,
    check_envs,
    check_seed,
    numbered_lines,
)
from .datagen import _read_header, _read_rows

__all__ = [
    "LinearIRMModel",
    "FitConfig",
    "FitError",
    "irm_objective",
    "fit_irmv1",
    "fit_erm",
    "save_model",
    "load_model",
]


class FitError(RuntimeError):
    """Gradient descent encountered a non-finite objective."""


def _check_penalty_weight(weight: float) -> float:
    if not 0.0 <= weight < math.inf:
        raise ValueError(f"penalty_weight must be >= 0 and finite, got {weight}")
    return float(weight)


@dataclass(frozen=True)
class LinearIRMModel:
    """Linear representation with a fixed all-ones last layer.

    Parameters
    ----------
    phi : ndarray of shape (d, p)
        Representation matrix; the representation of x is phi @ x.
    penalty_weight : float
        The invariance penalty weight the model was fitted with.
    """

    phi: np.ndarray
    penalty_weight: float = 0.0
    # the effective prediction weights: phi's column sums, read-only
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        phi = _readonly(self.phi)
        if phi.ndim != 2:
            raise ValueError(f"phi must be a matrix, got ndim={phi.ndim}")
        if phi.shape[0] < 2:
            raise ValueError(f"representation dimension must be >= 2, got {phi.shape[0]}")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "penalty_weight", _check_penalty_weight(self.penalty_weight))
        object.__setattr__(self, "weights", _frozen(phi.sum(axis=0)))

    @property
    def d(self) -> int:
        return self.phi.shape[0]

    @property
    def p(self) -> int:
        return self.phi.shape[1]

    def represent(self, x: np.ndarray) -> np.ndarray:
        """Representation x @ phi.T of one vector (p,) or of each row of a matrix (n, p)."""
        x = np.asarray(x, dtype=float)
        _check_feature_count(self.p, x.shape[-1])
        return x @ self.phi.T

    def predict(self, x: np.ndarray) -> float | np.ndarray:
        """Sum of representation coordinates; scalar for a vector input."""
        x = np.asarray(x, dtype=float)
        _check_feature_count(self.p, x.shape[-1])
        out = x @ self.weights
        return float(out) if x.ndim == 1 else out


# The fields only fit_irmv1 uses, with the value each takes when left at None.
_IRM_DEFAULTS: dict[str, float | int] = {"penalty_weight": 1e4, "warmup_iters": 100}


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings for fit_erm / fit_irmv1.

    learning_rate is the initial step size (the line search adapts it),
    tolerance stops when the gradient norm with respect to phi falls below
    it, and penalty_weight is applied after warmup_iters penalty-free
    iterations. init_scale is the standard deviation of the seeded Gaussian
    initialization of phi; repr_dim defaults to the feature count.

    penalty_weight and warmup_iters are IRM-only: at None fit_irmv1 takes them
    from _IRM_DEFAULTS, fit_erm ignores them, and refuse_penalty refuses them.
    """

    learning_rate: float = 1e-3
    max_iters: int = 5000
    tolerance: float = 1e-6
    penalty_weight: float | None = None
    seed: int = 0
    warmup_iters: int | None = None
    init_scale: float = 0.1
    repr_dim: int | None = None

    def __post_init__(self) -> None:
        optional = [n for n in ("warmup_iters", "repr_dim") if getattr(self, n) is not None]
        for name in ("max_iters", *optional):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_seed(self.seed, "fit_seed"))
        # the comparisons are written so that NaN fails them
        if not (0.0 < self.learning_rate < math.inf and 0.0 < self.tolerance < math.inf):
            raise ValueError("learning_rate and tolerance must be positive and finite")
        if self.max_iters < 1 or (self.warmup_iters or 0) < 0:
            raise ValueError("iteration counts out of range")
        if self.penalty_weight is not None:
            object.__setattr__(self, "penalty_weight", _check_penalty_weight(self.penalty_weight))
        if not 0.0 < self.init_scale < math.inf:
            raise ValueError("init_scale must be positive and finite")
        if self.repr_dim is not None and self.repr_dim < 2:
            raise ValueError("repr_dim must be >= 2")
        for name in ("learning_rate", "tolerance", "init_scale"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def refuse_penalty(self, why: str) -> None:
        """A ValueError naming the first IRM-only field given: it does not apply ``why``."""
        _refuse_given({name: getattr(self, name) for name in _IRM_DEFAULTS}, why)


def irm_objective(
    model: LinearIRMModel, envs: list[EnvDataset]
) -> tuple[float, float, np.ndarray]:
    """Evaluate risk, invariance penalty, and the analytic gradient.

    Returns
    -------
    risk : float
        Sum over environments of the per-environment mean squared error.
    penalty : float
        Sum over environments of g_e^2 (see module docstring).
    gradient : ndarray, same shape as model.phi
        Exact gradient of risk + penalty_weight * penalty with respect
        to phi. Identical rows: predictions depend on phi only through
        its column sums.
    """
    _check_feature_count(model.p, check_envs(envs))
    lam = model.penalty_weight
    risk = 0.0
    penalty = 0.0
    grad_s = np.zeros(model.p)
    for env in envs:
        x, y = env.features, env.targets
        z = model.predict(x)
        r = z - y
        n = env.n
        risk += float(r @ r) / n
        g = 2.0 * float(r @ z) / n
        penalty += g * g
        grad_s += (2.0 / n) * (x.T @ r)
        if lam > 0:
            grad_s += lam * 2.0 * g * (2.0 / n) * (x.T @ (2.0 * z - y))
    gradient = np.tile(grad_s, (model.d, 1))
    return risk, penalty, gradient


# ---------------------------------------------------------------------------
# fitting


class _EnvStats(NamedTuple):
    """Second moments of every training environment, stacked on a leading axis.

    a[e] is x'x / n_e, b[e] is x'y / n_e and c[e] is y'y / n_e for environment
    e, so the risk of environment e at weights s is s'a[e]s - 2 b[e]'s + c[e].
    """

    a: np.ndarray
    b: np.ndarray
    c: tuple[float, ...]


def _env_stats(envs: list[EnvDataset]) -> _EnvStats:
    a, b, c = zip(*(env.second_moments for env in envs))
    return _EnvStats(np.stack(a), np.stack(b), c)


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """Sum over the first axis exactly as ``total = zeros; total += row`` does.

    np.add.reduce adds a contiguous axis pairwise (here, when p = 1), while
    accumulate adds in order. Adding 0.0 last turns the -0.0 that only a run
    of -0.0 rows can leave into the loop's +0.0, and changes nothing else.
    """
    return np.add.accumulate(rows, axis=0)[-1] + 0.0


class _Point(NamedTuple):
    """The objective at some weights s, its gradient, and what _hessian reuses."""

    obj: float
    grad: np.ndarray
    a_s: np.ndarray  # a[e] @ s for every environment
    g: list[float]  # the per-environment penalty gradients g_e


_ONE_TWO = np.array([[1.0], [2.0]])  # stacks a_s and 2 a_s in one product


def _eval_stats(s: np.ndarray, stats: _EnvStats, lam: float) -> _Point:
    """Objective and its gradient with respect to the prediction weights s.

    All environments at once, one numpy call per quantity, and yet equal bit
    for bit to a loop over environments: a @ s is one matrix-vector product
    per environment either way, and each environment's dot product is a
    (1, p) @ (p, 1) product, which rounds like a 1-D dot (the (m, p) @ (p,)
    product does not). The terms are summed in the loop's order.
    """
    a_s = stats.a @ s
    col = s[:, None]
    s_a_s = (a_s[:, None, :] @ col).ravel().tolist()
    b_s = (stats.b[:, None, :] @ col).ravel().tolist()
    obj = 0.0
    gs = []
    factors = []
    for sas, bs, c in zip(s_a_s, b_s, stats.c):
        risk = sas - 2.0 * bs + c
        g = 2.0 * (sas - bs)
        obj += risk + lam * g * g
        gs.append(g)
        factors += (2.0, 4.0 * lam * g)
    m, p = a_s.shape
    if lam > 0:
        # Environment e adds 2 (a_s - b), then 4 lam g (2 a_s - b).
        rows = a_s[:, None, :] * _ONE_TWO
        rows -= stats.b[:, None, :]
        rows = rows.reshape(2 * m, p)
        rows *= np.array(factors)[:, None]
    else:
        rows = a_s - stats.b
        rows *= 2.0
    return _Point(obj, _ordered_sum(rows), a_s, gs)


def _hessian(at: _Point, stats: _EnvStats, lam: float) -> np.ndarray:
    """Hessian of the objective with respect to the weights that ``at`` was evaluated at."""
    a = stats.a
    if not lam > 0:
        return _ordered_sum(2.0 * a)
    m, p = at.a_s.shape
    # Environment e adds 2 a, then lam (8 u u' + 8 g a) with u = 2 a_s - b.
    rows = np.empty((m, 2, p, p))
    np.multiply(a, 2.0, out=rows[:, 0])
    penalty = rows[:, 1]
    u = 2.0 * at.a_s - stats.b
    np.multiply(u[:, :, None], u[:, None, :], out=penalty)
    penalty *= 8.0
    penalty += np.array([8.0 * g for g in at.g])[:, None, None] * a
    penalty *= lam
    return _ordered_sum(rows.reshape(2 * m, p, p))


def _descend(
    s: np.ndarray,
    at: _Point,
    stats: _EnvStats,
    lam: float,
    lr: float,
    max_iters: int,
    tol: float,
    d: int,
) -> np.ndarray:
    """Full-batch descent in weight space with backtracking line search.

    ``at`` is _eval_stats(s, stats, lam), which the caller has already
    computed. Steps along the Newton direction when the Hessian is positive
    definite (the penalty makes the objective quartic with curvature spanning
    many orders of magnitude across environments, where a raw gradient step
    cannot make progress) and falls back to the gradient direction
    otherwise. Backtracking halves the step until the objective does not
    increase, so accepted iterations are non-increasing by construction.

    A phi-space step of -step * gradient moves s by -step * d * grad_s, and
    the phi-space gradient norm is sqrt(d) * |grad_s|; both conversions are
    applied so learning_rate and tolerance keep their phi-space meaning.
    """
    if not math.isfinite(at.obj):
        raise FitError("objective is non-finite at iteration 0")
    sqrt_d = math.sqrt(d)
    last_step = 1.0
    # Oversized trial steps may overflow; they are rejected below, so keep
    # numpy quiet rather than leak warnings for dead ends.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            grad = at.grad
            if sqrt_d * math.sqrt(grad.dot(grad)) < tol:  # np.linalg.norm, bit for bit
                break
            direction = None
            try:
                cand = np.linalg.solve(_hessian(at, stats, lam), grad)
                if np.isfinite(cand).all() and float(cand @ grad) > 0:
                    direction = cand
            except np.linalg.LinAlgError:
                pass
            if direction is None:
                direction = (lr * d) * grad
            # warm-start the line search near the last accepted step so a
            # plateau crawl does not re-halve from 1 on every iteration
            step = min(1.0, 2.0 * last_step)
            accepted = False
            while step > 1e-20:
                s_new = s - step * direction
                trial = _eval_stats(s_new, stats, lam)
                if math.isfinite(trial.obj) and trial.obj <= at.obj:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            last_step = step
            progress = at.obj - trial.obj
            s, at = s_new, trial
            if progress <= 1e-14 * max(1.0, abs(at.obj)):
                break
    return s


def fit_irmv1(train: list[EnvDataset], config: FitConfig) -> LinearIRMModel:
    """Fit the penalized objective by seeded full-batch gradient descent.

    Runs warmup_iters penalty-free iterations first, then descends the full
    objective starting from whichever of the initial and warmed-up weights
    scores better under it, so the returned model never exceeds the initial
    objective value.
    """
    p = check_envs(train)
    lam, warmup_iters = (_IRM_DEFAULTS[k] if getattr(config, k) is None else getattr(config, k)
                         for k in _IRM_DEFAULTS)
    if lam > 0 and len(train) < 2:
        warnings.warn(
            "invariance penalty is vacuous with a single environment",
            stacklevel=2,
        )
    d = config.repr_dim if config.repr_dim is not None else p
    rng = np.random.default_rng(config.seed)
    phi0 = rng.normal(0.0, config.init_scale, size=(d, p))
    stats = _env_stats(train)
    s0 = phi0.sum(axis=0)

    start = s0
    at_start = _eval_stats(s0, stats, lam)
    if lam > 0 and warmup_iters > 0:
        warmed = _descend(
            s0, _eval_stats(s0, stats, 0.0), stats, 0.0, config.learning_rate,
            warmup_iters, config.tolerance, d,
        )
        at_warmed = _eval_stats(warmed, stats, lam)
        if at_warmed.obj <= at_start.obj:
            start, at_start = warmed, at_warmed
    s_fin = _descend(
        start, at_start, stats, lam, config.learning_rate, config.max_iters,
        config.tolerance, d,
    )
    return LinearIRMModel(phi=_frozen(phi0 + (s_fin - s0) / d), penalty_weight=lam)


def fit_erm(train: list[EnvDataset], config: FitConfig) -> LinearIRMModel:
    """Fit pooled per-environment mean squared error (penalty weight 0); the
    IRM-only fields of config are ignored, so one FitConfig serves both fitters."""
    return fit_irmv1(train, replace(config, penalty_weight=0.0))


# ---------------------------------------------------------------------------
# serialization


def save_model(model: LinearIRMModel, path: str) -> None:
    """Write a model as a header line ``d p penalty_weight`` plus phi rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{model.d} {model.p} {model.penalty_weight!r}\n")
        for row in model.phi:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_model(path: str) -> LinearIRMModel:
    """Read a model written by save_model: the data files' row rule, then the shape."""
    lines = numbered_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty model file")
    lineno, d, p, (lam,) = _read_header(path, lines[0], 3, ("d", "p"),
                                        "header must be 'd p penalty_weight'")
    if d < 2 or p < 1:
        raise ValueError(f"{path}: line {lineno}: declared shape ({d}, {p}) needs d >= 2, p >= 1")
    phi = _read_rows(path, lines[1:], p, (), None)["vals"] if lines[1:] else ()
    if len(phi) != d:
        raise ValueError(
            f"{path}: line {lineno}: declared shape ({d}, {p}) does not match "
            f"the {len(phi)} rows given"
        )
    try:
        return LinearIRMModel(phi=phi, penalty_weight=lam)
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from exc
