"""Cross-environment invariance assessment for a fitted linear model.

The idea: a representation is invariant when the expectation of the
prediction, re-weighted to look as if the data had been drawn from a
*baseline* environment, does not depend on which *source* environment the
samples actually came from. We estimate that expectation for every
(baseline, source) pair, the m_hat table, predicting each source once. The
report derives from the table, per baseline, how much the estimates vary
across sources; averaging those variances gives a single scalar, inv:
larger means less invariant.

Density ratios between environments are estimated with independent
diagonal-Gaussian fits per environment, which keeps the estimator closed
form and cheap in moderate dimension. Ratios are evaluated in log space and
clamped to [1e-6, 1e6] so a single far-tail point cannot dominate the mean.
The ratio estimator is pluggable for callers who have something better.

What the statistic measures: with exact density ratios,
m_hat[b, s] = E_s[f(X) p_b(X)/p_s(X)] = E_b[f(X)] for every source s, so
the population inv is 0 for every model. Nonzero values come from ratio
misspecification (a diagonal Gaussian fitted to correlated features), from
the clamp and from sampling noise. With the acceptance recipe (SEM seed 56,
20 reps, penalty 1000) and the clamp above, IRM's inv was below ERM's in
18, 10, 9 and 9 of 20 reps under FOU, POU, FEU and PEU. The paper's
abstract (PAPER.md) does not define the statistic, so whether this is the
paper's estimand cannot be confirmed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import EnvDataset, _check_env_ids, _check_feature_count, _frozen, _readonly, check_envs
from .models import LinearIRMModel

__all__ = [
    "DensityModel",
    "InvarianceReport",
    "fit_density",
    "inv_statistic",
    "write_report",
]

RATIO_CLAMP = (1e-6, 1e6)
_VAR_FLOOR = 1e-8


@dataclass(frozen=True)
class DensityModel:
    """Diagonal-Gaussian density fits, one per environment."""

    env_ids: tuple[int, ...]
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "env_ids", _check_env_ids(self.env_ids))
        means = _readonly(np.atleast_2d(self.means))
        variances = _readonly(np.atleast_2d(self.variances))
        if means.shape != variances.shape or means.shape[0] != len(self.env_ids):
            raise ValueError("means/variances must be (m, p) matching env_ids")
        if not (np.isfinite(means).all() and np.isfinite(variances).all()):
            raise ValueError("means and variances must be finite")
        if variances.min() <= 0:
            raise ValueError("variances must be strictly positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    def index(self, env_id: int) -> int:
        try:
            return self.env_ids.index(env_id)
        except ValueError:
            raise ValueError(f"unknown environment id {env_id}") from None

    def log_density(self, x: np.ndarray, env_id: int) -> np.ndarray:
        """Per-row log density under the named environment's Gaussian fit."""
        i = self.index(env_id)
        x = np.atleast_2d(np.asarray(x, dtype=float))
        _check_feature_count(self.means.shape[1], x.shape[1])
        mean, var = self.means[i], self.variances[i]
        quad = ((x - mean) ** 2 / var).sum(axis=1)
        return -0.5 * (quad + np.log(2.0 * np.pi * var).sum())


def fit_density(envs: list[EnvDataset]) -> DensityModel:
    """Fit an independent diagonal Gaussian to each environment's features.

    Variances are per-coordinate population variances, floored at 1e-8 (with
    a warning) so constant coordinates do not produce a degenerate fit.
    """
    check_envs(envs)
    means, variances = [], []
    for env in envs:
        var = env.features.var(axis=0)
        if var.min() < _VAR_FLOOR:
            warnings.warn(
                f"env {env.env_id}: near-constant feature variance floored at {_VAR_FLOOR}",
                stacklevel=2,
            )
            var = np.maximum(var, _VAR_FLOOR)
        means.append(env.features.mean(axis=0))
        variances.append(var)
    return DensityModel(
        env_ids=tuple(env.env_id for env in envs),
        means=_frozen(np.array(means)),
        variances=_frozen(np.array(variances)),
    )


def likelihood_ratio(
    density: DensityModel,
    x: np.ndarray,
    baseline_env: int,
    source_env: int,
) -> np.ndarray:
    """Estimated density ratio p_baseline(x) / p_source(x), clamped.

    Computed as exp of the log-density difference, then clamped to
    RATIO_CLAMP. When baseline and source coincide the ratio is exactly one
    regardless of the fitted densities.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if baseline_env == source_env:
        density.index(baseline_env)  # still reject unknown ids
        return np.ones(x.shape[0])
    log_ratio = density.log_density(x, baseline_env) - density.log_density(x, source_env)
    lo, hi = RATIO_CLAMP
    # exp may overflow to inf for far-tail points; the clamp absorbs it
    with np.errstate(over="ignore", under="ignore"):
        ratio = np.exp(log_ratio)
    return np.clip(ratio, lo, hi)


@dataclass(frozen=True)
class InvarianceReport:
    """m_hat matrix (baseline x source) and the two summaries derived from it.

    inv is the mean over baselines of the population variance of each
    baseline's row — the variance includes the own-source (diagonal) entry.
    delta[e] is |mean of row e excluding the diagonal - diagonal entry|.
    It is reported, not applied: no interval is widened by it. Both are
    computed here from m_hat, so a report cannot disagree with its matrix.
    """

    env_ids: tuple[int, ...]
    m_hat: np.ndarray
    inv: float = field(init=False)
    delta: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        m = len(self.env_ids)
        if m < 2:
            raise ValueError(f"need >= 2 environments to compare, got {m}")
        object.__setattr__(self, "env_ids", _check_env_ids(self.env_ids))
        mat = _readonly(self.m_hat)
        if mat.shape != (m, m):
            raise ValueError(f"m_hat must be ({m}, {m}), got {mat.shape}")
        # a finite matrix can still overflow its row variance: caught below
        with np.errstate(over="ignore", invalid="ignore"):
            inv = float(np.mean(np.var(mat, axis=1)))
            off_diag = mat.sum(axis=1) - np.diag(mat)
            delta = _frozen(np.abs(off_diag / (m - 1) - np.diag(mat)))
        if not (np.isfinite(mat).all() and np.isfinite(inv) and np.isfinite(delta).all()):
            raise ValueError("m_hat, inv and delta entries must be finite")
        object.__setattr__(self, "m_hat", mat)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "delta", delta)


def inv_statistic(
    model: LinearIRMModel,
    density: DensityModel,
    envs: list[EnvDataset],
    ratio_fn=None,
) -> InvarianceReport:
    """Assess invariance of the model's predictions across environments.

    Cell [b, s] averages prediction(x_i) * rho(x_i) over source s's samples,
    normalized by the sample count, where rho re-weights toward baseline b.
    Each source is predicted once. ratio_fn(x, baseline_env, source_env) ->
    per-row ratios replaces the default Gaussian estimator when given.
    """
    check_envs(envs)
    if ratio_fn is None:
        ratio_fn = lambda x, b, s: likelihood_ratio(density, x, b, s)  # noqa: E731
    env_ids = tuple(env.env_id for env in envs)
    mat = np.empty((len(envs), len(envs)))
    for j, source in enumerate(envs):
        preds = model.predict(source.features)
        for i, baseline in enumerate(env_ids):
            rho = np.asarray(ratio_fn(source.features, baseline, source.env_id), dtype=float)
            if rho.shape != (source.n,):
                raise ValueError(f"ratio_fn returned shape {rho.shape}, expected ({source.n},)")
            mat[i, j] = float(np.mean(preds * rho))
    return InvarianceReport(env_ids=env_ids, m_hat=_frozen(mat))


def write_report(report: InvarianceReport, path: str) -> None:
    """Write the m_hat matrix rows, then the scalar summary block.

    Format: ``baseline_env,source_env,m_hat`` rows, one ``inv,<value>`` line,
    then one ``delta,<env>,<value>`` line per environment.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("baseline_env,source_env,m_hat\n")
        for i, baseline in enumerate(report.env_ids):
            for j, source in enumerate(report.env_ids):
                fh.write(f"{baseline},{source},{float(report.m_hat[i, j])!r}\n")
        fh.write(f"inv,{float(report.inv)!r}\n")
        for i, env_id in enumerate(report.env_ids):
            fh.write(f"delta,{env_id},{float(report.delta[i])!r}\n")
