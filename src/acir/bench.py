"""Experiment runner: generate, split, fit, calibrate, predict, score.

Drives the full pipeline over replications for one benchmark setting (or a
user-supplied CSV), producing per-replication coverage and average-length
metrics for the four method variants (split-conformal and adaptive intervals
around ERM and IRM fits), plus aggregation and plot-ready exports.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .conformal import CalibrationState, calibrate
from .core import EnvDataset, PredictionInterval, average_length, coverage_rate
from .datagen import SETTINGS, CsvParseError, SemConfig, generate_sem, load_csv, split_dataset
from .models import FitConfig, fit_erm, fit_irmv1

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "MetricsRow",
    "SummaryRow",
    "BenchError",
    "run_experiment",
    "summarize",
    "emit_outputs",
    "read_metrics",
]

METHODS = ("SC-ERM", "SC-IRM", "AC-ERM", "AC-IRM")

_METRICS_HEADER = ["method", "setting", "replication", "scope", "coverage", "avg_length"]


class BenchError(RuntimeError):
    """Pipeline failure; message carries (replication, stage)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a setting, a sampling protocol, and the methods to score.

    setting is one of the four benchmark labels, or ``csv:<path>`` to run on
    an ingested file instead of the synthetic generator. In CSV mode the
    environments listed in test_envs are held out for evaluation and the
    remaining environments are re-split into train/calibration each
    replication with csv_train_fraction; the sample-size and env_params
    fields are ignored. resplit_only freezes the synthetic draw at
    replication 0 and only re-randomizes the train/calibration split.
    """

    setting: str
    alpha: float = 0.05
    n_train_total: int = 2000
    n_cal_total: int = 2000
    n_test_total: int = 2000
    env_params: tuple[float, ...] = (0.2, 2.0, 5.0)
    replications: int = 20
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    fit: FitConfig = field(default_factory=FitConfig)
    resplit_only: bool = False
    test_envs: tuple[int, ...] = ()
    csv_train_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not (self.setting in SETTINGS or self.setting.startswith("csv:")):
            raise ValueError(
                f"setting must be one of {SETTINGS} or 'csv:<path>', got {self.setting!r}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        object.__setattr__(self, "env_params", tuple(float(e) for e in self.env_params))
        m = len(self.env_params)
        if not self.is_csv:
            if m < 2:
                raise ValueError("need at least 2 environments")
            for name in ("n_train_total", "n_cal_total", "n_test_total"):
                if getattr(self, name) < m:
                    raise ValueError(f"{name} must be >= number of environments")
        seen = []
        for method in self.methods:
            canon = method.upper()
            if canon not in METHODS:
                raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
            if canon not in seen:
                seen.append(canon)
        object.__setattr__(
            self, "methods", tuple(m for m in METHODS if m in seen)
        )
        object.__setattr__(self, "test_envs", tuple(int(e) for e in self.test_envs))
        if self.is_csv:
            if not self.test_envs:
                raise ValueError("CSV mode requires test_envs to name held-out environments")
            if not 0.0 < self.csv_train_fraction < 1.0:
                raise ValueError("csv_train_fraction must lie in (0, 1)")

    @property
    def is_csv(self) -> bool:
        return self.setting.startswith("csv:")

    @property
    def csv_path(self) -> str:
        if not self.is_csv:
            raise ValueError("not a CSV-mode config")
        return self.setting[len("csv:"):]


@dataclass(frozen=True)
class MetricsRow:
    """Coverage and average interval length for one (method, replication, scope)."""

    method: str
    setting: str
    replication: int
    scope: str
    coverage: float
    avg_length: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coverage", float(self.coverage))
        object.__setattr__(self, "avg_length", float(self.avg_length))
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must lie in [0, 1], got {self.coverage}")
        if math.isnan(self.avg_length) or self.avg_length < 0:
            raise ValueError(f"avg_length must be >= 0 or inf, got {self.avg_length}")


@dataclass(frozen=True)
class SummaryRow:
    """Across-replication mean and sample sd per (method, setting, scope)."""

    method: str
    setting: str
    scope: str
    replications: int
    coverage_mean: float
    coverage_sd: float
    length_mean: float
    length_sd: float


@contextmanager
def _stage(replication: int, name: str) -> Iterator[None]:
    try:
        yield
    except BenchError:
        raise
    except Exception as exc:
        raise BenchError(f"(replication {replication}, stage {name}): {exc}") from exc


def _alloc(total: int, m: int) -> list[int]:
    base, rem = divmod(total, m)
    return [base + 1 if i < rem else base for i in range(m)]


def _derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


def _score_method(
    method: str,
    state: CalibrationState,
    test: list[EnvDataset],
    config: ExperimentConfig,
    replication: int,
) -> list[MetricsRow]:
    def row(scope: str, intervals: PredictionInterval, truths: np.ndarray) -> MetricsRow:
        return MetricsRow(
            method=method,
            setting=config.setting,
            replication=replication,
            scope=scope,
            coverage=coverage_rate(intervals, truths),
            avg_length=average_length(intervals),
        )

    build = state.sc_intervals if method.startswith("SC") else state.acir_intervals
    by_env = [build(env.features, config.alpha) for env in test]
    pooled = PredictionInterval(
        np.concatenate([iv.center for iv in by_env]),
        np.concatenate([iv.half_width for iv in by_env]),
    )
    rows = [row("pooled", pooled, np.concatenate([env.targets for env in test]))]
    return rows + [row(str(env.env_id), iv, env.targets) for env, iv in zip(test, by_env)]


def _replication_data(
    config: ExperimentConfig,
    sem: SemConfig | None,
    csv_envs: list[EnvDataset] | None,
    replication: int,
) -> tuple[list[EnvDataset], list[EnvDataset], list[EnvDataset]]:
    """Train, calibration, and test environments for one replication."""
    if csv_envs is not None:
        test = [env for env in csv_envs if env.env_id in config.test_envs]
        pools = [env for env in csv_envs if env.env_id not in config.test_envs]
        train, cal = [], []
        for env in pools:
            sp = split_dataset(
                env,
                config.csv_train_fraction,
                seed=_derived_seed(config.seed, replication, env.env_id),
            )
            train.append(sp.train)
            cal.append(sp.calibration)
        return train, cal, test

    assert sem is not None
    m = len(config.env_params)
    n_tr = _alloc(config.n_train_total, m)
    n_cal = _alloc(config.n_cal_total, m)
    n_te = _alloc(config.n_test_total, m)
    data_rep = 0 if config.resplit_only else replication
    train, cal, test = [], [], []
    for i, e in enumerate(config.env_params):
        pool = generate_sem(sem, e, n_tr[i] + n_cal[i], stream_seed=2 * data_rep)
        # fraction chosen so floor(frac * n) hits the train count exactly
        sp = split_dataset(
            pool,
            (n_tr[i] + 0.5) / pool.n,
            seed=_derived_seed(config.seed, replication, i),
        )
        train.append(sp.train)
        cal.append(sp.calibration)
        test.append(generate_sem(sem, e, n_te[i], stream_seed=2 * data_rep + 1))
    return train, cal, test


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run every replication and return all metric rows, deterministically.

    Failures in any stage are re-raised as BenchError annotated with the
    replication index and stage name.
    """
    sem = None
    csv_envs = None
    if config.is_csv:
        csv_envs = load_csv(config.csv_path)
        ids = {env.env_id for env in csv_envs}
        missing = [e for e in config.test_envs if e not in ids]
        if missing:
            raise ValueError(f"test_envs {missing} not present in {config.csv_path}")
        if len(ids) - len(config.test_envs) < 1:
            raise ValueError("CSV mode needs at least one training environment")
    else:
        sem = SemConfig(
            setting=config.setting, env_params=config.env_params, seed=config.seed
        )

    need = {method.split("-")[1] for method in config.methods}
    rows: list[MetricsRow] = []
    for rep in range(config.replications):
        with _stage(rep, "generate"):
            train, cal, test = _replication_data(config, sem, csv_envs, rep)
        models = {}
        with _stage(rep, "fit"):
            if "ERM" in need:
                models["ERM"] = fit_erm(train, config.fit)
            if "IRM" in need:
                models["IRM"] = fit_irmv1(train, config.fit)
        states = {}
        with _stage(rep, "calibrate"):
            for name, model in models.items():
                states[name] = calibrate(model, cal)
        with _stage(rep, "score"):
            for method in config.methods:
                state = states[method.split("-")[1]]
                rows.extend(_score_method(method, state, test, config, rep))
    rows.sort(key=lambda r: (r.method, r.setting, r.replication, r.scope))
    return rows


def summarize(rows: list[MetricsRow]) -> list[SummaryRow]:
    """Mean and sample standard deviation per (method, setting, scope)."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups: dict[tuple[str, str, str], list[MetricsRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.setting, row.scope), []).append(row)

    def _sd(values: list[float]) -> float:
        if len(values) == 1:
            return 0.0
        # infinite lengths make the spread undefined (nan), not an error
        with np.errstate(invalid="ignore"):
            return float(np.std(np.asarray(values), ddof=1))

    out = []
    for (method, setting, scope), members in sorted(groups.items()):
        cov = [r.coverage for r in members]
        length = [r.avg_length for r in members]
        out.append(
            SummaryRow(
                method=method,
                setting=setting,
                scope=scope,
                replications=len(members),
                coverage_mean=float(np.mean(cov)),
                coverage_sd=_sd(cov),
                length_mean=float(np.mean(length)),
                length_sd=_sd(length),
            )
        )
    return out


def emit_outputs(
    rows: list[MetricsRow], summary: list[SummaryRow], out_dir: str
) -> tuple[str, str, str]:
    """Write metrics.csv, summary.csv, and boxplot_data.csv under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
    boxplot_path = os.path.join(out_dir, "boxplot_data.csv")

    ordered = sorted(rows, key=lambda r: (r.method, r.setting, r.replication, r.scope))
    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_METRICS_HEADER) + "\n")
        for r in ordered:
            fh.write(
                f"{r.method},{r.setting},{r.replication},{r.scope},"
                f"{r.coverage!r},{r.avg_length!r}\n"
            )

    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            "method,setting,scope,replications,coverage_mean,coverage_sd,"
            "length_mean,length_sd\n"
        )
        for s in summary:
            fh.write(
                f"{s.method},{s.setting},{s.scope},{s.replications},"
                f"{s.coverage_mean!r},{s.coverage_sd!r},"
                f"{s.length_mean!r},{s.length_sd!r}\n"
            )

    box = sorted(ordered, key=lambda r: (r.method, r.setting, r.scope, r.replication))
    with open(boxplot_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,setting,scope,replication,metric,value\n")
        for r in box:
            fh.write(f"{r.method},{r.setting},{r.scope},{r.replication},coverage,{r.coverage!r}\n")
            fh.write(f"{r.method},{r.setting},{r.scope},{r.replication},length,{r.avg_length!r}\n")
    return metrics_path, summary_path, boxplot_path


def read_metrics(path: str) -> list[MetricsRow]:
    """Parse a metrics.csv written by emit_outputs back into rows."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _METRICS_HEADER:
            raise CsvParseError(f"{path}: unexpected header {header}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(_METRICS_HEADER):
                raise CsvParseError(f"{path}:{lineno}: expected 6 fields, got {len(rec)}")
            try:
                rows.append(
                    MetricsRow(
                        method=rec[0],
                        setting=rec[1],
                        replication=int(rec[2]),
                        scope=rec[3],
                        coverage=float(rec[4]),
                        avg_length=float(rec[5]),
                    )
                )
            except ValueError as exc:
                raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
    return rows
