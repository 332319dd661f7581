"""Experiment runner: generate, split, fit, calibrate, predict, score.

Drives the full pipeline over replications for one benchmark setting (or a
user-supplied CSV), producing per-replication coverage and average-length
metrics for the four method variants (split-conformal and adaptive intervals
around ERM and IRM fits), plus aggregation and plot-ready exports.

Replications are independent: each one's data, split and fit depend only on
the config and its index. From _PARALLEL_REPLICATIONS replications on, when
core._can_fork allows, they run through core._in_two, the one fork primitive:
a forked worker runs the second half of them while this process runs the
first, and the rows, hence every output file, are those of one process.
"""

from __future__ import annotations

import math
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import core
from .conformal import CalibrationState, calibrate
from .core import (
    EnvDataset,
    PredictionInterval,
    _frozen,
    average_length,
    check_alpha,
    check_seed,
    check_train_fraction,
    coverage_rate,
)
from .datagen import (
    DEFAULT_ENV_PARAMS,
    SETTINGS,
    SemConfig,
    check_env_params,
    env_sizes,
    generate_sem,
    load_csv,
    split_dataset,
)
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
]

METHODS = ("SC-ERM", "SC-IRM", "AC-ERM", "AC-IRM")


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
    env_params: tuple[float, ...] = DEFAULT_ENV_PARAMS
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
        check_alpha(self.alpha)
        check_seed(self.seed)
        check_train_fraction(self.csv_train_fraction)
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        object.__setattr__(self, "env_params", check_env_params(self.env_params))
        m = len(self.env_params)
        if not self.is_csv:
            if m < 2:
                raise ValueError("need at least 2 environments")
            for name in ("n_train_total", "n_cal_total", "n_test_total"):
                if getattr(self, name) < m:
                    raise ValueError(f"{name} must be >= number of environments")
        for method in self.methods:
            if method.upper() not in METHODS:
                raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
        if not self.methods:
            raise ValueError(f"need at least one method; choose from {METHODS}")
        chosen = {method.upper() for method in self.methods}
        object.__setattr__(self, "methods", tuple(m for m in METHODS if m in chosen))
        object.__setattr__(self, "test_envs", tuple(int(e) for e in self.test_envs))
        repeated = sorted({e for e in self.test_envs if self.test_envs.count(e) > 1})
        if repeated:
            raise ValueError(f"test_envs names environments {repeated} more than once")
        if self.is_csv:
            if not self.test_envs:
                raise ValueError("CSV mode requires test_envs to name held-out environments")

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
        _frozen(np.concatenate([iv.center for iv in by_env])),
        _frozen(np.concatenate([iv.half_width for iv in by_env])),
    )
    rows = [row("pooled", pooled, np.concatenate([env.targets for env in test]))]
    return rows + [row(str(env.env_id), iv, env.targets) for env, iv in zip(test, by_env)]


def _replication_data(
    config: ExperimentConfig,
    sem: SemConfig | None,
    csv_envs: list[EnvDataset] | None,
    replication: int,
) -> tuple[list[EnvDataset], list[EnvDataset], list[EnvDataset]]:
    """Train, calibration, and test environments for one replication.

    The data source only decides the pools to split, their train fractions
    and the test sets; every pool is then split with a seed derived from its
    env_id, which for a synthetic pool is its index in env_params.
    """
    if csv_envs is not None:
        test = [env for env in csv_envs if env.env_id in config.test_envs]
        pools = [env for env in csv_envs if env.env_id not in config.test_envs]
        fractions = [config.csv_train_fraction] * len(pools)
    else:
        assert sem is not None
        m = len(config.env_params)
        n_tr = env_sizes(config.n_train_total, m)
        n_cal = env_sizes(config.n_cal_total, m)
        n_te = env_sizes(config.n_test_total, m)
        data_rep = 0 if config.resplit_only else replication
        pools, test = [], []
        for i, e in enumerate(config.env_params):
            pools.append(generate_sem(sem, e, n_tr[i] + n_cal[i], stream_seed=2 * data_rep))
            test.append(generate_sem(sem, e, n_te[i], stream_seed=2 * data_rep + 1))
        # fraction chosen so floor(frac * n) hits the train count exactly
        fractions = [(n + 0.5) / pool.n for n, pool in zip(n_tr, pools)]
    splits = [
        split_dataset(pool, fraction, seed=_derived_seed(config.seed, replication, pool.env_id))
        for pool, fraction in zip(pools, fractions)
    ]
    return [sp.train for sp in splits], [sp.calibration for sp in splits], test


# A worker costs about 3 ms to fork, reap and take its copy-on-write page
# faults while the second vCPU is free; while it is busy, the two halves take
# turns. A replication takes 5-10 ms at 150-2000 rows per part (2-vCPU shared
# VM, Python 3.11). In 11 alternating runs of the four settings, two
# processes took up to 1.8 times as long as one below 8 replications of
# 60-500 rows (0.86-1.11 times at 1000-2000 rows), and 0.76-0.93 times as
# long from 8 replications on at every size tried, 60 to 2000 rows; 20
# replications of 2000 rows took 0.67 times as long.
_PARALLEL_REPLICATIONS = 8


def run_experiment(config: ExperimentConfig) -> list[MetricsRow]:
    """Run every replication and return all metric rows, deterministically.

    Failures in any stage are re-raised as BenchError annotated with the
    replication index and stage name. From _PARALLEL_REPLICATIONS on, when
    core._can_fork allows, core._in_two's worker runs the second half of the
    replications (from n // 2 on). A failed or missing worker's half runs
    here, and an error in this process's half stops the worker, so the rows
    and any error are the one-process ones: the lowest failing replication's.
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
    # Looked up per call, not at import: a tracer may swap the fitters on this module.
    fitters = {name: fit for name, fit in (("ERM", fit_erm), ("IRM", fit_irmv1)) if name in need}

    def replicate(reps: range) -> list[MetricsRow]:
        rows: list[MetricsRow] = []
        for rep in reps:
            with _stage(rep, "generate"):
                train, cal, test = _replication_data(config, sem, csv_envs, rep)
            with _stage(rep, "fit"):
                models = {name: fit(train, config.fit) for name, fit in fitters.items()}
            with _stage(rep, "calibrate"):
                states = {name: calibrate(model, cal) for name, model in models.items()}
            with _stage(rep, "score"):
                for method in config.methods:
                    state = states[method.split("-")[1]]
                    rows.extend(_score_method(method, state, test, config, rep))
        return rows

    n, half = config.replications, config.replications // 2
    if n >= _PARALLEL_REPLICATIONS and core._can_fork():
        # The worker pickles its rows, whose floats keep every bit.
        rows = core._in_two(
            lambda: replicate(range(half)),
            lambda out: pickle.dump(
                replicate(range(half, n)), out.buffer, pickle.HIGHEST_PROTOCOL
            ),
            lambda head, out: head + pickle.load(out.buffer),
        )
    else:
        rows = replicate(range(n))
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
    ordered = sorted(rows, key=lambda r: (r.method, r.setting, r.replication, r.scope))
    box = sorted(ordered, key=lambda r: (r.method, r.setting, r.scope, r.replication))
    files = [(
        "metrics.csv",
        "method,setting,replication,scope,coverage,avg_length",
        [f"{r.method},{r.setting},{r.replication},{r.scope},{r.coverage!r},{r.avg_length!r}"
         for r in ordered],
    ), (
        "summary.csv",
        "method,setting,scope,replications,coverage_mean,coverage_sd,length_mean,length_sd",
        [f"{s.method},{s.setting},{s.scope},{s.replications},{s.coverage_mean!r},"
         f"{s.coverage_sd!r},{s.length_mean!r},{s.length_sd!r}" for s in summary],
    ), (
        "boxplot_data.csv",
        "method,setting,scope,replication,metric,value",
        [f"{r.method},{r.setting},{r.scope},{r.replication},{metric},{value!r}"
         for r in box for metric, value in (("coverage", r.coverage), ("length", r.avg_length))],
    )]
    paths = tuple(os.path.join(out_dir, name) for name, _, _ in files)
    for path, (_, header, lines) in zip(paths, files):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + "\n" for line in [header, *lines]))
    return paths

