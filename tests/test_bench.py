"""Experiment runner: row accounting, determinism, aggregation, exports."""

import csv
import math
import os
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import acir.bench
from acir import cli, core
from acir.bench import (
    METHODS,
    BenchError,
    ExperimentConfig,
    MetricsRow,
    SummaryRow,
    _derived_seed,
    _replication_data,
    emit_outputs,
    run_experiment,
    summarize,
)
from acir.conformal import calibrate
from acir.core import EnvDataset, average_length, coverage_rate
from acir.datagen import (
    DEFAULT_ENV_PARAMS, SETTINGS, SemConfig, generate_sem, load_csv, save_csv,
)
from acir.models import FitConfig, fit_erm, fit_irmv1
from conftest import assert_no_child_left

FAST_FIT = FitConfig(penalty_weight=3.0, init_scale=1.0)


def small_config(**overrides):
    base = dict(
        setting="FOU",
        n_train_total=150,
        n_cal_total=150,
        n_test_total=90,
        replications=2,
        fit=FAST_FIT,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_setting():
    with pytest.raises(ValueError, match="setting"):
        ExperimentConfig(setting="NOPE")


INTEGER_FIELDS = [
    (ExperimentConfig, dict(setting="FOU"), field)
    for field in ("n_train_total", "n_cal_total", "n_test_total", "replications", "seed")
] + [
    (FitConfig, {}, field) for field in ("max_iters", "warmup_iters", "repr_dim", "seed")
] + [
    (SemConfig, dict(setting="FOU"), field) for field in ("dim_x1", "dim_x2", "seed")
] + [(ExperimentConfig, dict(setting="csv:data.csv"), "test_envs")]


@pytest.mark.parametrize("config, base, field", INTEGER_FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, _, f in INTEGER_FIELDS])
def test_integer_fields_take_numpy_integers_and_reject_the_rest(config, base, field):
    def make(value):
        return config(**base, **{field: (value,) if field == "test_envs" else value})

    value = getattr(make(np.int64(3)), field)
    value = value[0] if field == "test_envs" else value
    assert value == 3 and type(value) is int
    for bad in (2.5, 3.0, "3", np.float64(3.0)):
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {bad!r}")):
            make(bad)


def test_config_rejects_bad_alpha_and_replications():
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=0.0)
    with pytest.raises(ValueError, match="replications"):
        small_config(replications=0)


@pytest.mark.parametrize("fraction", [1.5, 0.0, float("nan")])
def test_config_rejects_a_train_fraction_outside_the_unit_interval(fraction):
    with pytest.raises(ValueError, match=r"train fraction must be in \(0, 1\)"):
        ExperimentConfig(setting="csv:data.csv", test_envs=(0,), csv_train_fraction=fraction)


def test_config_rejects_a_negative_seed_before_any_run():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        small_config(seed=-1)


def test_config_rejects_totals_below_env_count():
    with pytest.raises(ValueError, match="n_test_total"):
        small_config(n_test_total=2)


@pytest.mark.parametrize("env_params, message", [
    ((0.2, 2.0, 2.0), "distinct"), ((0.2, float("nan"), 5.0), "finite"), ((-1.0, 2.0), "finite"),
    ((0.2,), "need at least 2 environments"),
])
def test_config_rejects_duplicate_or_non_finite_env_params(env_params, message):
    with pytest.raises(ValueError, match=message):
        small_config(env_params=env_params)


def test_config_canonicalizes_methods_to_fixed_order():
    cfg = small_config(methods=("ac-irm", "sc-erm", "AC-IRM"))
    assert cfg.methods == ("SC-ERM", "AC-IRM")
    with pytest.raises(ValueError, match="unknown method"):
        small_config(methods=("SC-XXX",))


def test_config_rejects_an_empty_method_list():
    with pytest.raises(ValueError, match="need at least one method"):
        small_config(methods=())


def test_config_csv_mode_requires_test_envs():
    with pytest.raises(ValueError, match="test_envs"):
        ExperimentConfig(setting="csv:/tmp/data.csv")
    cfg = ExperimentConfig(setting="csv:/tmp/data.csv", test_envs=(3,))
    assert cfg.is_csv
    assert ExperimentConfig(setting="csv:d.csv", test_envs=np.array([3, 1])).test_envs == (3, 1)
    assert cfg.csv_path == "/tmp/data.csv"
    assert not small_config().is_csv
    with pytest.raises(ValueError, match="^not a CSV-mode config$"):
        small_config().csv_path
    # outside CSV mode test_envs is None, and even an empty tuple is refused
    assert small_config().test_envs is None
    with pytest.raises(ValueError, match="^test_envs does not apply outside CSV mode"):
        small_config(test_envs=())


def test_config_rejects_a_test_env_named_twice():
    message = r"^test_envs names environments \[1, 3\] more than once$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(setting="csv:data.csv", test_envs=(3, 1, 2, 1, 3))


# (field, a value for it, its default) for every field that only one mode uses
MODE_FIELDS = [
    ("n_train_total", 100, 2000), ("n_cal_total", 100, 2000), ("n_test_total", 100, 2000),
    ("env_params", (0.5, 1.0), DEFAULT_ENV_PARAMS), ("resplit_only", False, False),
    ("csv_train_fraction", 0.3, 0.5),
]


@pytest.mark.parametrize("name, value, default", MODE_FIELDS, ids=[f[0] for f in MODE_FIELDS])
def test_a_mode_specific_field_is_refused_in_the_other_mode_and_defaults_in_its_own(
    name, value, default
):
    csv, synthetic = dict(setting="csv:data.csv", test_envs=(0,)), dict(setting="FOU")
    own, other = (csv, synthetic) if name == "csv_train_fraction" else (synthetic, csv)
    assert getattr(ExperimentConfig(**own), name) == default
    assert getattr(ExperimentConfig(**other), name) is None
    where = "in" if other is csv else "outside"
    message = f"^{name} does not apply {where} CSV mode, got setting '{other['setting']}'$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**other, **{name: value})


@pytest.mark.parametrize("name, value", [("penalty_weight", 500.0), ("warmup_iters", 7)])
def test_an_irm_only_fit_field_is_refused_without_an_irm_method(name, value):
    fit = FitConfig(**{name: value})
    assert small_config(methods=("SC-ERM", "AC-IRM"), fit=fit).fit is fit
    with pytest.raises(ValueError, match=f"^{name} does not apply without an IRM method$"):
        ExperimentConfig(setting="FOU", methods=("SC-ERM",), fit=fit)


def test_float_fields_are_stored_as_the_float_their_check_returns():
    csv = ExperimentConfig(setting="csv:data.csv", test_envs=(0,), alpha=np.float32(0.25),
                           csv_train_fraction=np.float32(0.5))
    assert type(csv.alpha) is float and type(csv.csv_train_fraction) is float


def test_metrics_row_validation():
    with pytest.raises(ValueError, match="coverage"):
        MetricsRow("SC-IRM", "FOU", 0, "pooled", 1.5, 1.0)
    with pytest.raises(ValueError, match="avg_length"):
        MetricsRow("SC-IRM", "FOU", 0, "pooled", 0.5, float("nan"))
    row = MetricsRow("SC-IRM", "FOU", 0, "pooled", np.float64(0.5), np.float64(2.0))
    assert type(row.coverage) is float and type(row.avg_length) is float


# ---------------------------------------------------------------------------
# run_experiment


def test_row_accounting_and_order():
    cfg = small_config()
    rows = run_experiment(cfg)
    # 4 methods x 2 replications x (1 pooled + 3 per-env scopes)
    assert len(rows) == 4 * 2 * 4
    assert {r.scope for r in rows} == {"pooled", "0", "1", "2"}
    assert {r.method for r in rows} == set(METHODS)
    assert {r.replication for r in rows} == {0, 1}
    assert all(r.setting == "FOU" for r in rows)
    keys = [(r.method, r.setting, r.replication, r.scope) for r in rows]
    assert keys == sorted(keys)


def test_single_method_subset_runs_only_that_fit():
    # an ERM-only run refuses FAST_FIT's penalty, so this fit leaves it unset
    rows = run_experiment(small_config(methods=("SC-ERM",), replications=1,
                                       fit=FitConfig(init_scale=1.0)))
    assert len(rows) == 4
    assert all(r.method == "SC-ERM" for r in rows)


def test_deterministic_byte_identical_metrics(tmp_path):
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    emit_outputs(a, summarize(a), str(tmp_path / "a"))
    emit_outputs(b, summarize(b), str(tmp_path / "b"))
    bytes_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b


def test_resplit_only_freezes_the_synthetic_draw():
    cfg = small_config(resplit_only=True)
    sem = SemConfig(setting="FOU", env_params=cfg.env_params, seed=cfg.seed)
    tr0, ca0, te0 = _replication_data(cfg, sem, None, 0)
    tr1, ca1, te1 = _replication_data(cfg, sem, None, 1)
    for a, b in zip(te0, te1):
        np.testing.assert_array_equal(a.features, b.features)
    # the union of train+cal rows is fixed, but the split moves
    assert not np.array_equal(tr0[0].features, tr1[0].features)
    pool0 = np.vstack([tr0[0].features, ca0[0].features])
    pool1 = np.vstack([tr1[0].features, ca1[0].features])
    np.testing.assert_array_equal(
        np.sort(pool0, axis=0), np.sort(pool1, axis=0)
    )


@pytest.mark.parametrize("setting", SETTINGS)
def test_no_test_row_repeats_a_train_or_calibration_row(setting):
    cfg = small_config(setting=setting)
    sem = SemConfig(setting=setting, env_params=cfg.env_params, seed=cfg.seed)
    for rep in range(cfg.replications):
        train, cal, test = _replication_data(cfg, sem, None, rep)
        seen = {tuple(row) for env in train + cal for row in env.features.tolist()}
        leaked = [row for env in test for row in env.features.tolist() if tuple(row) in seen]
        assert leaked == []


def test_sc_lengths_match_their_pooled_length_and_ac_lengths_do_not():
    # SC gives every test point one half-width, so each environment's mean
    # equals the pooled mean up to the rounding of a mean of equal floats
    cfg = small_config(setting="PEU")
    rows = run_experiment(cfg)
    for method in METHODS:
        for rep in range(cfg.replications):
            lengths = {r.scope: r.avg_length for r in rows
                       if r.method == method and r.replication == rep}
            pooled = lengths.pop("pooled")
            same = [math.isclose(v, pooled, rel_tol=1e-12, abs_tol=0.0)
                    for v in lengths.values()]
            assert all(same) if method.startswith("SC") else not any(same), (method, rep)


@pytest.mark.parametrize("setting", [*SETTINGS, "csv"])
def test_each_environments_row_scores_that_environment_alone(setting, tmp_path):
    # The runner scores one batch on the stacked test set and slices each
    # environment's rows out of it; scoring the environment by itself must
    # give the same row, so the slice bounds hold the environment's rows.
    if setting == "csv":
        path = tmp_path / "data.csv"
        make_csv_fixture(str(path), n=37, n_test_env=3)
        cfg = ExperimentConfig(setting=f"csv:{path}", test_envs=(4, 2, 3), replications=2,
                               fit=FAST_FIT)
        csv_envs = load_csv(cfg.csv_path)
        sem = None
    else:
        cfg = small_config(setting=setting, n_test_total=91)
        sem = SemConfig(setting=setting, env_params=cfg.env_params, seed=cfg.seed)
        csv_envs = None
    rows = {(r.method, r.replication, r.scope): r for r in run_experiment(cfg)}
    for rep in range(cfg.replications):
        train, cal, test = _replication_data(cfg, sem, csv_envs, rep)
        states = {"ERM": calibrate(fit_erm(train, cfg.fit), cal),
                  "IRM": calibrate(fit_irmv1(train, cfg.fit), cal)}
        for method in METHODS:
            state = states[method.split("-")[1]]
            build = state.sc_intervals if method.startswith("SC") else state.acir_intervals
            for env in test:
                alone = build(env.features, cfg.alpha)
                row = rows[method, rep, str(env.env_id)]
                assert row.coverage == coverage_rate(alone, env.targets), (method, rep, env.env_id)
                assert row.avg_length.hex() == average_length(alone).hex(), (method, rep, env.env_id)


@pytest.mark.parametrize("path, words", [
    ((3, 0, 2), [3, 0, 2]),
    ((2**64 + 5, 1, 0), [2**64 + 5, 1, 0]),  # a wide seed enters as itself
    ((3, 1, -1), [3, 1, 2**64 - 1]),  # a negative id as its two's-complement word
    ((3, 1, -(2**63)), [3, 1, 2**63]),
])
def test_a_derived_seed_is_the_seed_sequence_of_its_words(path, words):
    assert _derived_seed(*path) == int(np.random.SeedSequence(words).generate_state(1)[0])


def test_stage_functions_are_looked_up_on_the_module_at_call_time(monkeypatch):
    # The benchmark's tracer swaps these names on acir.bench; a runner that
    # bound them at import time would silently drop them from its breakdown.
    # One replication keeps every call in this process: calls made in a
    # replication worker would not be seen here.
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("generate_sem", "split_dataset", "fit_erm", "fit_irmv1",
             "calibrate", "coverage_rate", "average_length")
    for name in names:
        monkeypatch.setattr(acir.bench, name, counting(name, getattr(acir.bench, name)))
    run_experiment(small_config(replications=1))
    assert [calls.get(name, 0) for name in names] == [6, 3, 1, 1, 2, 16, 16]


def test_stage_failure_is_annotated(tmp_path):
    # a one-row training environment cannot be split into train/calibration
    path = str(tmp_path / "tiny.csv")
    rng = np.random.default_rng(0)
    save_csv(
        [
            EnvDataset(0, rng.normal(size=(1, 3)), rng.normal(size=1)),
            EnvDataset(1, rng.normal(size=(8, 3)), rng.normal(size=8)),
        ],
        path,
    )
    cfg = ExperimentConfig(setting=f"csv:{path}", test_envs=(1,), fit=FAST_FIT)
    with pytest.raises(BenchError, match=r"replication 0, stage generate"):
        run_experiment(cfg)


def test_pooled_sc_coverage_close_to_nominal():
    rows = run_experiment(small_config(
        methods=("SC-IRM",),
        replications=1,
        n_train_total=600,
        n_cal_total=600,
        n_test_total=600,
    ))
    pooled = [r for r in rows if r.scope == "pooled"]
    assert len(pooled) == 1
    print(f"pooled SC-IRM coverage {pooled[0].coverage:.3f}")
    assert 0.90 <= pooled[0].coverage <= 1.0


# ---------------------------------------------------------------------------
# Replications on one process or two: the same rows, the same errors


@pytest.fixture
def two_runs(monkeypatch, forks):
    """Run a call with the fork gate shut, then open from two replications
    on; return both results and, per forked worker, the replication indices
    of the rows it handed back (None: it failed, or was killed first)."""
    monkeypatch.setattr(acir.bench, "_PARALLEL_REPLICATIONS", 2)

    def run(call):
        serial = forks.gate_shut(call)
        monkeypatch.setattr(core, "_can_fork", lambda: True)
        return serial, call(), [
            None if worker.handed is None
            else sorted({row.replication for row in pickle.loads(worker.handed)})
            for worker in forks
        ]

    return run


def rows_and_files(config, out_dir):
    """The rows, with their floats' bits, and the bytes of the three files it writes."""
    rows = run_experiment(config)
    paths = emit_outputs(rows, summarize(rows), str(out_dir))
    bits = [(r.method, r.setting, r.replication, r.scope, r.coverage.hex(), r.avg_length.hex())
            for r in rows]
    return bits, [Path(path).read_bytes() for path in paths]


@pytest.mark.parametrize("replications", [1, 2, 3, 5])
@pytest.mark.parametrize("config", [
    dict(setting="FOU"), dict(setting="PEU"), dict(setting="POU", resplit_only=True),
], ids=["FOU", "PEU", "POU-resplit-only"])
def test_two_process_rows_and_files_are_the_one_process_ones(
    two_runs, tmp_path, replications, config
):
    cfg = small_config(replications=replications, **config)
    serial, parallel, handed = two_runs(lambda: rows_and_files(cfg, tmp_path))
    assert parallel == serial
    assert len(serial[0]) == replications * 4 * 4
    # one worker from two replications on, running the second half
    assert handed == ([list(range(replications // 2, replications))] if replications > 1 else [])
    assert_no_child_left()


def test_two_process_csv_mode_is_the_one_process_csv_mode(two_runs, tmp_path):
    path = str(tmp_path / "data.csv")
    make_csv_fixture(path)
    cfg = ExperimentConfig(setting=f"csv:{path}", test_envs=(3, 4), replications=5, fit=FAST_FIT)
    serial, parallel, handed = two_runs(lambda: rows_and_files(cfg, tmp_path))
    assert parallel == serial and handed == [[2, 3, 4]]
    assert_no_child_left()


def fitter_failing(monkeypatch, fails):
    """Patch the IRM fitter on acir.bench to raise where fails(replication) holds."""
    replication_data, current = acir.bench._replication_data, []

    def tracked(config, sem, csv_envs, replication):
        current.append(replication)
        return replication_data(config, sem, csv_envs, replication)

    def fit(train, config):
        if fails(current[-1]):
            raise RuntimeError("no fit here")
        return fit_irmv1(train, config)

    monkeypatch.setattr(acir.bench, "_replication_data", tracked)
    monkeypatch.setattr(acir.bench, "fit_irmv1", fit)


def bench_error(config):
    def run():
        with pytest.raises(BenchError) as info:
            run_experiment(config)
        return str(info.value)
    return run


def test_a_failure_in_the_workers_half_gives_the_one_process_error(two_runs, monkeypatch):
    fitter_failing(monkeypatch, lambda replication: replication >= 2)
    serial, parallel, handed = two_runs(bench_error(small_config(replications=5)))
    assert parallel == serial == "(replication 2, stage fit): no fit here"
    assert handed == [None]
    assert_no_child_left()


def test_a_failure_in_this_processs_half_reaps_the_worker(two_runs, monkeypatch):
    fitter_failing(monkeypatch, lambda replication: replication in (1, 3))
    serial, parallel, handed = two_runs(bench_error(small_config(replications=5)))
    assert parallel == serial == "(replication 1, stage fit): no fit here"
    assert handed == [None]
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["raises", "exits", "no-fork"])
def test_a_failed_or_missing_worker_still_gives_the_one_process_rows(
    two_runs, tmp_path, monkeypatch, failure
):
    parent = os.getpid()
    if failure == "no-fork":
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        def in_the_worker(replication):
            if os.getpid() != parent and failure == "exits":
                os._exit(3)
            return os.getpid() != parent
        fitter_failing(monkeypatch, in_the_worker)
    cfg = small_config(replications=3)
    serial, parallel, handed = two_runs(lambda: rows_and_files(cfg, tmp_path))
    assert parallel == serial
    # without a fork, no worker hands anything back
    assert handed == ([] if failure == "no-fork" else [None])
    assert_no_child_left()


def test_a_two_process_bench_run_prints_each_path_once(two_runs, tmp_path, capfd, monkeypatch):
    out = str(tmp_path / "out")
    argv = ["bench", "run", "--setting", "FOU", "--reps", "3", "--n-train", "150",
            "--n-cal", "150", "--n-test", "90", "--penalty-weight", "3.0",
            "--init-scale", "1.0", "--out", out]
    # Block-buffered, as on a pipe or a file, stdout still holds the first
    # run's lines when the second forks: a worker that flushed its copy of
    # the buffer would print them twice.
    with open(1, "w", encoding="utf-8", closefd=False) as stdout:
        with monkeypatch.context() as buffered:
            buffered.setattr(sys, "stdout", stdout)
            serial, parallel, handed = two_runs(lambda: cli.main(argv))
    assert serial == parallel == 0 and handed == [[1, 2]]
    printed = "".join(os.path.join(out, name) + "\n"
                      for name in ("metrics.csv", "summary.csv", "boxplot_data.csv"))
    assert capfd.readouterr() == (printed * 2, "")


def test_a_run_below_the_threshold_stays_on_one_process(monkeypatch):
    monkeypatch.setattr(core, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the threshold"))
    run_experiment(small_config(replications=acir.bench._PARALLEL_REPLICATIONS - 1))


# ---------------------------------------------------------------------------
# summarize


def make_row(method="SC-IRM", setting="FOU", rep=0, scope="pooled", cov=0.9, ln=1.0):
    return MetricsRow(method, setting, rep, scope, cov, ln)


def test_summarize_hand_arithmetic():
    rows = [
        make_row(rep=0, cov=0.9, ln=1.0),
        make_row(rep=1, cov=1.0, ln=3.0),
    ]
    out = summarize(rows)
    assert len(out) == 1
    s = out[0]
    assert s.replications == 2
    assert abs(s.coverage_mean - 0.95) < 1e-15
    # sample sd of {0.9, 1.0} = 0.1/sqrt(2) = 0.07071067811865476
    assert abs(s.coverage_sd - 0.07071067811865476) < 1e-12
    assert abs(s.length_mean - 2.0) < 1e-15
    assert abs(s.length_sd - np.sqrt(2.0)) < 1e-12


def test_summarize_single_replication_sd_is_zero():
    s = summarize([make_row()])[0]
    assert s.coverage_sd == 0.0 and s.length_sd == 0.0


def test_summarize_never_merges_scopes():
    rows = [make_row(scope="pooled"), make_row(scope="0"), make_row(scope="1")]
    out = summarize(rows)
    assert len(out) == 3
    assert {s.scope for s in out} == {"pooled", "0", "1"}
    assert all(s.replications == 1 for s in out)


def test_summarize_empty_raises():
    with pytest.raises(ValueError, match="no rows"):
        summarize([])


# ---------------------------------------------------------------------------
# csv outputs


def test_metrics_round_trip_including_inf(tmp_path):
    rows = [
        make_row(rep=0, cov=0.9375, ln=2.25),
        make_row(rep=1, cov=1.0, ln=float("inf")),
        make_row(rep=2, cov=0.1 + 0.2, ln=1 / 3),
    ]
    paths = emit_outputs(rows, summarize(rows), str(tmp_path))
    assert paths[0].endswith("metrics.csv")
    with open(paths[0], encoding="utf-8", newline="") as fh:
        header, *records = csv.reader(fh)
    assert header == ["method", "setting", "replication", "scope", "coverage", "avg_length"]
    back = [MetricsRow(method, setting, int(rep), scope, float(cov), float(ln))
            for method, setting, rep, scope, cov, ln in records]
    assert back == sorted(rows, key=lambda r: (r.method, r.setting, r.replication, r.scope))


def test_boxplot_layout(tmp_path):
    rows = [make_row(rep=r, cov=0.9 + 0.01 * r, ln=1.0 + r) for r in range(2)]
    _, _, box_path = emit_outputs(rows, summarize(rows), str(tmp_path))
    lines = Path(box_path).read_text().splitlines()
    assert lines[0] == "method,setting,scope,replication,metric,value"
    assert len(lines) == 1 + 2 * len(rows)
    assert lines[1] == "SC-IRM,FOU,pooled,0,coverage,0.9"
    assert lines[2] == "SC-IRM,FOU,pooled,0,length,1.0"
    assert lines[3] == "SC-IRM,FOU,pooled,1,coverage,0.91"


# ---------------------------------------------------------------------------
# csv-ingestion mode


def make_csv_fixture(path, n_train_env=3, n_test_env=2, n=120, seed=5):
    """Five environments from one generator; the last two are held out."""
    cfg = SemConfig(setting="FOU", env_params=(0.5, 1.0, 2.0), seed=seed)
    envs = []
    for env_id in range(n_train_env + n_test_env):
        e = (0.5, 1.0, 2.0)[env_id % 3]
        data = generate_sem(cfg, e, n, stream_seed=100 + env_id)
        envs.append(EnvDataset(env_id, data.features, data.targets))
    save_csv(envs, path)
    return envs


def test_csv_mode_holds_out_named_environments(tmp_path):
    path = str(tmp_path / "data.csv")
    make_csv_fixture(path)
    cfg = ExperimentConfig(
        setting=f"csv:{path}",
        test_envs=(3, 4),
        replications=2,
        fit=FAST_FIT,
        methods=("SC-IRM", "AC-IRM"),
    )
    rows = run_experiment(cfg)
    # 2 methods x 2 replications x (pooled + 2 held-out envs)
    assert len(rows) == 2 * 2 * 3
    assert {r.scope for r in rows} == {"pooled", "3", "4"}
    # the held-out data is fixed, but refits move the metrics across reps
    by_rep = [r for r in rows if r.method == "SC-IRM" and r.scope == "pooled"]
    assert by_rep[0].avg_length != by_rep[1].avg_length


def test_csv_mode_rejects_missing_test_env(tmp_path):
    path = str(tmp_path / "data.csv")
    make_csv_fixture(path)
    cfg = ExperimentConfig(setting=f"csv:{path}", test_envs=(99,), fit=FAST_FIT)
    with pytest.raises(ValueError, match="99"):
        run_experiment(cfg)


def test_csv_mode_names_an_environment_too_small_to_split(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("env,y,x1\n0,1.0,2.0\n0,2.0,3.0\n7,1.0,2.0\n1,0.5,1.5\n")
    cfg = ExperimentConfig(setting=f"csv:{path}", test_envs=(1,), fit=FAST_FIT)
    with pytest.raises(BenchError, match=r"\): env 7: need at least 2 rows to split$"):
        run_experiment(cfg)


def test_csv_mode_needs_a_training_environment(tmp_path):
    path = str(tmp_path / "data.csv")
    make_csv_fixture(path, n_train_env=0, n_test_env=3)
    cfg = ExperimentConfig(
        setting=f"csv:{path}", test_envs=(0, 1, 2), fit=FAST_FIT
    )
    with pytest.raises(ValueError, match="training environment"):
        run_experiment(cfg)
