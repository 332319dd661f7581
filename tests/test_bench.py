"""Experiment runner: row accounting, determinism, aggregation, exports."""

from pathlib import Path

import numpy as np
import pytest

from acir.bench import (
    METHODS,
    BenchError,
    ExperimentConfig,
    MetricsRow,
    SummaryRow,
    emit_outputs,
    read_metrics,
    run_experiment,
    summarize,
)
from acir.core import EnvDataset
from acir.datagen import CsvParseError, SemConfig, generate_sem, save_csv
from acir.models import FitConfig

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


def test_config_rejects_bad_alpha_and_replications():
    with pytest.raises(ValueError, match="alpha"):
        small_config(alpha=0.0)
    with pytest.raises(ValueError, match="replications"):
        small_config(replications=0)


def test_config_rejects_totals_below_env_count():
    with pytest.raises(ValueError, match="n_test_total"):
        small_config(n_test_total=2)


def test_config_canonicalizes_methods_to_fixed_order():
    cfg = small_config(methods=("ac-irm", "sc-erm", "AC-IRM"))
    assert cfg.methods == ("SC-ERM", "AC-IRM")
    with pytest.raises(ValueError, match="unknown method"):
        small_config(methods=("SC-XXX",))


def test_config_csv_mode_requires_test_envs():
    with pytest.raises(ValueError, match="test_envs"):
        ExperimentConfig(setting="csv:/tmp/data.csv")
    cfg = ExperimentConfig(setting="csv:/tmp/data.csv", test_envs=(3,))
    assert cfg.is_csv
    assert cfg.csv_path == "/tmp/data.csv"
    assert not small_config().is_csv


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
    rows = run_experiment(small_config(methods=("SC-ERM",), replications=1))
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
    from acir.bench import _replication_data

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
    ]
    paths = emit_outputs(rows, summarize(rows), str(tmp_path))
    assert paths[0].endswith("metrics.csv")
    back = read_metrics(paths[0])
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


def test_read_metrics_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("method,setting,replication\nSC-IRM,FOU,0\n")
    with pytest.raises(CsvParseError, match="header"):
        read_metrics(str(path))


def test_read_metrics_reports_line_numbers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "method,setting,replication,scope,coverage,avg_length\n"
        "SC-IRM,FOU,0,pooled,0.9,1.0\n"
        "SC-IRM,FOU,zero,pooled,0.9,1.0\n"
    )
    with pytest.raises(CsvParseError, match=":3:"):
        read_metrics(str(path))
    path.write_text(
        "method,setting,replication,scope,coverage,avg_length\n"
        "SC-IRM,FOU,0,pooled,0.9\n"
    )
    with pytest.raises(CsvParseError, match=":2:.*fields"):
        read_metrics(str(path))


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


def test_csv_mode_needs_a_training_environment(tmp_path):
    path = str(tmp_path / "data.csv")
    make_csv_fixture(path, n_train_env=0, n_test_env=3)
    cfg = ExperimentConfig(
        setting=f"csv:{path}", test_envs=(0, 1, 2), fit=FAST_FIT
    )
    with pytest.raises(ValueError, match="training environment"):
        run_experiment(cfg)
