"""End-to-end command-line flows, exit codes, and config-file merging."""

from pathlib import Path

import numpy as np
import pytest

from acir.cli import main
from acir.datagen import load_csv

FAST = ["--penalty-weight", "3", "--init-scale", "1.0"]


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("datagen", "sem", "--bogus", "1") == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli("fit", "--out", "model.txt") == 1
    err = capsys.readouterr().err
    assert "--data" in err


def test_bad_setting_is_usage_error(tmp_path):
    out = str(tmp_path / "d.csv")
    assert run_cli("datagen", "sem", "--setting", "WAT", "--n", "30", "--out", out) == 1


def test_missing_input_file_is_runtime_error(tmp_path, capsys):
    assert run_cli(
        "assess",
        "--model", str(tmp_path / "missing.txt"),
        "--data", str(tmp_path / "missing.csv"),
        "--out", str(tmp_path / "r.csv"),
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_summarize_requires_in_path():
    assert run_cli("bench", "summarize") == 1


# ---------------------------------------------------------------------------
# datagen


def test_datagen_allocates_remainder_to_leading_envs(tmp_path, capsys):
    out = str(tmp_path / "data.csv")
    assert run_cli("datagen", "sem", "--setting", "FOU", "--n", "31", "--out", out) == 0
    assert capsys.readouterr().out.strip() == out
    envs = load_csv(out)
    assert [env.n for env in envs] == [11, 10, 10]
    assert [env.env_id for env in envs] == [0, 1, 2]
    assert envs[0].p == 10


def test_datagen_is_deterministic(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    run_cli("datagen", "sem", "--setting", "PEU", "--n", "30", "--seed", "4", "--out", a)
    run_cli("datagen", "sem", "--setting", "PEU", "--n", "30", "--seed", "4", "--out", b)
    assert Path(a).read_text() == Path(b).read_text()


# ---------------------------------------------------------------------------
# datagen -> fit -> assess -> predict round trip


@pytest.fixture()
def workspace(tmp_path):
    data = str(tmp_path / "data.csv")
    assert run_cli(
        "datagen", "sem", "--setting", "FEU", "--n", "600", "--seed", "1",
        "--out", data,
    ) == 0
    return tmp_path, data


def test_full_pipeline_round_trip(workspace, capsys):
    tmp_path, data = workspace
    model = str(tmp_path / "model.txt")
    state = str(tmp_path / "state.txt")
    report = str(tmp_path / "report.csv")
    points = str(tmp_path / "points.csv")
    intervals = str(tmp_path / "intervals.csv")

    assert run_cli(
        "fit", "--data", data, "--out", model,
        "--calibration-out", state, "--train-fraction", "0.5",
        *FAST,
    ) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert out_lines == [model, state]

    assert run_cli("assess", "--model", model, "--data", data, "--out", report) == 0
    assess_out = capsys.readouterr().out
    assert "inv=" in assess_out
    assert Path(report).read_text().splitlines()[0] == "baseline_env,source_env,m_hat"

    header = ",".join(f"x{j}" for j in range(1, 11))
    rows = ["0.1," * 9 + "0.1", "1.5," * 9 + "-0.5"]
    with open(points, "w") as fh:
        fh.write(header + "\n" + "\n".join(rows) + "\n")

    assert run_cli(
        "predict", "--model", model, "--calibration", state,
        "--input", points, "--method", "acir", "--out", intervals,
    ) == 0
    capsys.readouterr()
    lines = Path(intervals).read_text().splitlines()
    assert lines[0] == "center,lower,upper"
    assert len(lines) == 3
    for ln in lines[1:]:
        center, lower, upper = map(float, ln.split(","))
        assert lower <= center <= upper


def test_predict_sc_constant_width_to_stdout(workspace, capsys):
    tmp_path, data = workspace
    model = str(tmp_path / "model.txt")
    state = str(tmp_path / "state.txt")
    points = str(tmp_path / "points.csv")
    run_cli("fit", "--data", data, "--out", model, "--calibration-out", state, *FAST)
    header = ",".join(f"x{j}" for j in range(1, 11))
    with open(points, "w") as fh:
        fh.write(header + "\n")
        for i in range(4):
            fh.write(",".join(str(0.3 * (i - 2)) for _ in range(10)) + "\n")
    capsys.readouterr()
    assert run_cli(
        "predict", "--model", model, "--calibration", state,
        "--input", points, "--method", "sc",
    ) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "center,lower,upper"
    widths = set()
    for ln in out[1:]:
        center, lower, upper = map(float, ln.split(","))
        widths.add(round(upper - lower, 12))
    assert len(widths) == 1


def test_predict_rejects_wrong_points_header(workspace, tmp_path, capsys):
    _, data = workspace
    model = str(tmp_path / "model.txt")
    state = str(tmp_path / "state.txt")
    run_cli("fit", "--data", data, "--out", model, "--calibration-out", state, *FAST)
    points = str(tmp_path / "bad.csv")
    with open(points, "w") as fh:
        fh.write("a,b\n1,2\n")
    capsys.readouterr()
    assert run_cli(
        "predict", "--model", model, "--calibration", state, "--input", points
    ) == 2


def test_predict_rejects_non_finite_point_with_line_number(workspace, tmp_path, capsys):
    _, data = workspace
    model = str(tmp_path / "model.txt")
    state = str(tmp_path / "state.txt")
    run_cli("fit", "--data", data, "--out", model, "--calibration-out", state, *FAST)
    points = tmp_path / "points.csv"
    header = ",".join(f"x{j}" for j in range(1, 11))
    for cell in ("nan", "inf", "1e400"):
        points.write_text(f"{header}\n" + "0," * 9 + "0\n" + "0," * 9 + f"{cell}\n")
        capsys.readouterr()
        assert run_cli(
            "predict", "--model", model, "--calibration", state, "--input", str(points)
        ) == 2
        err = capsys.readouterr().err
        assert f"{points}: line 3: non-finite cell" in err


def test_predict_rejects_nan_calibration_state(workspace, tmp_path, capsys):
    _, data = workspace
    model = str(tmp_path / "model.txt")
    state = tmp_path / "state.txt"
    run_cli("fit", "--data", data, "--out", model, "--calibration-out", str(state), *FAST)
    lines = state.read_text().splitlines()
    lines[1] = "nan"
    state.write_text("\n".join(lines) + "\n")
    points = tmp_path / "points.csv"
    points.write_text(",".join(f"x{j}" for j in range(1, 11)) + "\n" + "0," * 9 + "0\n")
    capsys.readouterr()
    assert run_cli(
        "predict", "--model", model, "--calibration", str(state), "--input", str(points)
    ) == 2
    err = capsys.readouterr().err
    assert str(state) in err and "finite" in err  # rejected at load, naming the file


# ---------------------------------------------------------------------------
# bench commands


def test_bench_run_and_summarize_rewrite_identically(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert run_cli(
        "bench", "run", "--setting", "FOU", "--reps", "2",
        "--n-train", "90", "--n-cal", "90", "--n-test", "60",
        "--methods", "sc-irm,ac-irm", "--out", out_dir, *FAST,
    ) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert [p.rsplit("/", 1)[-1] for p in printed] == [
        "metrics.csv", "summary.csv", "boxplot_data.csv"
    ]
    metrics = tmp_path / "out" / "metrics.csv"
    before = metrics.read_bytes()
    summary_before = (tmp_path / "out" / "summary.csv").read_bytes()
    assert run_cli("bench", "summarize", "--in", str(metrics)) == 0
    assert metrics.read_bytes() == before
    assert (tmp_path / "out" / "summary.csv").read_bytes() == summary_before


def test_bench_run_methods_subset(tmp_path):
    out_dir = str(tmp_path / "out")
    run_cli(
        "bench", "run", "--setting", "FOU", "--reps", "1",
        "--n-train", "90", "--n-cal", "90", "--n-test", "60",
        "--methods", "sc-erm", "--out", out_dir, *FAST,
    )
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert all(ln.startswith("SC-ERM,") for ln in lines[1:])
    assert len(lines) == 1 + 4  # pooled + three env scopes


# ---------------------------------------------------------------------------
# config files


def test_config_file_fills_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    out = str(tmp_path / "d.csv")
    cfg.write_text("setting = POU\nn = 30\nseed = 5\n")
    assert run_cli("datagen", "sem", "--config", str(cfg), "--out", out) == 0
    capsys.readouterr()
    assert [e.n for e in load_csv(out)] == [10, 10, 10]


def test_explicit_flag_overrides_config_value(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("setting = FOU\nn = 30\n")
    out = str(tmp_path / "d.csv")
    assert run_cli(
        "datagen", "sem", "--config", str(cfg), "--n", "60", "--out", out
    ) == 0
    assert [e.n for e in load_csv(out)] == [20, 20, 20]


def test_config_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("settting = FOU\n")
    out = str(tmp_path / "d.csv")
    assert run_cli("datagen", "sem", "--config", str(cfg), "--n", "30", "--out", out) == 1
    assert "settting" in capsys.readouterr().err


def test_config_boolean_and_comment_handling(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "setting = FOU\n"
        "reps = 2\n"
        "resplit-only = true\n"
        "n-train = 90\nn-cal = 90\nn-test = 60\n"
        "methods = sc-irm\n"
        "penalty-weight = 3\ninit-scale = 1.0\n"
    )
    out_dir = str(tmp_path / "out")
    assert run_cli("bench", "run", "--config", str(cfg), "--out", out_dir) == 0
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    # resplit-only freezes the draw: both replications share the test data,
    # so SC rows depend only on the moving train/calibration split
    assert len(lines) == 1 + 2 * 4


def test_config_bad_boolean_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("setting = FOU\nresplit-only = maybe\n")
    assert run_cli("bench", "run", "--config", str(cfg)) == 1
    assert "boolean" in capsys.readouterr().err
