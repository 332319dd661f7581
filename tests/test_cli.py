"""End-to-end command-line flows, exit codes, and config files."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acir
from acir import cli
from acir.cli import build_parser, main
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


# Every input path named below is missing: exit 1, not 2, shows that the
# value was rejected before any file was opened.
@pytest.mark.parametrize("argv, message", [
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt", "--penalty-weight", "-3"],
     "penalty_weight must be >= 0"),
    (["bench", "run", "--setting", "csv:{d}/missing.csv", "--penalty-weight", "-3",
      "--out", "{d}"], "penalty_weight must be >= 0"),
    (["bench", "run", "--setting", "FOU", "--alpha", "1.5", "--out", "{d}"],
     "alpha must be in (0, 1), got 1.5"),
    (["predict", "--model", "{d}/missing.txt", "--calibration", "{d}/missing.state",
      "--input", "{d}/missing.csv", "--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    (["predict", "--model", "{d}/missing.txt", "--calibration", "{d}/missing.state",
      "--input", "{d}/missing.csv", "--alpha", "0"], "alpha must be in (0, 1), got 0.0"),
    (["predict", "--model", "{d}/missing.txt", "--calibration", "{d}/missing.state",
      "--input", "{d}/missing.csv", "--alpha", "nan"], "alpha must be in (0, 1), got nan"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt", "--tolerance", "nan"],
     "learning_rate and tolerance must be positive and finite"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt", "--learning-rate", "nan"],
     "learning_rate and tolerance must be positive and finite"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt", "--penalty-weight", "nan"],
     "penalty_weight must be >= 0 and finite, got nan"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt", "--penalty-weight", "inf"],
     "penalty_weight must be >= 0 and finite, got inf"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt", "--init-scale", "nan"],
     "init_scale must be positive and finite"),
    (["bench", "run", "--setting", "csv:{d}/missing.csv", "--tolerance", "inf",
      "--out", "{d}"], "learning_rate and tolerance must be positive and finite"),
    (["bench", "run", "--setting", "csv:{d}/missing.csv", "--test-envs", "1,1",
      "--out", "{d}"], "test_envs names environments [1] more than once"),
])
def test_bad_values_are_usage_errors_before_any_file_is_read(tmp_path, capsys, argv, message):
    assert run_cli(*(arg.format(d=tmp_path) for arg in argv)) == 1
    err = capsys.readouterr().err
    assert message in err and "No such file" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("value", ["1.5", "0", "nan"])
@pytest.mark.parametrize("argv, key", [
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt",
      "--calibration-out", "{d}/state.txt"], "train-fraction"),
    (["bench", "run", "--setting", "csv:{d}/missing.csv", "--test-envs", "0", "--out", "{d}"],
     "csv-train-fraction"),
], ids=["fit", "bench-run"])
def test_a_train_fraction_outside_the_unit_interval_is_a_usage_error(
    tmp_path, capsys, argv, key, value, as_config
):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    argv = [arg.format(d=run_dir) for arg in argv]
    if as_config:
        config = tmp_path / "fraction.cfg"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    else:
        argv += [f"--{key}", value]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert f"train fraction must be in (0, 1), got {float(value)}" in err
    assert "No such file" not in err
    assert os.listdir(run_dir) == []


@pytest.mark.parametrize("as_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("argv, key", [
    (["datagen", "sem", "--setting", "FOU", "--n", "30", "--out", "{d}/d.csv"], "seed"),
    (["datagen", "sem", "--setting", "FOU", "--n", "30", "--out", "{d}/d.csv"], "stream-seed"),
    (["bench", "run", "--setting", "csv:{d}/missing.csv", "--test-envs", "0", "--out", "{d}"],
     "seed"),
    (["bench", "run", "--setting", "csv:{d}/missing.csv", "--test-envs", "0", "--out", "{d}"],
     "fit-seed"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt"], "split-seed"),
    (["fit", "--data", "{d}/missing.csv", "--out", "{d}/model.txt"], "fit-seed"),
], ids=["datagen-seed", "datagen-stream-seed", "bench-run-seed", "bench-run-fit-seed",
        "fit-split-seed", "fit-fit-seed"])
def test_a_negative_seed_is_a_usage_error_naming_its_flag(tmp_path, capsys, argv, key, as_config):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    argv = [arg.format(d=run_dir) for arg in argv]
    if as_config:
        config = tmp_path / "seed.cfg"
        config.write_text(f"{key} = -1\n")
        argv += ["--config", str(config)]
    else:
        argv += [f"--{key}", "-1"]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert f"argument --{key}: seeds must be >= 0, got -1" in err
    assert os.listdir(run_dir) == []


def test_an_empty_method_list_is_a_usage_error_before_any_work(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    assert run_cli("bench", "run", "--setting", "FOU", "--reps", "1", "--methods", "",
                   "--out", str(run_dir)) == 1
    assert "need at least one method" in capsys.readouterr().err
    assert os.listdir(run_dir) == []


def test_bad_alpha_in_a_config_file_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "predict.cfg"
    config.write_text("alpha = 1.5\n")
    assert run_cli("predict", "--config", str(config), "--model", "m", "--calibration", "s",
                   "--input", "x") == 1
    assert "alpha must be in (0, 1)" in capsys.readouterr().err


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


@pytest.mark.parametrize("env_params, message", [("", "at least one"), ("1,1", "distinct")])
def test_datagen_rejects_empty_or_duplicate_env_params(tmp_path, capsys, env_params, message):
    out = tmp_path / "d.csv"
    assert run_cli("datagen", "sem", "--setting", "FOU", "--n", "30",
                   "--env-params", env_params, "--out", str(out)) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_bench_run_prints_the_files_it_wrote(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert run_cli(
        "bench", "run", "--setting", "FOU", "--reps", "2",
        "--n-train", "90", "--n-cal", "90", "--n-test", "60",
        "--methods", "sc-irm,ac-irm", "--out", out_dir, *FAST,
    ) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [os.path.join(out_dir, name)
                       for name in ("metrics.csv", "summary.csv", "boxplot_data.csv")]
    assert all(os.path.isfile(path) for path in printed)


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


def test_config_line_without_equals_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("setting = FOU\nn 30\n")
    assert run_cli("datagen", "sem", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 1
    assert f"{cfg}: line 2: expected 'key = value'" in capsys.readouterr().err


def test_config_key_of_another_command_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    out = tmp_path / "d.csv"
    cfg.write_text("setting = FOU\nn = 30\ncalibration-out = x.txt\nmethods = SC-IRM\n")
    assert run_cli("datagen", "sem", "--config", str(cfg), "--out", str(out)) == 1
    assert f"{cfg}: line 3: 'calibration-out'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["fit", "--data", "d.csv", "--out", "m.txt"],
                                     ["predict", "--model", "m", "--calibration", "s",
                                      "--input", "p"]])
def test_config_bad_choice_is_usage_error(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("method = bogus\n")
    assert run_cli(*command, "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert "--method" in err and "'bogus'" in err


@pytest.mark.parametrize("key", ["input_path", "replications", "config"])
def test_config_keys_are_flag_names_not_dests(tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = x\n")
    argv = ["bench", "run"] if key == "replications" else ["predict"]
    assert run_cli(*argv, "--config", str(cfg)) == 1
    assert f"{key!r} is not a config key" in capsys.readouterr().err


def test_config_input_key_names_the_points_file(workspace, tmp_path, capsys):
    _, data = workspace
    model, state = str(tmp_path / "model.txt"), str(tmp_path / "state.txt")
    run_cli("fit", "--data", data, "--out", model, "--calibration-out", state, *FAST)
    points = tmp_path / "points.csv"
    points.write_text(",".join(f"x{j}" for j in range(1, 11)) + "\n" + "0," * 9 + "0\n")
    cfg = tmp_path / "predict.cfg"
    cfg.write_text(f"model = {model}\ncalibration = {state}\ninput = {points}\nmethod = sc\n")
    capsys.readouterr()
    assert run_cli("predict", "--config", str(cfg)) == 0
    from_config = capsys.readouterr().out
    assert run_cli(
        "predict", "--model", model, "--calibration", state, "--input", str(points),
        "--method", "sc",
    ) == 0
    assert from_config == capsys.readouterr().out


# A value for every flag, different from its default; --method takes a non-default choice.
SAMPLE_VALUES = {
    "--setting": "POU", "--alpha": "0.1", "--reps": "2", "--seed": "3",
    "--methods": "sc-irm,ac-erm", "--n-train": "90", "--n-cal": "91", "--n-test": "92",
    "--env-params": "0.5,1,2", "--resplit-only": "true", "--test-envs": "1,2",
    "--csv-train-fraction": "0.4", "--out": "o", "--penalty-weight": "-3",
    "--learning-rate": "0.01", "--max-iters": "7", "--tolerance": "1e-5",
    "--warmup-iters": "4", "--init-scale": "1.5", "--repr-dim": "3", "--fit-seed": "9",
    "--n": "30", "--stream-seed": "4", "--data": "d.csv",
    "--calibration-out": "s.txt", "--train-fraction": "0.3", "--split-seed": "5",
    "--model": "m.txt", "--calibration": "s.txt", "--input": "p.csv",
}


def _flag_cases():
    _, leaves = build_parser()
    for words, parser in leaves.items():
        for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
            for flag in action.option_strings:
                if flag not in ("-h", "--help", "--config"):
                    yield pytest.param(words, action, flag, id=" ".join(words) + " " + flag)


@pytest.mark.parametrize("words, action, flag", list(_flag_cases()))
def test_every_flag_can_be_a_config_key(tmp_path, monkeypatch, words, action, flag):
    seen = []
    monkeypatch.setattr(cli, "_cmd_" + "_".join(words), lambda args: seen.append(args) or 0)
    if action.choices:
        value = next(c for c in action.choices if c != action.default)
    else:
        value = SAMPLE_VALUES[flag]
    _, leaves = build_parser()
    required = [
        [opt, SAMPLE_VALUES[opt]]
        for act in leaves[words]._actions  # noqa: SLF001
        if act.required and act is not action
        for opt in act.option_strings
    ]
    base = [*words, *(tok for pair in required for tok in pair)]
    assert main([*base, f"{flag}={value}"]) == 0
    for key in (flag[2:], flag[2:].replace("-", "_")):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main([*base, "--config", str(cfg)]) == 0
    explicit, *from_config = (vars(args) for args in seen)
    assert explicit.pop("config") is None and explicit[action.dest] != action.default
    for got in from_config:
        assert got.pop("config") == str(cfg)
        assert got == explicit


def test_python_m_acir_reads_config(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("setting = POU\nn = 30\nseed = 5\n")
    out = tmp_path / "d.csv"
    src = str(Path(acir.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "acir", "datagen", "sem", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{out}\n", "")
    expected = tmp_path / "e.csv"
    assert run_cli("datagen", "sem", "--setting", "POU", "--n", "30", "--seed", "5",
                   "--out", str(expected)) == 0
    assert out.read_bytes() == expected.read_bytes()


def _readme_commands():
    """Each ``acir ...`` command of README's sh blocks, continuation lines joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("acir ")]


def test_readme_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    parser, _ = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except cli._UsageError as exc:  # noqa: SLF001 - the parser's error type
            pytest.fail(f"acir {shlex.join(argv)}: {exc}")
