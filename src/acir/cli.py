"""Command-line interface.

Subcommands: ``bench run`` / ``bench summarize`` for the experiment pipeline,
``datagen sem`` for writing synthetic benchmark data, ``fit`` to train a
model (and optionally calibrate it) from a CSV, ``assess`` for the
invariance report, and ``predict`` for interval construction at new points.

Every leaf command accepts ``--config FILE`` holding ``key = value`` lines
that mirror the command's flags; explicit flags override file values.
Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .bench import (
    METHODS,
    BenchError,
    ExperimentConfig,
    emit_outputs,
    read_metrics,
    run_experiment,
    summarize,
)
from .conformal import calibrate, load_state, save_state
from .datagen import SETTINGS, CsvParseError, SemConfig, generate_sem, load_csv, save_csv, split_dataset
from .invariance import fit_density, inv_statistic, write_report
from .models import FitConfig, FitError, fit_erm, fit_irmv1, load_model, save_model

__all__ = ["main", "console_main"]


class _UsageError(Exception):
    """Bad flags or config values; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fit options")
    group.add_argument("--penalty-weight", type=float, default=None)
    group.add_argument("--learning-rate", type=float, default=None)
    group.add_argument("--max-iters", type=int, default=None)
    group.add_argument("--tolerance", type=float, default=None)
    group.add_argument("--warmup-iters", type=int, default=None)
    group.add_argument("--init-scale", type=float, default=None)
    group.add_argument("--repr-dim", type=int, default=None)
    group.add_argument("--fit-seed", type=int, default=None)


def _fit_config(args: argparse.Namespace) -> FitConfig:
    overrides = {
        "penalty_weight": args.penalty_weight,
        "learning_rate": args.learning_rate,
        "max_iters": args.max_iters,
        "tolerance": args.tolerance,
        "warmup_iters": args.warmup_iters,
        "init_scale": args.init_scale,
        "repr_dim": args.repr_dim,
        "seed": args.fit_seed,
    }
    kept = {k: v for k, v in overrides.items() if v is not None}
    return FitConfig(**kept)


def _comma_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")


def _comma_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _comma_methods(text: str) -> tuple[str, ...]:
    return tuple(tok.strip().upper() for tok in text.split(",") if tok.strip() != "")


def build_parser() -> _Parser:
    parser = _Parser(prog="acir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="experiment pipeline")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run_p = bench_sub.add_parser("run", help="run replications and write metric files")
    run_p.add_argument("--config", default=None)
    run_p.add_argument("--setting", default=None,
                       help=f"one of {'/'.join(SETTINGS)} or csv:<path>")
    run_p.add_argument("--alpha", type=float, default=None)
    run_p.add_argument("--reps", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--methods", type=_comma_methods, default=None,
                       help=f"comma list from {','.join(METHODS)}")
    run_p.add_argument("--n-train", type=int, default=None)
    run_p.add_argument("--n-cal", type=int, default=None)
    run_p.add_argument("--n-test", type=int, default=None)
    run_p.add_argument("--env-params", type=_comma_floats, default=None)
    run_p.add_argument("--resplit-only", action="store_true", default=None)
    run_p.add_argument("--test-envs", type=_comma_ints, default=None,
                       help="CSV mode: env ids held out for evaluation")
    run_p.add_argument("--csv-train-fraction", type=float, default=None)
    run_p.add_argument("--out", default=None, help="output directory (default .)")
    _add_fit_flags(run_p)

    sum_p = bench_sub.add_parser("summarize", help="recompute summaries from metrics.csv")
    sum_p.add_argument("--config", default=None)
    sum_p.add_argument("--in", dest="in_path", default=None, required=False)
    sum_p.add_argument("--out", default=None, help="output directory (default: alongside input)")

    datagen = sub.add_parser("datagen", help="synthetic data")
    datagen_sub = datagen.add_subparsers(dest="datagen_command", required=True)
    sem_p = datagen_sub.add_parser("sem", help="draw one dataset and write it as CSV")
    sem_p.add_argument("--config", default=None)
    sem_p.add_argument("--setting", default=None)
    sem_p.add_argument("--n", type=int, default=None, help="total rows across environments")
    sem_p.add_argument("--seed", type=int, default=None)
    sem_p.add_argument("--stream-seed", type=int, default=None)
    sem_p.add_argument("--env-params", type=_comma_floats, default=None)
    sem_p.add_argument("--out", default=None, required=False)

    fit_p = sub.add_parser("fit", help="train a model from CSV data")
    fit_p.add_argument("--config", default=None)
    fit_p.add_argument("--data", default=None)
    fit_p.add_argument("--out", default=None, help="model file to write")
    fit_p.add_argument("--method", choices=["irm", "erm"], default=None)
    fit_p.add_argument("--calibration-out", default=None,
                       help="also split, calibrate, and write this state file")
    fit_p.add_argument("--train-fraction", type=float, default=None)
    fit_p.add_argument("--split-seed", type=int, default=None)
    _add_fit_flags(fit_p)

    assess_p = sub.add_parser("assess", help="invariance report for a fitted model")
    assess_p.add_argument("--config", default=None)
    assess_p.add_argument("--model", default=None)
    assess_p.add_argument("--data", default=None)
    assess_p.add_argument("--out", default=None)

    pred_p = sub.add_parser("predict", help="prediction intervals at new points")
    pred_p.add_argument("--config", default=None)
    pred_p.add_argument("--model", default=None)
    pred_p.add_argument("--calibration", default=None)
    pred_p.add_argument("--alpha", type=float, default=None)
    pred_p.add_argument("--input", dest="input_path", default=None)
    pred_p.add_argument("--method", choices=["sc", "acir"], default=None)
    pred_p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    return values


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _merge_config(args: argparse.Namespace, parser_actions: dict[str, argparse.Action]) -> None:
    """Fill argument values from the --config file where flags were absent."""
    if getattr(args, "config", None) is None:
        return
    for key, raw in _load_config_file(args.config).items():
        if key == "config":
            continue
        if key not in parser_actions and not hasattr(args, key):
            raise _UsageError(f"config key {key!r} does not match any flag")
        if getattr(args, key, None) is not None:
            continue  # explicit flag wins
        action = parser_actions.get(key)
        if action is not None and isinstance(action.const, bool):
            lowered = raw.lower()
            if lowered not in _BOOL_VALUES:
                raise _UsageError(f"config key {key!r} expects a boolean, got {raw!r}")
            setattr(args, key, _BOOL_VALUES[lowered])
        elif action is not None and action.type is not None:
            try:
                setattr(args, key, action.type(raw))
            except ValueError as exc:
                raise _UsageError(f"config key {key!r}: {exc}") from exc
        else:
            setattr(args, key, raw)


def _require(args: argparse.Namespace, **named: str) -> list:
    out = []
    for attr, flag in named.items():
        value = getattr(args, attr)
        if value is None:
            raise _UsageError(f"missing required {flag} (flag or config key)")
        out.append(value)
    return out


def _cmd_bench_run(args: argparse.Namespace) -> int:
    (setting,) = _require(args, setting="--setting")
    kwargs = {"setting": setting, "fit": _fit_config(args)}
    for attr, field in [
        ("alpha", "alpha"), ("reps", "replications"), ("seed", "seed"),
        ("methods", "methods"), ("n_train", "n_train_total"),
        ("n_cal", "n_cal_total"), ("n_test", "n_test_total"),
        ("env_params", "env_params"), ("resplit_only", "resplit_only"),
        ("test_envs", "test_envs"), ("csv_train_fraction", "csv_train_fraction"),
    ]:
        value = getattr(args, attr)
        if value is not None:
            kwargs[field] = value
    try:
        config = ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    rows = run_experiment(config)
    paths = emit_outputs(rows, summarize(rows), args.out or ".")
    for path in paths:
        print(path)
    return 0


def _cmd_bench_summarize(args: argparse.Namespace) -> int:
    (in_path,) = _require(args, in_path="--in")
    rows = read_metrics(in_path)
    if not rows:
        raise _UsageError(f"{in_path} holds no metric rows")
    out_dir = args.out or os.path.dirname(in_path) or "."
    paths = emit_outputs(rows, summarize(rows), out_dir)
    for path in paths:
        print(path)
    return 0


def _cmd_datagen_sem(args: argparse.Namespace) -> int:
    setting, n, out = _require(args, setting="--setting", n="--n", out="--out")
    seed = args.seed if args.seed is not None else 0
    stream_seed = args.stream_seed if args.stream_seed is not None else 0
    env_params = args.env_params if args.env_params is not None else (0.2, 2.0, 5.0)
    try:
        sem = SemConfig(setting=setting, env_params=env_params, seed=seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if n < len(env_params):
        raise _UsageError(f"--n must be >= number of environments ({len(env_params)})")
    base, rem = divmod(n, len(env_params))
    envs = [
        generate_sem(sem, e, base + (1 if i < rem else 0), stream_seed=stream_seed)
        for i, e in enumerate(env_params)
    ]
    save_csv(envs, out)
    print(out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    data_path, out = _require(args, data="--data", out="--out")
    method = args.method or "irm"
    envs = load_csv(data_path)
    config = _fit_config(args)
    if args.calibration_out is not None:
        fraction = args.train_fraction if args.train_fraction is not None else 0.5
        split_seed = args.split_seed if args.split_seed is not None else 0
        splits = [split_dataset(env, fraction, seed=split_seed) for env in envs]
        train = [sp.train for sp in splits]
        cal = [sp.calibration for sp in splits]
    else:
        train, cal = envs, None
    model = fit_erm(train, config) if method == "erm" else fit_irmv1(train, config)
    save_model(model, out)
    written = [out]
    if cal is not None:
        save_state(calibrate(model, cal), args.calibration_out)
        written.append(args.calibration_out)
    for path in written:
        print(path)
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    model_path, data_path, out = _require(
        args, model="--model", data="--data", out="--out"
    )
    model = load_model(model_path)
    envs = load_csv(data_path)
    report = inv_statistic(model, fit_density(envs), envs)
    write_report(report, out)
    print(f"{out} inv={report.inv!r}")
    return 0


def _read_points(path: str, p: int) -> np.ndarray:
    expected = [f"x{j}" for j in range(1, p + 1)]
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise CsvParseError(f"{path}: expected header {','.join(expected)}")
        rows = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != p:
                raise CsvParseError(f"{path}:{lineno}: expected {p} fields")
            try:
                rows.append([float(tok) for tok in rec])
            except ValueError as exc:
                raise CsvParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _cmd_predict(args: argparse.Namespace) -> int:
    model_path, cal_path, input_path = _require(
        args, model="--model", calibration="--calibration", input_path="--input"
    )
    alpha = args.alpha if args.alpha is not None else 0.05
    method = args.method or "acir"
    model = load_model(model_path)
    state = load_state(cal_path, model)
    points = _read_points(input_path, model.p)
    if method == "sc":
        intervals = state.sc_intervals(points, alpha)
    else:
        intervals = state.acir_intervals(points, alpha)
    lines = ["center,lower,upper"]
    # tolist() gives Python floats; the repr of a numpy float reads np.float64(...).
    rows = zip(intervals.center.tolist(), intervals.lower.tolist(), intervals.upper.tolist())
    lines += [f"{c!r},{lo!r},{hi!r}" for c, lo, hi in rows]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(args.out)
    return 0


def _collect_actions(parser: argparse.ArgumentParser, into: dict) -> dict:
    for action in parser._actions:  # noqa: SLF001 - argparse has no public walk
        if isinstance(action, argparse._SubParsersAction):  # noqa: SLF001
            for child in action.choices.values():
                _collect_actions(child, into)
        else:
            into.setdefault(action.dest, action)
    return into


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args, _collect_actions(parser, {}))
        if args.command == "bench":
            if args.bench_command == "run":
                return _cmd_bench_run(args)
            return _cmd_bench_summarize(args)
        if args.command == "datagen":
            return _cmd_datagen_sem(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "assess":
            return _cmd_assess(args)
        return _cmd_predict(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BenchError, FitError, CsvParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
