"""Command-line interface.

Subcommands: ``bench run`` / ``bench summarize`` for the experiment pipeline,
``datagen sem`` for writing synthetic benchmark data, ``fit`` to train a
model (and optionally calibrate it) from a CSV, ``assess`` for the
invariance report, and ``predict`` for interval construction at new points.

Every leaf command accepts ``--config FILE`` holding ``key = value`` lines,
each key a flag of that command; explicit flags override file values.
Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Callable, TextIO

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
from .core import check_alpha, check_train_fraction, write_float_rows
from .datagen import (
    DEFAULT_ENV_PARAMS,
    SETTINGS,
    CsvParseError,
    SemConfig,
    env_sizes,
    generate_sem,
    load_csv,
    load_points,
    save_csv,
    split_dataset,
)
from .invariance import fit_density, inv_statistic, write_report
from .models import FitConfig, FitError, fit_erm, fit_irmv1, load_model, save_model

__all__ = ["main", "console_main"]


class _UsageError(Exception):
    """Bad flags or config values; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


@contextmanager
def _usage_errors():
    """Report a ValueError raised while checking flag values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


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


def _from_flags(cls: type, args: argparse.Namespace, **named):
    """``cls`` from ``named`` and the flags named like its fields; None keeps a default."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)} | named
    return cls(**{k: v for k, v in given.items() if v is not None})


def _fit_config(args: argparse.Namespace) -> FitConfig:
    # the flag is --fit-seed because the --seed of bench run seeds data and splits
    return _from_flags(FitConfig, args, seed=args.fit_seed)


def _comma_list(convert: Callable[[str], object]) -> Callable[[str], tuple]:
    """An argparse type: ``convert`` of each non-blank comma-separated token."""

    def parse(text: str) -> tuple:
        return tuple(convert(tok) for tok in text.split(",") if tok.strip() != "")

    parse.__name__ = f"{convert.__name__} list"  # argparse names the type in its errors
    return parse


def _checked_float(check: Callable[[float], float]) -> Callable[[str], float]:
    """An argparse type: the float passed through ``check``, whose ValueError is a usage error."""

    def convert(text: str) -> float:
        try:
            return check(float(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOL_VALUES:
        raise argparse.ArgumentTypeError(f"expected a boolean (true/false), got {text!r}")
    return _BOOL_VALUES[text.lower()]


# --config is read before the command line is parsed (see _splice_config), so
# this parser both defines the flag on every leaf command and finds its value.
_CONFIG_FLAG = _Parser(add_help=False)
_CONFIG_FLAG.add_argument("--config", default=None,
                          help="file of 'key = value' lines, keys named like this command's flags")


def build_parser() -> tuple[_Parser, dict[tuple[str, ...], _Parser]]:
    """The acir parser and, by command words, the parser of each leaf command."""
    parser = _Parser(prog="acir", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    leaves: dict[tuple[str, ...], _Parser] = {}

    def leaf(subparsers, *words: str, summary: str) -> _Parser:
        child = subparsers.add_parser(words[-1], help=summary, parents=[_CONFIG_FLAG])
        child.set_defaults(handler="_cmd_" + "_".join(words))
        leaves[words] = child
        return child

    bench = sub.add_parser("bench", help="experiment pipeline")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    run_p = leaf(bench_sub, "bench", "run", summary="run replications and write metric files")
    run_p.add_argument("--setting", required=True,
                       help=f"one of {'/'.join(SETTINGS)} or csv:<path>")
    run_p.add_argument("--alpha", type=_checked_float(check_alpha), default=None)
    run_p.add_argument("--reps", dest="replications", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--methods", type=_comma_list(str.strip), default=None,
                       help=f"comma list from {','.join(METHODS)}")
    run_p.add_argument("--n-train", dest="n_train_total", type=int, default=None)
    run_p.add_argument("--n-cal", dest="n_cal_total", type=int, default=None)
    run_p.add_argument("--n-test", dest="n_test_total", type=int, default=None)
    run_p.add_argument("--env-params", type=_comma_list(float), default=None)
    run_p.add_argument("--resplit-only", type=_boolean, nargs="?", const=True, default=None)
    run_p.add_argument("--test-envs", type=_comma_list(int), default=None,
                       help="CSV mode: env ids held out for evaluation")
    run_p.add_argument("--csv-train-fraction", type=_checked_float(check_train_fraction),
                       default=None)
    run_p.add_argument("--out", default=".", help="output directory (default .)")
    _add_fit_flags(run_p)

    sum_p = leaf(bench_sub, "bench", "summarize", summary="recompute summaries from metrics.csv")
    sum_p.add_argument("--in", dest="in_path", required=True)
    sum_p.add_argument("--out", default=None, help="output directory (default: alongside input)")

    datagen = sub.add_parser("datagen", help="synthetic data")
    datagen_sub = datagen.add_subparsers(dest="datagen_command", required=True)
    sem_p = leaf(datagen_sub, "datagen", "sem", summary="draw one dataset and write it as CSV")
    sem_p.add_argument("--setting", required=True)
    sem_p.add_argument("--n", type=int, required=True, help="total rows across environments")
    sem_p.add_argument("--seed", type=int, default=0)
    sem_p.add_argument("--stream-seed", type=int, default=0)
    sem_p.add_argument("--env-params", type=_comma_list(float), default=DEFAULT_ENV_PARAMS)
    sem_p.add_argument("--out", required=True)

    fit_p = leaf(sub, "fit", summary="train a model from CSV data")
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--out", required=True, help="model file to write")
    fit_p.add_argument("--method", choices=["irm", "erm"], default="irm")
    fit_p.add_argument("--calibration-out", default=None,
                       help="also split, calibrate, and write this state file")
    fit_p.add_argument("--train-fraction", type=_checked_float(check_train_fraction),
                       default=0.5)
    fit_p.add_argument("--split-seed", type=int, default=0)
    _add_fit_flags(fit_p)

    assess_p = leaf(sub, "assess", summary="invariance report for a fitted model")
    assess_p.add_argument("--model", required=True)
    assess_p.add_argument("--data", required=True)
    assess_p.add_argument("--out", required=True)

    pred_p = leaf(sub, "predict", summary="prediction intervals at new points")
    pred_p.add_argument("--model", required=True)
    pred_p.add_argument("--calibration", required=True)
    pred_p.add_argument("--alpha", type=_checked_float(check_alpha), default=0.05)
    pred_p.add_argument("--input", required=True)
    pred_p.add_argument("--method", choices=["sc", "acir"], default="acir")
    pred_p.add_argument("--out", default=None, help="output CSV (default: stdout)")

    return parser, leaves


def _splice_config(argv: list[str], leaves: dict[tuple[str, ...], _Parser]) -> list[str]:
    """argv with each ``key = value`` line of the --config file as a ``--key=value`` token.

    The tokens go right after the command words, so argparse checks them
    like typed flags (types, choices, required), and an explicit flag, which
    comes later, wins. Keys name flags with dashes or underscores; a key
    must be a flag of this command, checked here because argparse would
    report a missing required flag before an unknown one.
    """
    for n in (2, 1):
        words = tuple(argv[:n])
        if words in leaves:
            break
    else:
        return argv  # no command: argparse reports it
    path = _CONFIG_FLAG.parse_known_args(argv[n:])[0].config
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from exc
    flags = leaves[words]._option_string_actions  # noqa: SLF001 - no public lookup
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = map(str.strip, line.partition("="))
        flag = "--" + key.replace("_", "-")
        if not eq:
            raise _UsageError(f"{path}: line {lineno}: expected 'key = value'")
        if flag not in flags or flag == "--config":
            raise _UsageError(
                f"{path}: line {lineno}: {key!r} is not a config key of 'acir {' '.join(words)}'"
            )
        tokens.append(f"{flag}={value}")
    return argv[:n] + tokens + argv[n:]


def _cmd_bench_run(args: argparse.Namespace) -> int:
    with _usage_errors():
        config = _from_flags(ExperimentConfig, args, fit=_fit_config(args))
    rows = run_experiment(config)
    paths = emit_outputs(rows, summarize(rows), args.out)
    for path in paths:
        print(path)
    return 0


def _cmd_bench_summarize(args: argparse.Namespace) -> int:
    rows = read_metrics(args.in_path)
    if not rows:
        raise _UsageError(f"{args.in_path} holds no metric rows")
    out_dir = args.out or os.path.dirname(args.in_path) or "."
    paths = emit_outputs(rows, summarize(rows), out_dir)
    for path in paths:
        print(path)
    return 0


def _cmd_datagen_sem(args: argparse.Namespace) -> int:
    with _usage_errors():
        sem = SemConfig(setting=args.setting, env_params=args.env_params, seed=args.seed)
        sizes = env_sizes(args.n, len(sem.env_params))
    envs = [
        generate_sem(sem, e, size, stream_seed=args.stream_seed)
        for e, size in zip(sem.env_params, sizes)
    ]
    save_csv(envs, args.out)
    print(args.out)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    with _usage_errors():
        config = _fit_config(args)
    envs = load_csv(args.data)
    if args.calibration_out is not None:
        splits = [split_dataset(env, args.train_fraction, seed=args.split_seed) for env in envs]
        train = [sp.train for sp in splits]
        cal = [sp.calibration for sp in splits]
    else:
        train, cal = envs, None
    model = fit_erm(train, config) if args.method == "erm" else fit_irmv1(train, config)
    save_model(model, args.out)
    written = [args.out]
    if cal is not None:
        save_state(calibrate(model, cal), args.calibration_out)
        written.append(args.calibration_out)
    for path in written:
        print(path)
    return 0


def _cmd_assess(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    envs = load_csv(args.data)
    report = inv_statistic(model, fit_density(envs), envs)
    write_report(report, args.out)
    print(f"{args.out} inv={report.inv!r}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    state = load_state(args.calibration, model)
    points = load_points(args.input, model.p)
    if args.method == "sc":
        intervals = state.sc_intervals(points, args.alpha)
    else:
        intervals = state.acir_intervals(points, args.alpha)

    def write(fh: TextIO) -> None:
        fh.write("center,lower,upper\n")
        write_float_rows(fh, [intervals.center, intervals.lower, intervals.upper])

    if args.out is None:
        write(sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        print(args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, leaves = build_parser()
    try:
        args = parser.parse_args(_splice_config(argv, leaves))
        # looked up at call time, so a wrapper installed on the module runs
        return globals()[args.handler](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BenchError, FitError, CsvParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
