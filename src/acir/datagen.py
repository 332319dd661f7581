"""Synthetic multi-environment benchmark generator and CSV ingestion.

The generator draws from a linear structural equation model in which a
response Y is caused by a block of covariates X1 and itself causes a second
block X2, with an optional hidden confounder H feeding both X1 and Y.
Environments differ through a single scale parameter that controls the
variance of H, of X1, and of one of the two noise terms:

    H   ~ N(0, e^2 I)                     (dim_x1 coordinates)
    X1  = N(0, e^2 I) + W_h1 @ H
    Y   = w_1y . X1 + N(0, sigma_y^2) + w_hy . H
    X2  = w_y2 * Y + N(0, sigma_2^2 I)

Setting labels are three letters: F (fully observed, hidden weights zero) or
P (partially observed, hidden weights Gaussian); O (homoskedastic Y-noise,
sigma_y^2 = e^2, sigma_2^2 = 1) or E (heteroskedastic, sigma_y^2 = 1,
sigma_2^2 = e^2); and U (unscrambled covariates, the only variant here).

Every line read from a data, points, model or state file is split one way:
a data or points file's header and rows on commas, a model's or state's on
whitespace. Every number in them keeps one row rule: _parse_rows takes the
lines, and every value is finite. _name_bad_line names the first line that
breaks it, the same way for all.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DataSplit,
    EnvDataset,
    _frozen,
    _integer,
    _seed_sequence,
    check_envs,
    check_seed,
    check_train_fraction,
    not_utf8,
    parse_in_two,
    write_float_rows,
)

__all__ = [
    "SemConfig",
    "generate_sem",
    "split_dataset",
    "load_csv",
    "load_points",
    "save_csv",
    "CsvParseError",
    "SETTINGS",
]

SETTINGS = ("FOU", "FEU", "POU", "PEU")
DEFAULT_ENV_PARAMS = (0.2, 2.0, 5.0)
# Lines _name_bad_line checks at once: on a 12-column file a np.loadtxt call
# costs about 15 us and each line in it 3 us, so the blocks' calls cost little
# and the line-by-line pass over the one block that breaks the rule 18-25 ms.
_RULE_BLOCK_LINES = 1024


class CsvParseError(ValueError):
    """Malformed data file; message carries the offending line number."""


def _parse_setting(setting: str) -> tuple[str, str]:
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}, expected one of {SETTINGS}")
    return setting[0], setting[1]


def check_env_params(env_params: Sequence[float]) -> tuple[float, ...]:
    """Environment scales as floats: at least one, each finite, nonnegative and distinct."""
    params = tuple(float(e) for e in env_params)
    if not params:
        raise ValueError("env_params must name at least one environment")
    if not all(math.isfinite(e) and e >= 0 for e in params):
        raise ValueError(f"env_params must be finite and nonnegative, got {params}")
    if len(set(params)) != len(params):
        raise ValueError(f"env_params must be distinct, got {params}")
    return params


@dataclass(frozen=True)
class SemConfig:
    """Structural-equation-model configuration.

    The causal weights are drawn once from ``seed`` and shared across all
    environments; per-call noise comes from a separate stream seed so that
    replications share structure but vary noise. Under F settings the hidden
    confounder weights are exactly zero (they are still drawn, so F and P
    configs with the same seed share the observed-path weights).
    """

    setting: str
    env_params: tuple[float, ...] = DEFAULT_ENV_PARAMS
    dim_x1: int = 5
    dim_x2: int = 5
    seed: int = 0
    w_1y: np.ndarray = field(init=False, repr=False)
    w_y2: np.ndarray = field(init=False, repr=False)
    w_h1: np.ndarray = field(init=False, repr=False)
    w_hy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _parse_setting(self.setting)
        for name in ("dim_x1", "dim_x2"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.dim_x1 < 1 or self.dim_x2 < 1:
            raise ValueError("dims must be >= 1")
        object.__setattr__(self, "env_params", check_env_params(self.env_params))
        object.__setattr__(self, "seed", check_seed(self.seed))
        rng = np.random.default_rng(self.seed)
        w_1y = rng.standard_normal(self.dim_x1)
        w_y2 = rng.standard_normal(self.dim_x2)
        w_h1 = rng.standard_normal((self.dim_x1, self.dim_x1))
        w_hy = rng.standard_normal(self.dim_x1)
        if self.setting[0] == "F":
            w_h1 = np.zeros_like(w_h1)
            w_hy = np.zeros_like(w_hy)
        for name, w in (("w_1y", w_1y), ("w_y2", w_y2), ("w_h1", w_h1), ("w_hy", w_hy)):
            object.__setattr__(self, name, _frozen(w))

    def env_index(self, env_param: float) -> int:
        try:
            return self.env_params.index(float(env_param))
        except ValueError:
            raise ValueError(
                f"env_param {env_param} is not one of {self.env_params}"
            ) from None


def env_sizes(total: int, m: int) -> list[int]:
    """Split ``total`` rows over ``m`` environments, the remainder to the leading ones."""
    total, m = _integer("total", total), _integer("m", m)
    if total < m:
        raise ValueError(f"{total} rows cannot give each of {m} environments a row")
    base, rem = divmod(total, m)
    return [base + 1 if i < rem else base for i in range(m)]


def generate_sem(
    config: SemConfig,
    env_param: float,
    n: int,
    stream_seed: int,
) -> EnvDataset:
    """Draw n i.i.d. observations from one environment of the SEM.

    Each noise block is one rng.normal(0.0, scale, shape) call on its own
    stream. Its loc of 0.0 turns a -0.0 product scale * z into +0.0, so no
    draw is -0.0. Under F settings the hidden weights are exactly zero and H
    is not drawn: it would add exact zeros to draws that are never -0.0,
    which changes no bit. A scale whose products overflow gives non-finite
    data, which EnvDataset refuses with a ValueError, not numpy's warnings;
    its message starts with the scale and the environment's index.

    Parameters
    ----------
    config : SemConfig
        Structure shared by all environments.
    env_param : float
        The environment's scale parameter; must be one of config.env_params.
        The returned dataset's env_id is its index in that tuple.
    n : int
        Number of observations.
    stream_seed : int
        Seed of the noise stream. Identical (config.seed, stream_seed) pairs
        reproduce the data exactly.
    """
    if _integer("n", n) < 1:
        raise ValueError("n must be >= 1")
    stream_seed = check_seed(stream_seed, "stream_seed")
    observed, noise_kind = _parse_setting(config.setting)
    e = float(env_param)
    idx = config.env_index(e)
    if noise_kind == "O":
        sigma_y, sigma_2 = e, 1.0
    else:
        sigma_y, sigma_2 = 1.0, e

    ss_h, ss_x1, ss_y, ss_x2 = _seed_sequence(int(config.seed), stream_seed, idx).spawn(4)
    d1 = config.dim_x1

    x1 = np.random.default_rng(ss_x1).normal(0.0, e, (n, d1))
    # Scales near the float limit overflow here; EnvDataset reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        if observed == "P":
            h = np.random.default_rng(ss_h).normal(0.0, e, (n, d1))
            x1 += h @ config.w_h1.T
        y = x1 @ config.w_1y + np.random.default_rng(ss_y).normal(0.0, sigma_y, n)
        if observed == "P":
            y += h @ config.w_hy
        x2 = np.outer(y, config.w_y2)
        x2 += np.random.default_rng(ss_x2).normal(0.0, sigma_2, (n, config.dim_x2))
    features = np.concatenate([x1, x2], axis=1)
    try:
        return EnvDataset(env_id=idx, features=_frozen(features), targets=_frozen(y))
    except ValueError as exc:
        raise ValueError(f"env_param {e} (environment {idx}): {exc}") from None


def split_dataset(data: EnvDataset, train_fraction: float, seed: int) -> DataSplit:
    """Uniformly random disjoint train/calibration partition.

    Train gets floor(train_fraction * n) rows, calibration the remainder.
    Deterministic given the seed.
    """
    n = data.n
    if n < 2:
        raise ValueError(f"env {data.env_id}: need at least 2 rows to split")
    n_train = int(np.floor(check_train_fraction(train_fraction) * n))
    if n_train < 1 or n_train >= n:
        raise ValueError(
            f"env {data.env_id}: train_fraction={train_fraction} leaves an empty part for n={n}"
        )
    perm = np.random.default_rng(check_seed(seed)).permutation(n)

    def part(rows: np.ndarray) -> EnvDataset:
        # take gathers whole rows about twice as fast as fancy indexing
        return EnvDataset(
            data.env_id,
            _frozen(data.features.take(rows, axis=0)),
            _frozen(data.targets.take(rows)),
        )

    return DataSplit(train=part(perm[:n_train]), calibration=part(perm[n_train:]))


def _feature_names(p: int) -> list[str]:
    """The feature column names of a data or points file: x1..xp."""
    return [f"x{j}" for j in range(1, p + 1)]


def _read_numeric(
    path: str, names: Callable[[int], list[str]], ints: Sequence[str]
) -> np.ndarray:
    """Parse a CSV whose header is names(its width) and whose body keeps the row rule.

    The header's cells are split on commas, as its rows are, stripped, and
    freed of one enclosing pair of double quotes (R's write.csv and pandas'
    QUOTE_NONNUMERIC quote them); their count is the row width, and ints
    names its leading integer columns. parse_in_two parses the body with
    _parse_rows, a large body in two halves on two processes, with the rows
    and errors of one call. A body that breaks the row rule, or holds a byte
    that is not UTF-8 (read surrogate-escaped), is read again only to name
    the offending line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        line = fh.readline()
        if not line:
            raise CsvParseError(f"{path}: empty file")
        if fault := not_utf8(line):
            raise CsvParseError(f"{path}: line 1: {fault}")
        header = [c.strip() for c in line.split(",")]
        header = [c[1:-1] if len(c) > 1 and c[0] == c[-1] == '"' else c for c in header]
        if header != (expected := names(len(header))):
            # repr shows what a terminal hides, such as a byte-order mark.
            got = line.rstrip("\r\n")
            raise CsvParseError(f"{path}: line 1: expected header {','.join(expected)}, "
                                f"got {got!r}")
        width = len(header)
        # The header is read untranslated, so its UTF-8 length is its length in the file.
        parse = partial(parse_in_two, fh.fileno(), len(line.encode()),
                        lambda lines: _parse_rows(lines, width, ints))
        body = enumerate((ln.rstrip("\r\n") for ln in fh), start=2)
        table = _read_rows(path, body, width, ints, parse=parse)
    if not len(table):
        raise CsvParseError(f"{path}: no data rows")
    return table


def _parse_rows(lines: Iterable[str], width: int, ints: Sequence[str],
                delimiter: str | None = ",") -> np.ndarray:
    """Parse lines with np.loadtxt, cells split on delimiter (on whitespace for
    None), into a structured array: an int64 field for each of ints, the
    leading columns, then field ``vals``, the float matrix of the rest.

    The structured dtype makes loadtxt check every row's width; blank lines
    hold no row. A run of parse_in_two's, or a block of _name_bad_line's, may
    hold no rows, and loadtxt's warning then would be wrong.
    """
    fields = [(name, np.int64) for name in ints]
    fields.append(("vals", np.float64, (width - len(ints),)))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(lines, dtype=fields, delimiter=delimiter, comments=None, ndmin=1)


def _read_rows(path: str, lines: Iterable, width: int, ints: Sequence[str] = (),
               delimiter: str | None = ",", parse: Callable | None = None) -> np.ndarray:
    """parse()'s rows of the numbered lines if every value is finite, else
    _name_bad_line's CsvParseError for the first line that breaks the row rule.
    By default a nonempty list of lines is parsed at once; as loadtxt sets aside
    rows of width values before it reads a line, a width that the first line
    cannot hold (one cell more than it has characters) is named first."""
    if parse is None:
        lineno, text = lines[0]
        if width > len(text) + 1:
            fault = _line_fault(text, width, ints, delimiter)
            raise CsvParseError(f"{path}: line {lineno}: {fault}")
        parse = partial(_parse_rows, [text for _, text in lines], width, ints, delimiter)
    try:
        table = parse()
        if not np.isfinite(table["vals"]).all():
            raise ValueError("non-finite value")
    except ValueError as exc:  # a UnicodeDecodeError too
        _name_bad_line(path, lines, width, ints, delimiter)
        raise CsvParseError(f"{path}: {exc}") from None
    return table


def _read_header(path: str, line: tuple, width: int, ints: Sequence[str], wording: str) -> list:
    """[lineno, *ints, [*floats]] of a numbered header line. Whitespace cells other than
    width in number are a ValueError worded by wording, or naming a non-UTF-8 byte first."""
    lineno, text = line
    if len(text.split()) != width:
        fault = not_utf8(text) or f"{wording}, got {text!r}"
        raise ValueError(f"{path}: line {lineno}: {fault}")
    return [lineno, *_read_rows(path, [line], width, ints, None)[0].tolist()]


def _name_bad_line(path: str, lines: Iterable, width: int, ints: Sequence[str],
                   delimiter: str | None) -> None:
    """Raise CsvParseError for the first of the numbered lines that breaks the row rule.

    lines are (number, text without its end) pairs: a data file's body, or a
    model's or state's header, rows or score lines. They are checked a block
    of _RULE_BLOCK_LINES at a time; in the first block that breaks the rule,
    each non-blank line on its own, and the first that breaks it is named
    with _line_fault's message. So a line that loadtxt parses to finite
    values is never named. Returns only if every line keeps the rule.
    """

    def keeps_rule(texts: list[str]) -> bool:
        try:
            return bool(np.isfinite(_parse_rows(texts, width, ints, delimiter)["vals"]).all())
        except ValueError:
            return False

    lines = iter(lines)
    while block := list(itertools.islice(lines, _RULE_BLOCK_LINES)):
        if not keeps_rule([text for _, text in block]):
            for lineno, text in block:
                if text and not keeps_rule([text]):
                    fault = _line_fault(text, width, ints, delimiter)
                    raise CsvParseError(f"{path}: line {lineno}: {fault}")


def _line_fault(text: str, width: int, ints: Sequence[str], delimiter: str | None) -> str:
    """Why a line breaks the row rule, its cells split as loadtxt splits them: the
    first of a byte that is not UTF-8, the column count, a non-integer in a column
    of ints, a non-numeric or non-finite cell; else a form loadtxt rejects but int()
    and float() take (``1_0``, non-ASCII digits, int64 overflow)."""
    if fault := not_utf8(text):
        return fault
    cells = text.split(delimiter)
    if len(cells) != width:
        return f"expected {width} columns, got {len(cells)}"
    for name, cell in zip(ints, cells):
        try:
            int(cell)
        except ValueError:
            return f"{name} {cell!r} is not an integer"
    try:
        values = [float(c) for c in cells[len(ints):]]
    except ValueError:
        return f"non-numeric cell in {cells!r}"
    if not all(map(math.isfinite, values)):
        return f"non-finite cell in {cells!r}"
    return f"cell outside the number grammar in {cells!r}"


def load_csv(path: str) -> list[EnvDataset]:
    """Read a multi-environment dataset from CSV.

    The file must be UTF-8 with header ``env,y,x1,...,xp``, whose cells may
    be double-quoted; env is an int64 label and the rest are unquoted,
    finite decimal or scientific-notation numbers. Blank lines are skipped;
    line ends may be LF or CRLF. Returns one EnvDataset per distinct env
    value, in order of first appearance, with the original row order
    preserved within each environment.
    """

    # A header of fewer than three cells is held to env,y,x1.
    table = _read_numeric(
        path, lambda width: ["env", "y", *_feature_names(max(width - 2, 1))], ints=("env",)
    )
    ids, first, inverse, counts = np.unique(
        table["env"], return_index=True, return_inverse=True, return_counts=True
    )
    # Rows grouped by id, file order kept within a group (the sort is stable).
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    vals = table["vals"]
    # each gather is a fresh array of its own, handed over without a copy
    return [
        EnvDataset(int(ids[k]), _frozen(vals[groups[k], 1:]), _frozen(vals[groups[k], 0]))
        for k in np.argsort(first)
    ]


def load_points(path: str, p: int) -> np.ndarray:
    """Read query points from a CSV with header ``x1,...,xp``, as an (n, p) matrix.

    The cells follow load_csv's grammar; every value is finite.
    """
    return _read_numeric(path, lambda width: _feature_names(p), ints=())["vals"]


def save_csv(envs: list[EnvDataset], path: str) -> None:
    """Write environments to the ``env,y,x1,...,xp`` CSV schema, with CRLF line ends.

    Floats are written with shortest round-trip formatting, so a
    load_csv of the output reproduces the values exactly.
    """
    p = check_envs(envs)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["env", "y", *_feature_names(p)]) + "\r\n")
        for env in envs:
            write_float_rows(fh, [env.targets, env.features], f"{env.env_id},", "\r\n")
