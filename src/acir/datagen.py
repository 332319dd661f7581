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
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np

from .core import (
    DataSplit,
    EnvDataset,
    _frozen,
    check_envs,
    check_seed,
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
        if self.dim_x1 < 1 or self.dim_x2 < 1:
            raise ValueError("dims must be >= 1")
        object.__setattr__(self, "env_params", check_env_params(self.env_params))
        rng = np.random.default_rng(check_seed(self.seed))
        w_1y = rng.standard_normal(self.dim_x1)
        w_y2 = rng.standard_normal(self.dim_x2)
        w_h1 = rng.standard_normal((self.dim_x1, self.dim_x1))
        w_hy = rng.standard_normal(self.dim_x1)
        if self.setting[0] == "F":
            w_h1 = np.zeros_like(w_h1)
            w_hy = np.zeros_like(w_hy)
        for name, w in (("w_1y", w_1y), ("w_y2", w_y2), ("w_h1", w_h1), ("w_hy", w_hy)):
            object.__setattr__(self, name, _frozen(w))

    @property
    def p(self) -> int:
        return self.dim_x1 + self.dim_x2

    def env_index(self, env_param: float) -> int:
        try:
            return self.env_params.index(float(env_param))
        except ValueError:
            raise ValueError(
                f"env_param {env_param} is not one of {self.env_params}"
            ) from None


def env_sizes(total: int, m: int) -> list[int]:
    """Split ``total`` rows over ``m`` environments, the remainder to the leading ones."""
    if total < m:
        raise ValueError(f"{total} rows cannot give each of {m} environments a row")
    base, rem = divmod(total, m)
    return [base + 1 if i < rem else base for i in range(m)]


def _entropy(*values: int) -> np.ndarray | list[int]:
    """SeedSequence entropy for ``values``, as one uint32 array when each fits 32 bits.

    SeedSequence splits every int of a list into uint32 words again for each
    child it spawns, but only copies an array of words. An int in [0, 2**32)
    is the single word of its own value, so both give the same streams.
    """
    if all(0 <= v < 2**32 for v in values):
        return np.array(values, dtype=np.uint32)
    return list(values)


def _normal(rng: np.random.Generator, scale: float, shape: int | tuple[int, ...]) -> np.ndarray:
    """rng.normal(0.0, scale, shape), bit for bit, scaled in place.

    numpy's normal is loc + scale * z for the standard normal z, one draw at a
    time; this scales the whole block at once. Adding loc = 0.0 turns the
    -0.0 that scale * z gives when it is zero and z negative into +0.0, so no
    draw is -0.0. Negative scales are the caller's to reject.
    """
    out = rng.standard_normal(shape)
    out *= scale
    out += 0.0
    return out


def generate_sem(
    config: SemConfig,
    env_param: float,
    n: int,
    stream_seed: int,
) -> EnvDataset:
    """Draw n i.i.d. observations from one environment of the SEM.

    Each noise block is rng.normal(0.0, scale, shape) bit for bit, drawn
    from its own stream, so the output does not depend on how the draws are
    computed. Under F settings the hidden weights are exactly zero and H is
    not drawn: it would add exact zeros to draws that are never -0.0, which
    changes no bit.

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
    if n < 1:
        raise ValueError("n must be >= 1")
    stream_seed = check_seed(stream_seed)
    observed, noise_kind = _parse_setting(config.setting)
    e = float(env_param)
    idx = config.env_index(e)
    if noise_kind == "O":
        sigma_y, sigma_2 = e, 1.0
    else:
        sigma_y, sigma_2 = 1.0, e

    root = np.random.SeedSequence(_entropy(int(config.seed), stream_seed, idx))
    ss_h, ss_x1, ss_y, ss_x2 = root.spawn(4)
    d1 = config.dim_x1

    x1 = _normal(np.random.default_rng(ss_x1), e, (n, d1))
    if observed == "P":
        h = _normal(np.random.default_rng(ss_h), e, (n, d1))
        x1 += h @ config.w_h1.T
    y = x1 @ config.w_1y + _normal(np.random.default_rng(ss_y), sigma_y, n)
    if observed == "P":
        y += h @ config.w_hy
    x2 = np.outer(y, config.w_y2)
    x2 += _normal(np.random.default_rng(ss_x2), sigma_2, (n, config.dim_x2))
    # Contiguous blocks copied in: numpy arithmetic on a column block runs
    # its inner loop once per row, so x2 is not computed in place there.
    features = np.empty((n, config.p))
    features[:, :d1] = x1
    features[:, d1:] = x2
    return EnvDataset(env_id=idx, features=_frozen(features), targets=_frozen(y))


def split_dataset(data: EnvDataset, train_fraction: float, seed: int) -> DataSplit:
    """Uniformly random disjoint train/calibration partition.

    Train gets floor(train_fraction * n) rows, calibration the remainder.
    Deterministic given the seed.
    """
    n = data.n
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = int(np.floor(train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise ValueError(
            f"train_fraction={train_fraction} leaves an empty part for n={n}"
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


def _expected_header(p: int) -> list[str]:
    return ["env", "y"] + [f"x{j}" for j in range(1, p + 1)]


def _read_numeric(
    path: str, check_header: Callable[[list[str]], None], env_column: bool
) -> np.ndarray:
    """Parse a CSV whose header passes ``check_header`` and whose body is all numbers.

    check_header gets the stripped header cells and raises CsvParseError on a
    bad header; their count is the row width. np.loadtxt parses the body into
    a structured array: field ``vals`` is the float matrix of the value
    columns and, with ``env_column``, field ``env`` is the int64 first column.
    A large body is parsed in two halves on two processes (parse_in_two);
    if that declines or a half holds a bad row, a single loadtxt call parses
    the whole body, so the rows and every error are the same either way.
    Every value is finite. A file that loadtxt rejects, or that holds a
    non-finite value, is read again row by row only to name the offending
    line.
    """
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise CsvParseError(f"{path}: empty file")
        header = [c.strip() for c in next(csv.reader([header_line]), [])]
        check_header(header)
        width = len(header)
        # Find the first data row, so that loadtxt never meets an empty body
        # (which it answers with a warning, not an error).
        while True:
            body_start = fh.tell()
            line = fh.readline()
            if not line:
                raise CsvParseError(f"{path}: no data rows")
            if line != "\n":
                break
        table = parse_in_two(fh.fileno(), lambda lines: _parse_run(lines, width, env_column))
        if table is None:
            fh.seek(body_start)
            try:
                table = _parse_rows(fh, width, env_column)
            except ValueError as exc:
                _name_bad_line(path, fh, width, env_column)
                raise CsvParseError(f"{path}: {exc}") from None
        if not np.isfinite(table["vals"]).all():
            _name_bad_line(path, fh, width, env_column)
            raise CsvParseError(f"{path}: non-finite value")
    return table


def _parse_rows(lines: TextIO | list[str], width: int, env_column: bool) -> np.ndarray:
    """Parse lines with np.loadtxt into _read_numeric's structured array.

    The structured dtype makes loadtxt check every row's width.
    """
    fields = [("env", np.int64)] if env_column else []
    fields.append(("vals", np.float64, (width - len(fields),)))
    return np.loadtxt(lines, dtype=fields, delimiter=",", comments=None, ndmin=1)


def _parse_run(lines: TextIO, width: int, env_column: bool) -> np.ndarray:
    """_parse_rows of one of parse_in_two's runs of lines, which may hold no rows.

    loadtxt warns when it finds no rows. A run without rows is part of a
    file that has them, so that warning would be wrong here.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return _parse_rows(lines, width, env_column)


def _name_bad_line(path: str, fh: TextIO, width: int, env_column: bool) -> None:
    """Raise CsvParseError for the first data line that breaks a row rule.

    The rules: ``width`` comma-separated cells, an integer first cell when
    ``env_column``, numeric and finite value cells, and every cell in the
    number grammar of the fast parser, which rejects forms Python's int()
    and float() accept (``1_0``, non-ASCII digits, env ids beyond int64).
    Blank lines are skipped. Returns only if every line keeps the rules.
    """
    fh.seek(0)
    fh.readline()
    for lineno, line in enumerate(fh, start=2):
        if line == "\n":
            continue
        cells = line.rstrip("\n").split(",")
        where = f"{path}: line {lineno}"
        if len(cells) != width:
            raise CsvParseError(f"{where}: expected {width} columns, got {len(cells)}")
        if env_column:
            try:
                int(cells[0])
            except ValueError:
                raise CsvParseError(f"{where}: env {cells[0]!r} is not an integer") from None
        try:
            values = [float(c) for c in (cells[1:] if env_column else cells)]
        except ValueError:
            raise CsvParseError(f"{where}: non-numeric cell in {cells!r}") from None
        if not all(map(math.isfinite, values)):
            raise CsvParseError(f"{where}: non-finite cell in {cells!r}")
        try:
            _parse_rows([line], width, env_column)
        except ValueError:
            raise CsvParseError(f"{where}: cell outside the number grammar in {cells!r}") from None


def load_csv(path: str) -> list[EnvDataset]:
    """Read a multi-environment dataset from CSV.

    The file must be UTF-8 with header ``env,y,x1,...,xp``; env is an int64
    label and the rest are unquoted, finite decimal or scientific-notation
    numbers. Blank lines are skipped; line ends may be LF or CRLF. Returns
    one EnvDataset per distinct env value, in order of first appearance,
    with the original row order preserved within each environment.
    """

    def check_header(header: list[str]) -> None:
        if len(header) < 3 or header[:2] != ["env", "y"]:
            raise CsvParseError(
                f"{path}: line 1: header must be env,y,x1,...,xp, got {header}"
            )
        p = len(header) - 2
        if header != _expected_header(p):
            raise CsvParseError(
                f"{path}: line 1: feature columns must be x1..x{p}, got {header[2:]}"
            )

    table = _read_numeric(path, check_header, env_column=True)
    ids, first, inverse, counts = np.unique(
        table["env"], return_index=True, return_inverse=True, return_counts=True
    )
    # Rows grouped by id, file order kept within a group (the sort is stable).
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    vals = table["vals"]
    return [
        EnvDataset(env_id=int(ids[k]), features=vals[groups[k], 1:], targets=vals[groups[k], 0])
        for k in np.argsort(first)
    ]


def load_points(path: str, p: int) -> np.ndarray:
    """Read query points from a CSV with header ``x1,...,xp``, as an (n, p) matrix.

    The cells follow load_csv's grammar; every value is finite.
    """
    expected = [f"x{j}" for j in range(1, p + 1)]

    def check_header(header: list[str]) -> None:
        if header != expected:
            raise CsvParseError(f"{path}: line 1: expected header {','.join(expected)}")

    return _read_numeric(path, check_header, env_column=False)["vals"]


def save_csv(envs: list[EnvDataset], path: str) -> None:
    """Write environments to the ``env,y,x1,...,xp`` CSV schema, with CRLF line ends.

    Floats are written with shortest round-trip formatting, so a
    load_csv of the output reproduces the values exactly.
    """
    p = check_envs(envs)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_expected_header(p)) + "\r\n")
        for env in envs:
            write_float_rows(fh, [env.targets, env.features], f"{env.env_id},", "\r\n")
