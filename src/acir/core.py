"""Shared data containers, the conformal quantile convention, evaluation metrics,
the writer for rows of floats in text files, the two-process parse of large
text files, and the line-numbered token reader for the model and state files.

_can_fork is the one fork gate and _in_two the one fork primitive: one
forked-worker lifecycle and one fallback (a missing or failed worker's half
runs in this process). The writer and the parse here, and
bench.run_experiment's replications, hand their second half to a worker
through it, so each gives the one-process bytes, rows and errors.

Everything here is immutable after construction and free of hidden state, so
all of it can be used from concurrent workers without coordination.
"""

from __future__ import annotations

import io
import math
import os
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "EnvDataset",
    "DataSplit",
    "PredictionInterval",
    "check_alpha",
    "check_seed",
    "check_train_fraction",
    "conformal_quantile",
    "sorted_conformal_quantile",
    "coverage_rate",
    "average_length",
    "check_envs",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """A freshly built array, made read-only: handed over, _readonly keeps it without a copy."""
    a.setflags(write=False)
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    """a as a read-only float array of its own: how every container takes an array.

    An owned, read-only float array, as the library hands over what it has
    just built (see _frozen), is kept. Anything else, views included, is
    copied, so a caller's array is never frozen or aliased.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.owndata and not a.flags.writeable):
        a = _frozen(np.array(a, dtype=float, copy=True))
    return a


@dataclass(frozen=True)
class EnvDataset:
    """One environment's labeled sample.

    Parameters
    ----------
    env_id : int
        Integer label of the environment.
    features : ndarray of shape (n, p)
        Dense feature matrix, one row per observation.
    targets : ndarray of shape (n,)
        Real-valued targets aligned with the feature rows.
    """

    env_id: int
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "env_id", int(self.env_id))
        features = _readonly(np.atleast_2d(self.features))
        targets = _readonly(np.atleast_1d(self.targets))
        if features.ndim != 2:
            raise ValueError(f"features must be a matrix, got ndim={features.ndim}")
        if targets.ndim != 1:
            raise ValueError(f"targets must be a vector, got ndim={targets.ndim}")
        if features.shape[0] != targets.shape[0]:
            raise ValueError(
                f"row mismatch: {features.shape[0]} feature rows vs "
                f"{targets.shape[0]} targets"
            )
        if features.shape[0] < 1:
            raise ValueError("dataset must contain at least one observation")
        if not np.isfinite(features).all() or not np.isfinite(targets).all():
            raise ValueError("features and targets must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @cached_property
    def second_moments(self) -> tuple[np.ndarray, np.ndarray, float]:
        """x'x / n, x'y / n and y'y / n, computed on first use and kept read-only,
        so fitting ERM and IRM on the same environment computes them once."""
        x, y, n = self.features, self.targets, self.n
        return _frozen(x.T @ x / n), _frozen(x.T @ y / n), float(y @ y) / n


def _check_env_ids(env_ids: Sequence[int]) -> None:
    """Raise unless the environment ids are nonempty and distinct."""
    if len(env_ids) == 0:
        raise ValueError("need at least one environment")
    if len(set(env_ids)) != len(env_ids):
        raise ValueError(f"duplicate environment ids in {env_ids}")


def check_envs(envs: Sequence[EnvDataset]) -> int:
    """The environments' feature count; a ValueError unless they are nonempty,
    have distinct ids and share one feature count."""
    _check_env_ids([env.env_id for env in envs])
    p = envs[0].p
    if any(env.p != p for env in envs):
        raise ValueError("environments disagree on feature count")
    return p


@dataclass(frozen=True)
class DataSplit:
    """Disjoint train/calibration partition of one environment's data."""

    train: EnvDataset
    calibration: EnvDataset

    def __post_init__(self) -> None:
        if self.train.env_id != self.calibration.env_id:
            raise ValueError(
                f"split parts disagree on env_id: "
                f"{self.train.env_id} vs {self.calibration.env_id}"
            )


@dataclass(frozen=True, eq=False)
class PredictionInterval:
    """Symmetric prediction intervals [center - half_width, center + half_width].

    center and half_width are read-only float arrays of one shape: (n,) for a
    batch of n points, () for a single point. lower, upper and contains work
    elementwise; len() counts the points and [i] is point i as a view.
    Compare intervals through their arrays: == is identity, as arrays have
    no single truth value.
    """

    center: np.ndarray
    half_width: np.ndarray

    def __post_init__(self) -> None:
        center = _readonly(self.center)
        half_width = _readonly(self.half_width)
        if center.shape != half_width.shape or center.ndim > 1:
            raise ValueError(
                f"center and half_width must share one shape (n,) or (), "
                f"got {center.shape} and {half_width.shape}"
            )
        # count_nonzero, not ndarray.all, whose Python-level wrapper costs
        # more than the check on a single point
        if np.count_nonzero(np.isfinite(center)) != center.size:
            raise ValueError("center must be finite")
        if np.count_nonzero(half_width >= 0) != half_width.size:
            raise ValueError("half_width must be >= 0")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", half_width)

    def __len__(self) -> int:
        return len(self.center)  # TypeError for a single point, as for a 0-d array

    def __getitem__(self, i: int) -> PredictionInterval:
        # Rows of a validated interval are valid: share the read-only data
        # instead of copying and checking it again.
        row = object.__new__(PredictionInterval)
        object.__setattr__(row, "center", self.center[i, ...])
        object.__setattr__(row, "half_width", self.half_width[i, ...])
        return row

    def __iter__(self) -> Iterator[PredictionInterval]:
        return (self[i] for i in range(len(self)))

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width

    def contains(self, y: np.ndarray) -> np.ndarray:
        """Elementwise lower <= y <= upper."""
        return (self.lower <= y) & (y <= self.upper)


def check_alpha(alpha: float) -> float:
    """alpha as a float; a ValueError unless it is a miscoverage rate in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def check_seed(seed: int) -> int:
    """seed as an int; a ValueError unless it is >= 0, as numpy's generators need."""
    if seed < 0:
        raise ValueError(f"seeds must be >= 0, got {seed}")
    return int(seed)


def check_train_fraction(fraction: float) -> float:
    """fraction as a float; a ValueError unless it is a train share in (0, 1).

    Whether a share leaves both parts of n rows nonempty depends on n, so
    split_dataset checks that when it splits.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {fraction}")
    return float(fraction)


def sorted_conformal_quantile(sorted_scores: np.ndarray, alpha: float) -> float:
    """conformal_quantile of scores already sorted ascending, by one index read.

    This is where the rank k = ceil((1 - alpha) * (n + 1)) and the +inf for
    k > n are defined. Only alpha is checked: the caller vouches that the
    scores are a nonempty, finite, nonnegative, ascending 1-D array.
    """
    n = len(sorted_scores)
    k = math.ceil((1.0 - check_alpha(alpha)) * (n + 1))
    if k > n:
        return math.inf
    return float(sorted_scores[k - 1])


def conformal_quantile(scores: np.ndarray, alpha: float) -> float:
    """Finite-sample conformal quantile of a vector of conformity scores.

    Returns the k-th smallest score with k = ceil((1 - alpha) * (n + 1)),
    or +inf when k exceeds n (the calibration set is too small for the
    requested miscoverage level; an infinite interval keeps validity).
    Validates the scores, sorts them once and reads the rank from
    sorted_conformal_quantile, the one definition of k.

    Parameters
    ----------
    scores : array-like of shape (n,)
        Finite, nonnegative conformity scores. Need not be sorted.
    alpha : float
        Miscoverage rate in (0, 1).
    """
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size == 0:
        raise ValueError("scores must be nonempty")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if scores.min() < 0:
        raise ValueError("scores must be nonnegative")
    return sorted_conformal_quantile(np.sort(scores), alpha)


def coverage_rate(intervals: PredictionInterval, truths: np.ndarray) -> float:
    """Fraction of truths falling inside their interval (bounds inclusive)."""
    truths = np.asarray(truths, dtype=float).ravel()
    if intervals.center.size != truths.size:
        raise ValueError(
            f"length mismatch: {intervals.center.size} intervals vs {truths.size} truths"
        )
    if truths.size == 0:
        raise ValueError("need at least one interval")
    return np.count_nonzero(intervals.contains(truths)) / truths.size


def average_length(intervals: PredictionInterval) -> float:
    """Mean interval half-width; +inf as soon as any half-width is infinite."""
    if intervals.half_width.size == 0:
        raise ValueError("need at least one interval")
    return float(np.mean(intervals.half_width))


_WRITE_BLOCK_ROWS = 2048
# The worker costs a few ms in a 130 MB process: about 2 ms to fork and reap,
# and it starts formatting 2-7 ms after the fork. A row costs 1.5-2 µs per
# float to format (2-vCPU Xeon, Python 3.11). From this many rows on, half
# the rows outweigh that even at one float a row, and a file of a few
# thousand rows stays on one process.
_PARALLEL_ROWS = 8192
# A read costs the same fork and start, plus one more copy of the rows, and
# np.loadtxt takes about 30 ms per MB of text. In a 100 MB process (2-vCPU
# shared VM, numpy 2.4), a 12-column data file took 0.6-0.8 times as long on
# two processes as on one from 1.7 MB on, and as long at 0.2-0.4 MB, while
# the second vCPU was free; while it was busy, up to 1.3 times as long. A
# 3000-row data file (0.65 MB) stays on one process.
_PARALLEL_BYTES = 2 << 20


def write_float_rows(
    fh: TextIO, columns: Sequence[np.ndarray], prefix: str = "", end: str = "\n"
) -> None:
    """Write rows of floats as ``prefix`` + comma-joined reprs + ``end``.

    ``columns`` are 1-D arrays (one column each) or 2-D arrays (several),
    with equal row counts, laid side by side as np.column_stack does. repr
    is Python's shortest round-trip form, so reading a value back gives the
    same float. Lines are built and written a block of rows at a time: as
    fast as one whole-file string, without holding the file in memory.

    From _PARALLEL_ROWS rows on, when _can_fork allows, a forked worker
    streams the second half of the rows (from n // 2 on) into _in_two's
    temporary file while this process writes the first, and this process
    then copies that file after its own rows. Each row is formatted on its
    own, so the bytes are the same as from one process.
    """
    n = len(columns[0])
    if n >= _PARALLEL_ROWS and _can_fork():
        _in_two(
            lambda: _write_blocks(fh, columns, prefix, end, 0, n // 2),
            lambda out: _write_blocks(out, columns, prefix, end, n // 2, n),
            lambda _, out: shutil.copyfileobj(out, fh),
        )
    else:
        _write_blocks(fh, columns, prefix, end, 0, n)


def _write_blocks(
    fh: TextIO, columns: Sequence[np.ndarray], prefix: str, end: str, start: int, stop: int
) -> None:
    """Rows start to stop, a block of _WRITE_BLOCK_ROWS rows at a time."""
    for lo in range(start, stop, _WRITE_BLOCK_ROWS):
        hi = min(lo + _WRITE_BLOCK_ROWS, stop)
        block = np.column_stack([c[lo:hi] for c in columns]).tolist()
        fh.write("".join(prefix + ",".join(map(repr, row)) + end for row in block))


def _can_fork() -> bool:
    """Whether a worker can be forked safely and has a CPU of its own to run on.

    Forking a process with a second thread can deadlock the child on a lock
    that thread held, and Python 3.12+ warns about it. The threads are
    counted as the OS sees them, since a BLAS pool or a ``_thread`` thread is
    not one of ``threading``'s.
    """
    if not hasattr(os, "fork") or _thread_count() != 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


def _thread_count() -> int:
    """The process's OS threads where /proc lists them, else threading's count."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _in_two(
    own: Callable[[], T], work: Callable[[TextIO], None], join: Callable[[T, TextIO], R]
) -> R:
    """join(own(), out), where out holds what work(out) wrote, read from its start.

    This process runs own() while one forked worker runs work(out). out is
    an unlinked temporary file opened as text (UTF-8, no newline
    translation), and bytes go to out.buffer; it is the worker's only way to
    hand anything back. The worker leaves only through os._exit, so it never
    flushes another file object it shares with this process. It is reaped
    on every path, and killed first if own raises.

    If no worker can be forked, or it fails in any way (raises, exits
    nonzero, is killed), this process runs work(out) itself after own(), so
    the result, and any error, is the one-process one.
    """
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as out:
        try:
            pid = os.fork()
        except OSError:  # no process or memory to spare: no worker
            pid = -1
        if pid == 0:
            status = 1
            try:
                work(out)
                out.flush()
                status = 0
            finally:
                os._exit(status)
        failed = pid < 0
        try:
            result = own()
        except BaseException:
            if not failed:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            if not failed:
                failed = os.waitpid(pid, 0)[1] != 0
        if failed:
            out.seek(0)
            out.truncate()
            work(out)
        out.seek(0)
        return join(result, out)


def parse_in_two(fd: int, parse: Callable[[TextIO], np.ndarray]) -> np.ndarray | None:
    """parse's rows of a text file's lines after the first, parsed on two processes.

    fd is the open file, read as open(path, encoding="utf-8") reads it, with
    os.pread, so no reader's place in it moves. parse gets a run of lines as
    a text stream and returns a 1-D array of one dtype; a run may hold no
    rows. The lines are split after the first newline from the middle byte
    on: _in_two's worker parses those after it, this process those before.
    The worker's rows come back through the temporary file, read straight
    into the joined array, which holds the rows of both runs in file order.

    None means the caller parses the lines in one run: the file is below
    _PARALLEL_BYTES, _can_fork says no, no newline lies within 64 KiB of
    the middle, no run holds a row, or parse raised a ValueError on either
    run. The caller's one run then raises what it would have.
    """
    size = os.fstat(fd).st_size
    if size < _PARALLEL_BYTES or not _can_fork():
        return None
    mid = size // 2
    newline = os.pread(fd, 1 << 16, mid).find(b"\n")
    if newline < 0:
        return None
    split = mid + newline + 1

    def head() -> np.ndarray:
        with _text_range(fd, 0, split) as lines:
            lines.readline()
            return parse(lines)

    def tail(out: TextIO) -> None:
        with _text_range(fd, split, size) as lines:
            out.buffer.write(parse(lines).data)

    def join(first: np.ndarray, out: TextIO) -> np.ndarray | None:
        nbytes = os.fstat(out.fileno()).st_size
        rows = np.empty(len(first) + nbytes // first.dtype.itemsize, first.dtype)
        rows[: len(first)] = first
        if len(rows) == 0 or out.buffer.readinto(rows[len(first):].view(np.uint8)) != nbytes:
            return None
        return rows

    try:
        return _in_two(head, tail, join)
    except ValueError:
        return None


class _ByteRange(io.RawIOBase):
    """Bytes start to stop of the open file fd, read with os.pread."""

    def __init__(self, fd: int, start: int, stop: int) -> None:
        super().__init__()
        self._fd, self._pos, self._stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._stop - self._pos), self._pos)
        buf[: len(data)] = data
        self._pos += len(data)
        return len(data)


def _text_range(fd: int, start: int, stop: int) -> TextIO:
    """Bytes start to stop of fd decoded as open(path, encoding="utf-8") would.

    start and stop must be line starts, as the universal-newline decoder
    then ends every line where it ends it when decoding the whole file.
    """
    raw = _ByteRange(fd, start, stop)
    return io.TextIOWrapper(io.BufferedReader(raw, 1 << 16), encoding="utf-8")


def numbered_lines(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of a text file, stripped, each with its 1-based number."""
    with open(path, encoding="utf-8") as fh:
        return [(no, text) for no, text in enumerate(map(str.strip, fh), start=1) if text]


def parse_tokens(path: str, lineno: int, tokens: Sequence[str], kind: type = float) -> list:
    """``kind`` of each token; a malformed or non-finite one is a ValueError naming the line."""
    try:
        values = [kind(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"{path}: line {lineno}: {exc}") from None
    for tok, value in zip(tokens, values):
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {lineno}: non-finite value {tok!r}")
    return values
