import _thread
import io
import math
import os
import tempfile
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acir import bench, cli, core
from acir.core import (
    DataSplit,
    EnvDataset,
    PredictionInterval,
    average_length,
    check_envs,
    conformal_quantile,
    coverage_rate,
    sorted_conformal_quantile,
)
from acir.conformal import CalibrationState, calibrate, save_state
from acir.datagen import load_points, save_csv
from acir.invariance import DensityModel, InvarianceReport, fit_density, inv_statistic
from acir.models import FitConfig, LinearIRMModel, fit_irmv1, irm_objective, save_model
from conftest import assert_no_child_left


def brute_force_quantile(scores, alpha):
    """Oracle: sort ascending, take the k-th smallest with k = ceil((1-a)(n+1)),
    computed exactly for a the decimal that alpha prints as."""
    ordered = sorted(scores)
    n = len(ordered)
    k = math.ceil((1 - Fraction(repr(alpha))) * (n + 1))
    if k > n:
        return math.inf
    return ordered[k - 1]


def test_quantile_forced_small_cases():
    assert conformal_quantile(np.array([2.0, 1.0, 4.0, 3.0]), 0.5) == 3.0
    assert conformal_quantile(np.arange(1.0, 20.0), 0.05) == 19.0
    assert conformal_quantile(np.array([1.0, 2.0, 3.0]), 0.1) == math.inf
    # (1 - alpha)(n + 1) lies just above n, so k = n + 1; a float product
    # rounds it to n and read the largest score
    assert conformal_quantile(np.array([1.0, 2.0]), 0.3333333333333333) == math.inf
    assert conformal_quantile(np.array([5.0]), 0.49999999999999994) == math.inf


def test_quantile_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        scores = rng.exponential(size=n)
        alpha = float(rng.uniform(0.01, 0.99))
        assert conformal_quantile(scores, alpha) == brute_force_quantile(scores.tolist(), alpha)


# Scores from a small pool, so ties (and 0.0 beside -0.0) are common.
_SCORES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]),
              st.floats(0.0, 1e6, allow_subnormal=True)),
    min_size=1, max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(scores=_SCORES, alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(scores=[0.0, -0.0, 0.0], alpha=0.5)
@example(scores=[3.0, 1.0, 2.0], alpha=0.1)  # k = 4 > n: +inf
@example(scores=[1.0] * 60, alpha=1e-300)
def test_sorted_lookup_equals_quantile_and_oracle(scores, alpha):
    expected = brute_force_quantile(scores, alpha)
    from_sorted = sorted_conformal_quantile(np.sort(np.array(scores)), alpha)
    assert from_sorted == conformal_quantile(np.array(scores), alpha) == expected


def test_quantile_monotone_in_alpha():
    rng = np.random.default_rng(11)
    scores = rng.gamma(2.0, size=40)
    alphas = np.linspace(0.02, 0.98, 25)
    values = [conformal_quantile(scores, a) for a in alphas]
    for earlier, later in zip(values, values[1:]):
        assert earlier >= later


def test_quantile_input_validation():
    with pytest.raises(ValueError):
        conformal_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        conformal_quantile(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        conformal_quantile(np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        conformal_quantile(np.array([np.inf]), 0.5)
    with pytest.raises(ValueError):
        conformal_quantile(np.array([-0.1]), 0.5)


def test_quantile_keeps_duplicates():
    # ties broken by retaining duplicates in the order statistics
    assert conformal_quantile(np.array([1.0, 1.0, 1.0, 5.0]), 0.5) == 1.0


def test_env_dataset_validation():
    x = np.ones((3, 2))
    y = np.zeros(3)
    env = EnvDataset(env_id=4, features=x, targets=y)
    assert env.n == 3 and env.p == 2
    with pytest.raises(ValueError):
        EnvDataset(env_id=0, features=x, targets=np.zeros(2))
    with pytest.raises(ValueError):
        EnvDataset(env_id=0, features=np.array([[np.nan, 1.0]]), targets=np.zeros(1))
    with pytest.raises(ValueError):
        EnvDataset(env_id=0, features=np.ones((0, 2)), targets=np.zeros(0))
    with pytest.raises(ValueError, match="^features must be a matrix, got ndim=3$"):
        EnvDataset(env_id=0, features=np.ones((3, 2, 1)), targets=y)
    with pytest.raises(ValueError, match="^targets must be a vector, got ndim=2$"):
        EnvDataset(env_id=0, features=x, targets=np.zeros((3, 1)))


def test_env_dataset_is_immutable():
    env = EnvDataset(env_id=0, features=np.ones((2, 2)), targets=np.zeros(2))
    with pytest.raises(ValueError):
        env.features[0, 0] = 7.0


def test_env_dataset_keeps_frozen_arrays_and_copies_others():
    x, y = np.ones((2, 2)), np.zeros(2)
    env = EnvDataset(env_id=0, features=x, targets=y)
    assert not np.shares_memory(env.features, x) and not np.shares_memory(env.targets, y)
    x.setflags(write=False)
    y.setflags(write=False)
    env = EnvDataset(env_id=0, features=x, targets=y)
    assert env.features is x and env.targets is y
    view = np.ones((4, 2))[::2]
    view.setflags(write=False)
    assert not np.shares_memory(EnvDataset(env_id=0, features=view, targets=y).features, view)


def test_check_envs():
    a = EnvDataset(0, np.ones((1, 1)), np.zeros(1))
    b = EnvDataset(1, np.ones((1, 1)), np.zeros(1))
    assert check_envs([a, b]) == 1
    assert check_envs((EnvDataset(3, np.ones((2, 4)), np.zeros(2)),)) == 4
    with pytest.raises(ValueError, match="need at least one environment"):
        check_envs([])
    with pytest.raises(ValueError, match="duplicate environment ids"):
        check_envs([a, EnvDataset(0, np.ones((1, 1)), np.zeros(1))])
    with pytest.raises(ValueError, match="environments disagree on feature count"):
        check_envs([a, EnvDataset(1, np.ones((1, 2)), np.zeros(1))])


MODEL = LinearIRMModel(phi=np.ones((2, 2)))
DENSITY = DensityModel(env_ids=(0, 1), means=np.zeros((2, 2)), variances=np.ones((2, 2)))


# Each container built from two environment ids; EnvDataset takes one.
ID_CONTAINERS = {
    "EnvDataset": lambda ids: EnvDataset(ids[0], np.ones((1, 1)), np.zeros(1)),
    "CalibrationState": lambda ids: CalibrationState(
        model=MODEL, env_ids=ids, scores=(np.ones(1), np.ones(1)), mu=np.zeros(2), v=np.ones(2)
    ),
    "DensityModel": lambda ids: DensityModel(
        env_ids=ids, means=np.zeros((2, 2)), variances=np.ones((2, 2))
    ),
    "InvarianceReport": lambda ids: InvarianceReport(env_ids=ids, m_hat=np.eye(2)),
}


def _ids_of(container):
    return (container.env_id,) if isinstance(container, EnvDataset) else container.env_ids


@pytest.mark.parametrize("make", ID_CONTAINERS.values(), ids=ID_CONTAINERS.keys())
def test_every_container_takes_env_ids_as_distinct_integers(make):
    ids = _ids_of(make((np.int64(3), np.int32(-1))))
    assert ids[:1] == (3,) and all(type(e) is int for e in ids)
    for bad in [(0.4, 0.6), (1.7, 2), ("3", 4), (0.5, "a")]:
        with pytest.raises(ValueError, match="env_id must be an integer"):
            make(bad)
    if len(ids) == 2:
        assert ids == (3, -1)
        with pytest.raises(ValueError, match=r"^duplicate environment ids in \(0, 0\)$"):
            make((0, 0))


@pytest.mark.parametrize("take", [
    pytest.param(lambda envs, path: fit_irmv1(envs, FitConfig()), id="fit_irmv1"),
    pytest.param(lambda envs, path: irm_objective(MODEL, envs), id="irm_objective"),
    pytest.param(save_csv, id="save_csv"),
    pytest.param(lambda envs, path: fit_density(envs), id="fit_density"),
    pytest.param(lambda envs, path: inv_statistic(MODEL, DENSITY, envs), id="inv_statistic"),
    pytest.param(lambda envs, path: calibrate(MODEL, envs), id="calibrate"),
])
def test_every_env_list_function_rejects_mixed_feature_counts_alike(tmp_path, take):
    rng = np.random.default_rng(1)
    a = EnvDataset(0, rng.normal(size=(10, 2)), rng.normal(size=10))
    b = EnvDataset(1, rng.normal(size=(10, 3)), rng.normal(size=10))
    with pytest.raises(ValueError, match="^environments disagree on feature count$"):
        take([a, b], str(tmp_path / "data.csv"))
    assert os.listdir(tmp_path) == []  # checked before any file is opened


def test_data_split_requires_matching_env():
    a = EnvDataset(0, np.ones((1, 1)), np.zeros(1))
    b = EnvDataset(1, np.ones((1, 1)), np.zeros(1))
    with pytest.raises(ValueError):
        DataSplit(train=a, calibration=b)


def test_prediction_interval_bounds():
    iv = PredictionInterval(center=1.0, half_width=2.5)
    assert iv.lower == -1.5 and iv.upper == 3.5
    assert PredictionInterval(0.0, math.inf).upper == math.inf
    with pytest.raises(ValueError):
        PredictionInterval(center=math.nan, half_width=1.0)
    with pytest.raises(ValueError):
        PredictionInterval(center=0.0, half_width=-0.1)
    with pytest.raises(ValueError):
        PredictionInterval(center=[0.0, 1.0], half_width=[1.0, math.nan])
    with pytest.raises(ValueError, match="shape"):
        PredictionInterval(center=[0.0, 1.0], half_width=1.0)


@pytest.mark.parametrize("center, half_width, message", [
    (math.nan, 1.0, "center must be finite"),
    ([0.0, math.inf], [1.0, 1.0], "center must be finite"),
    ([-math.inf, 0.0], [1.0, 1.0], "center must be finite"),
    (0.0, -0.1, "half_width must be >= 0"),
    ([0.0, 1.0], [1.0, math.nan], "half_width must be >= 0"),
    ([0.0, 1.0], [-math.inf, 1.0], "half_width must be >= 0"),
])
def test_prediction_interval_checks_name_the_bad_field(center, half_width, message):
    with pytest.raises(ValueError, match=message):
        PredictionInterval(center=center, half_width=half_width)


def test_prediction_interval_accepts_edge_values():
    iv = PredictionInterval(center=[0.0, -1e308], half_width=[-0.0, math.inf])
    assert iv.half_width[1] == math.inf
    assert len(PredictionInterval(np.empty(0), np.empty(0))) == 0


def test_prediction_interval_batch_is_elementwise_with_row_views():
    iv = PredictionInterval(center=[0.0, 10.0, 20.0], half_width=[1.0, 2.0, math.inf])
    assert len(iv) == 3
    np.testing.assert_array_equal(iv.lower, [-1.0, 8.0, -math.inf])
    np.testing.assert_array_equal(iv.contains([1.0, 7.0, -1e300]), [True, False, True])
    row = iv[1]
    assert row.center.shape == () and row.center == 10.0 and row.half_width == 2.0
    assert np.shares_memory(row.center, iv.center)
    assert [float(r.upper) for r in iv] == [1.0, 12.0, math.inf]
    with pytest.raises(ValueError):
        iv.center[0] = 5.0  # read-only, rows included
    with pytest.raises(ValueError):
        row.half_width[...] = 0.0
    with pytest.raises(TypeError):
        len(row)
    # a slice is the interval of its rows, as a read-only view
    truths = np.array([1.0, 7.0, -1e300])
    for a, b in [(0, 3), (1, 3), (0, 1), (2, 3)]:
        part = iv[a:b]
        whole = PredictionInterval(iv.center[a:b], iv.half_width[a:b])
        assert part.center.shape == part.half_width.shape == (b - a,)
        assert np.shares_memory(part.center, iv.center)
        assert part.center.tobytes() == whole.center.tobytes()
        assert part.half_width.tobytes() == whole.half_width.tobytes()
        assert coverage_rate(part, truths[a:b]) == coverage_rate(whole, truths[a:b])
        assert average_length(part) == average_length(whole)
        with pytest.raises(ValueError):
            part.half_width[0] = 0.0


def test_prediction_interval_iterates_its_row_views():
    rng = np.random.default_rng(8)
    iv = PredictionInterval(center=rng.normal(size=5), half_width=rng.exponential(size=5))
    rows = list(iv)
    assert len(rows) == len(iv)
    for i, row in enumerate(rows):
        assert row.center.shape == () and row.half_width.shape == ()
        assert row.center.tobytes() == iv[i].center.tobytes()
        assert row.half_width.tobytes() == iv[i].half_width.tobytes()
        assert np.shares_memory(row.center, iv.center)
        assert np.shares_memory(row.half_width, iv.half_width)
    with pytest.raises(TypeError):
        iter(rows[0])  # a single point has no rows


def test_coverage_rate_counts_indicators():
    ivs = PredictionInterval([1.0, 1.0], [1.0, 1.0])
    assert coverage_rate(ivs, np.array([1.0, 3.0])) == 0.5
    assert coverage_rate(ivs, np.array([0.0, 2.0])) == 1.0
    assert coverage_rate(ivs, np.array([-5.0, 9.0])) == 0.0
    with pytest.raises(ValueError):
        coverage_rate(ivs, np.array([1.0]))
    with pytest.raises(ValueError, match="^need at least one interval$"):
        coverage_rate(PredictionInterval([], []), np.array([]))


def test_average_length_is_mean_half_width():
    assert average_length(PredictionInterval([0.0] * 3, [2.0] * 3)) == 2.0
    assert average_length(PredictionInterval([0.0, 0.0], [1.0, 3.0])) == 2.0
    assert average_length(PredictionInterval([0.0, 0.0], [1.0, math.inf])) == math.inf
    with pytest.raises(ValueError):
        average_length(PredictionInterval(np.empty(0), np.empty(0)))


def test_metrics_are_permutation_invariant():
    rng = np.random.default_rng(3)
    c, h = rng.normal(size=20), rng.exponential(size=20)
    y = rng.normal(size=20)
    perm = rng.permutation(20)
    ivs, shuffled = PredictionInterval(c, h), PredictionInterval(c[perm], h[perm])
    assert coverage_rate(ivs, y) == coverage_rate(shuffled, y[perm])
    assert average_length(ivs) == average_length(shuffled)


# ---------------------------------------------------------------------------
# write_float_rows: one process or two, the same bytes

BLOCK, THRESHOLD = 4, 6  # small, so every boundary is a few rows away
ROW_COUNTS = sorted({1, BLOCK - 1, BLOCK, BLOCK + 1, THRESHOLD - 1, THRESHOLD,
                     THRESHOLD + 1, 2 * BLOCK + 1})
EDGE_VALUES = [1e16, -2e-05, 5e-324, 0.1, -0.0, 1.7976931348623157e308, 3.0]


def edge_column(n, shift=0):
    return np.array([EDGE_VALUES[(i + shift) % len(EDGE_VALUES)] for i in range(n)])


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of BLOCK rows, the worker from THRESHOLD rows on, and the fork
    gate forced open, so a test does not depend on the host's CPUs (the gate
    has tests of its own)."""
    monkeypatch.setattr(core, "_WRITE_BLOCK_ROWS", BLOCK)
    monkeypatch.setattr(core, "_PARALLEL_ROWS", THRESHOLD)
    monkeypatch.setattr(core, "_can_fork", lambda: True)


@pytest.fixture
def two_ways(small_blocks, forks):
    """Run a write with the fork gate shut, then open; return both outputs
    and, per forked worker, the row count of the half it handed back."""

    def run(write):
        serial = forks.gate_shut(write)
        return serial, write(), [worker.handed.count(b"\n") for worker in forks]

    return run


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_save_csv_bytes_do_not_depend_on_the_worker(two_ways, tmp_path, n):
    envs = [
        EnvDataset(7, np.column_stack([edge_column(n, 1), edge_column(n, 2)]), edge_column(n)),
        EnvDataset(3, np.column_stack([edge_column(n, 4), edge_column(n, 5)]), edge_column(n, 3)),
    ]
    path = tmp_path / "data.csv"

    def write():
        save_csv(envs, str(path))
        return path.read_bytes()

    serial, parallel, forks = two_ways(write)
    assert parallel == serial
    lines = serial.split(b"\r\n")
    assert len(lines) == 2 * n + 2 and lines[-1] == b"" and b"\n" not in b"".join(lines)
    assert lines[1] == b"7,1e+16,-2e-05,5e-324"
    # the worker writes each environment's rows from n // 2 on
    assert forks == ([n - n // 2] * 2 if n >= THRESHOLD else [])
    assert_no_child_left()


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_save_state_bytes_do_not_depend_on_the_worker(two_ways, tmp_path, n):
    model = LinearIRMModel(phi=np.array([[0.5], [0.5]]), penalty_weight=0.0)
    scores = tuple(np.sort(np.abs(edge_column(n, shift))) for shift in (0, 3))
    state = CalibrationState(model, (0, 1), scores, np.array([0.0, -2e-05]), np.array([1.0, 5e-324]))
    path = tmp_path / "state.txt"

    def write():
        save_state(state, str(path))
        return path.read_bytes()

    serial, parallel, forks = two_ways(write)
    assert parallel == serial
    assert len(serial.splitlines()) == 2 * n + 2
    assert forks == ([n - n // 2] * 2 if n >= THRESHOLD else [])
    assert_no_child_left()


@pytest.mark.parametrize("to_stdout", [False, True], ids=["file", "stdout"])
@pytest.mark.parametrize("n", ROW_COUNTS)
def test_predict_output_does_not_depend_on_the_worker(two_ways, tmp_path, capsys, n, to_stdout):
    # phi's columns sum to 1, so each center is its point: the edge values
    model = LinearIRMModel(phi=np.array([[0.5], [0.5]]), penalty_weight=0.0)
    state = CalibrationState(model, (0,), (np.array([0.0, 2e-05, 1.0]),), np.zeros(1), np.ones(1))
    save_model(model, str(tmp_path / "model.txt"))
    save_state(state, str(tmp_path / "state.txt"))
    points = tmp_path / "points.csv"
    points.write_text("x1\n" + "".join(f"{v!r}\n" for v in edge_column(n).tolist()))
    out = tmp_path / "intervals.csv"
    argv = ["predict", "--model", str(tmp_path / "model.txt"), "--calibration",
            str(tmp_path / "state.txt"), "--input", str(points), "--alpha", "0.25",
            "--method", "sc"]

    def write():
        assert cli.main(argv + ([] if to_stdout else ["--out", str(out)])) == 0
        printed = capsys.readouterr().out
        return printed if to_stdout else out.read_text()

    serial, parallel, forks = two_ways(write)
    assert parallel == serial
    lines = serial.splitlines()
    assert lines[0] == "center,lower,upper" and len(lines) == n + 1
    assert lines[1].startswith("1e+16,")
    assert forks == ([n - n // 2] if n >= THRESHOLD else [])
    assert_no_child_left()


# cpus is the affinity mask, or for an int the CPU count of a system without one.
@pytest.mark.parametrize("cpus, second_thread, expected", [
    ({0, 1}, False, True),
    ({0}, False, False),
    ({0, 1}, True, False),
    (2, False, True),
    (1, False, False),
], ids=["two-cpus", "one-cpu", "second-thread", "two-cpus-no-affinity", "one-cpu-no-affinity"])
def test_the_worker_needs_a_second_cpu_and_no_second_thread(
    monkeypatch, forks, cpus, second_thread, expected
):
    if isinstance(cpus, int):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(core, "_PARALLEL_ROWS", 2)
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    if second_thread:
        helper.start()
    else:
        # an unpinned BLAS may keep threads of its own; the thread count is
        # the subject of the second-thread case, not of these
        monkeypatch.setattr(core, "_thread_count", lambda: 1)
    try:
        assert core._can_fork() is expected
        out = io.StringIO()
        core.write_float_rows(out, [np.arange(3.0)])
        assert out.getvalue() == "0.0\n1.0\n2.0\n"
        assert [worker.status for worker in forks] == ([0] if expected else [])
    finally:
        release.set()
        if second_thread:
            helper.join(timeout=10)
            assert not helper.is_alive()


def test_the_thread_count_is_threadings_where_proc_lists_no_threads(monkeypatch):
    def unlisted(path):
        raise OSError(f"cannot list {path}")

    monkeypatch.setattr(os, "listdir", unlisted)
    assert core._thread_count() == threading.active_count()


def test_the_suite_runs_on_one_os_thread():
    # conftest.py pins OpenBLAS before numpy's import, so the tests that fork
    # a worker do so from a process the gate would let fork
    assert core._thread_count() == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_a_thread_that_threading_does_not_count_closes_the_gate(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started, release, finished = (_thread.allocate_lock() for _ in range(3))
    for lock in (started, release, finished):
        lock.acquire()

    def hold():
        started.release()
        release.acquire()
        finished.release()

    active = threading.active_count()
    _thread.start_new_thread(hold, ())
    started.acquire()
    try:
        assert threading.active_count() == active
        assert core._can_fork() is False
    finally:
        release.release()
        assert finished.acquire(timeout=10)


def test_a_failing_worker_is_reaped_and_the_write_formats_its_rows_itself(
    small_blocks, monkeypatch
):
    columns = [edge_column(20), edge_column(20, 1)]
    serial = io.StringIO()
    core._write_blocks(serial, columns, "", "\n", 0, 20)
    parent, write_blocks = os.getpid(), core._write_blocks

    def failing_in_the_worker(fh, columns, prefix, end, start, stop):
        if os.getpid() != parent:
            write_blocks(fh, columns, prefix, end, start, start + 1)  # a partial half
            raise RuntimeError("worker failure")
        write_blocks(fh, columns, prefix, end, start, stop)

    monkeypatch.setattr(core, "_write_blocks", failing_in_the_worker)
    out = io.StringIO()
    core.write_float_rows(out, columns)
    assert out.getvalue() == serial.getvalue()
    assert_no_child_left()


class _FailingWrites(io.StringIO):
    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        raise self.error


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                         ids=["exception", "interrupt"])
def test_a_failure_in_the_parents_half_reaps_the_worker(small_blocks, error):
    with pytest.raises(type(error)):
        core.write_float_rows(_FailingWrites(error), [np.arange(20.0)])
    assert_no_child_left()


def no_fork():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def test_a_write_whose_fork_fails_formats_every_row_itself(small_blocks, monkeypatch):
    columns = [edge_column(20), edge_column(20, 1)]
    serial = io.StringIO()
    core._write_blocks(serial, columns, "", "\n", 0, 20)
    monkeypatch.setattr(os, "fork", no_fork)
    out = io.StringIO()
    core.write_float_rows(out, columns)
    assert out.getvalue() == serial.getvalue()


# ---------------------------------------------------------------------------
# _in_two: one worker lifecycle and one fallback for every two-process path


@pytest.mark.parametrize("failure", [
    None, "small", "worker-raises", "worker-exits", "no-fork", "own-raises", "own-interrupted",
])
def test_in_two_gives_the_one_process_result_or_error_and_leaves_no_child(
    monkeypatch, failure
):
    parent = os.getpid()
    monkeypatch.setattr(core, "_can_fork", lambda: True)

    def own():
        if failure == "own-raises":
            raise RuntimeError("own failure")
        if failure == "own-interrupted":
            raise KeyboardInterrupt
        return "head,"

    def work(out):
        if os.getpid() != parent and failure is not None:
            if failure.startswith("own"):
                time.sleep(60)  # only the kill ends this worker in time
            out.write("half a tail")
            out.flush()
            if failure == "worker-exits":
                os._exit(3)
            raise RuntimeError("worker failure")
        out.write("tail")

    def join(head, out):
        return head + out.read()

    if failure == "no-fork":
        monkeypatch.setattr(os, "fork", no_fork)
    if failure == "small":  # the caller's size test says no: no fork is tried
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a small job"))
    fork = failure != "small"
    start = time.monotonic()
    if failure in ("own-raises", "own-interrupted"):
        error = RuntimeError if failure == "own-raises" else KeyboardInterrupt
        with pytest.raises(error):
            core._in_two(fork, own, work, join)
    else:
        assert core._in_two(fork, own, work, join) == "head,tail"
    assert time.monotonic() - start < 30
    assert_no_child_left()


def small_jobs(tmp_path):
    """What a 10-row write, a 2-row points read and a 2-replication run give."""
    fh = io.StringIO()
    core.write_float_rows(fh, [edge_column(10), edge_column(10, 3)])
    points = tmp_path / "points.csv"
    points.write_text("x1,x2\n0.5,1e16\n-2e-05,5e-324\n", encoding="utf-8")
    config = bench.ExperimentConfig(setting="FOU", n_train_total=150, n_cal_total=150,
                                    n_test_total=90, replications=2,
                                    fit=FitConfig(penalty_weight=3.0, init_scale=1.0))
    return fh.getvalue(), load_points(str(points), 2).tobytes(), repr(bench.run_experiment(config))


def test_a_job_too_small_to_fork_hands_back_in_memory(monkeypatch, tmp_path):
    # The same jobs past their size tests, with the gate shut, hand back
    # through the file; below them, through memory, with the same bytes and rows.
    temporary_file, opened = tempfile.TemporaryFile, []

    def noted_file(*args, **kwargs):
        opened.append(temporary_file(*args, **kwargs))
        return opened[-1]

    def no_file(*args, **kwargs):
        raise OSError("opened a temporary file")

    monkeypatch.setattr(core, "_can_fork", lambda: False)
    with monkeypatch.context() as past:
        for module, name in ((core, "_PARALLEL_ROWS"), (core, "_PARALLEL_BYTES"),
                             (bench, "_PARALLEL_REPLICATIONS")):
            past.setattr(module, name, 1)
        past.setattr(tempfile, "TemporaryFile", noted_file)
        through_file = small_jobs(tmp_path)
    assert len(opened) == 3
    monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    assert small_jobs(tmp_path) == through_file
    # a job past its size test keeps the file with the gate shut
    with pytest.raises(OSError, match="^opened a temporary file$"):
        core.write_float_rows(io.StringIO(), [np.zeros(core._PARALLEL_ROWS)])
