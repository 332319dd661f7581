import _thread
import io
import math
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acir import cli, core
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
from acir.datagen import save_csv
from acir.invariance import DensityModel, fit_density, inv_statistic
from acir.models import FitConfig, LinearIRMModel, fit_irmv1, irm_objective, save_model
from conftest import assert_no_child_left


def brute_force_quantile(scores, alpha):
    """Oracle: sort ascending, take the k-th smallest with k = ceil((1-a)(n+1))."""
    ordered = sorted(scores)
    n = len(ordered)
    k = math.ceil((1.0 - alpha) * (n + 1))
    if k > n:
        return math.inf
    return ordered[k - 1]


def test_quantile_forced_small_cases():
    assert conformal_quantile(np.array([2.0, 1.0, 4.0, 3.0]), 0.5) == 3.0
    assert conformal_quantile(np.arange(1.0, 20.0), 0.05) == 19.0
    assert conformal_quantile(np.array([1.0, 2.0, 3.0]), 0.1) == math.inf


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
def two_ways(small_blocks, monkeypatch):
    """Run a write on one process, then as write_float_rows chooses; return
    both outputs and, per write that went through core._in_two, the row
    count of the worker's half."""
    in_two = core._in_two
    forks = []

    def counted(own, work, join):
        def counted_join(head, out):
            forks.append(out.read().count("\n"))
            out.seek(0)
            return join(head, out)

        return in_two(own, work, counted_join)

    monkeypatch.setattr(core, "_in_two", counted)

    def run(write):
        with monkeypatch.context() as serial_only:
            serial_only.setattr(core, "_PARALLEL_ROWS", 10**9)
            serial = write()
        assert forks == []
        return serial, write(), forks

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


@pytest.mark.parametrize("cpus, second_thread, expected", [
    ({0, 1}, False, True),
    ({0}, False, False),
    ({0, 1}, True, False),
], ids=["two-cpus", "one-cpu", "second-thread"])
def test_the_worker_needs_a_second_cpu_and_no_second_thread(
    monkeypatch, cpus, second_thread, expected
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(core, "_PARALLEL_ROWS", 2)
    forks = []
    monkeypatch.setattr(core, "_in_two", lambda own, work, join: forks.append(True))
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
        core.write_float_rows(io.StringIO(), [np.arange(3.0)])
        assert forks == ([True] if expected else [])
    finally:
        release.set()
        if second_thread:
            helper.join(timeout=10)
            assert not helper.is_alive()


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
    None, "worker-raises", "worker-exits", "no-fork", "own-raises", "own-interrupted",
])
def test_in_two_gives_the_one_process_result_or_error_and_leaves_no_child(
    monkeypatch, failure
):
    parent = os.getpid()

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
    start = time.monotonic()
    if failure in ("own-raises", "own-interrupted"):
        error = RuntimeError if failure == "own-raises" else KeyboardInterrupt
        with pytest.raises(error):
            core._in_two(own, work, join)
    else:
        assert core._in_two(own, work, join) == "head,tail"
    assert time.monotonic() - start < 30
    assert_no_child_left()
