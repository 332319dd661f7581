import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from acir import core, datagen
from acir.core import EnvDataset
from acir.datagen import (
    DEFAULT_ENV_PARAMS,
    CsvParseError,
    SemConfig,
    _normal,
    env_sizes,
    generate_sem,
    load_csv,
    load_points,
    save_csv,
    split_dataset,
)
from conftest import assert_no_child_left

N_BIG = 10000


def var_se(sigma2, n):
    """Standard error of a Gaussian sample variance: sigma^2 * sqrt(2/(n-1))."""
    return sigma2 * np.sqrt(2.0 / (n - 1))


def test_config_draws_weights_once_and_zeroes_hidden_under_f():
    fou = SemConfig(setting="FOU", seed=9)
    pou = SemConfig(setting="POU", seed=9)
    assert np.all(fou.w_h1 == 0.0) and np.all(fou.w_hy == 0.0)
    assert np.any(pou.w_h1 != 0.0)
    # observed-path weights shared between F and P at the same seed
    np.testing.assert_array_equal(fou.w_1y, pou.w_1y)
    np.testing.assert_array_equal(fou.w_y2, pou.w_y2)


def test_config_validation():
    with pytest.raises(ValueError):
        SemConfig(setting="XYZ")
    with pytest.raises(ValueError):
        SemConfig(setting="FOU", dim_x1=0)
    with pytest.raises(ValueError):
        SemConfig(setting="FOU", env_params=(0.2, -1.0))
    with pytest.raises(ValueError):
        generate_sem(SemConfig(setting="FOU"), env_param=0.7, n=10, stream_seed=0)


def test_a_negative_sem_seed_is_rejected_with_the_seed_rule():
    with pytest.raises(ValueError, match=r"^seeds must be >= 0, got -1$"):
        SemConfig(setting="FOU", seed=-1)


def test_a_negative_stream_seed_is_rejected_with_the_seed_rule():
    with pytest.raises(ValueError, match=r"^seeds must be >= 0, got -1$"):
        generate_sem(SemConfig(setting="FOU"), env_param=0.2, n=10, stream_seed=-1)


def test_a_negative_split_seed_is_rejected_with_the_seed_rule():
    data = EnvDataset(0, np.ones((4, 1)), np.zeros(4))
    with pytest.raises(ValueError, match=r"^seeds must be >= 0, got -1$"):
        split_dataset(data, 0.5, seed=-1)


@pytest.mark.parametrize("env_params, message", [
    ((), "at least one environment"),
    ((1.0, 1.0), "distinct"),
    ((0.5, 2, 2.0), "distinct"),
    ((float("nan"), 1.0), "finite"),
    ((float("inf"), 1.0), "finite"),
])
def test_config_rejects_empty_duplicate_or_non_finite_env_params(env_params, message):
    with pytest.raises(ValueError, match=message):
        SemConfig(setting="FOU", env_params=env_params)


def test_env_sizes_give_the_remainder_to_leading_envs():
    assert env_sizes(31, 3) == [11, 10, 10]
    assert env_sizes(3, 3) == [1, 1, 1]
    assert SemConfig(setting="FOU").env_params == DEFAULT_ENV_PARAMS
    with pytest.raises(ValueError, match="2 rows"):
        env_sizes(2, 3)


def test_shapes_and_env_id():
    cfg = SemConfig(setting="FEU")
    data = generate_sem(cfg, 2.0, 2000, stream_seed=1)
    assert data.features.shape == (2000, 10)
    assert data.targets.shape == (2000,)
    assert data.env_id == 1  # index of 2.0 in (0.2, 2.0, 5.0)


def test_determinism_given_seeds():
    cfg = SemConfig(setting="PEU", seed=4)
    a = generate_sem(cfg, 5.0, 50, stream_seed=12)
    b = generate_sem(cfg, 5.0, 50, stream_seed=12)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    c = generate_sem(cfg, 5.0, 50, stream_seed=13)
    assert not np.array_equal(a.targets, c.targets)


def test_fou_first_block_variance_matches_env_scale():
    # Under F the confounder is disconnected, so Var(X1_j) = e^2 exactly.
    cfg = SemConfig(setting="FOU", seed=0)
    for e in (0.2, 2.0):
        data = generate_sem(cfg, e, N_BIG, stream_seed=3)
        x1 = data.features[:, : cfg.dim_x1]
        sample_var = x1.var(axis=0, ddof=1)
        tol = 3.0 * var_se(e**2, N_BIG)
        assert np.all(np.abs(sample_var - e**2) < tol)


def test_pou_first_block_variance_includes_confounder():
    # Under P, Var(X1_j) = e^2 * (1 + ||row_j(W_h1)||^2): the confounder, also
    # scaled by e, adds its squared row norm on top of the direct noise.
    cfg = SemConfig(setting="POU", seed=0)
    e = 2.0
    data = generate_sem(cfg, e, N_BIG, stream_seed=3)
    x1 = data.features[:, : cfg.dim_x1]
    expected = e**2 * (1.0 + np.sum(cfg.w_h1**2, axis=1))
    sample_var = x1.var(axis=0, ddof=1)
    tol = 3.0 * var_se(expected, N_BIG)
    assert np.all(np.abs(sample_var - expected) < tol)


def test_second_block_variance_tracks_noise_regime():
    # Var(X2_j) = w_y2_j^2 Var(Y) + sigma_2^2, with sigma_2^2 = 1 under O
    # and e^2 under E; Var(Y) = ||w_1y||^2 e^2 + sigma_y^2 under F.
    e = 2.0
    for setting, sigma_y2, sigma_22 in [("FOU", e**2, 1.0), ("FEU", 1.0, e**2)]:
        cfg = SemConfig(setting=setting, seed=1)
        data = generate_sem(cfg, e, N_BIG, stream_seed=5)
        var_y = float(cfg.w_1y @ cfg.w_1y) * e**2 + sigma_y2
        y_var = data.targets.var(ddof=1)
        assert abs(y_var - var_y) < 3.0 * var_se(var_y, N_BIG)
        x2 = data.features[:, cfg.dim_x1:]
        expected = cfg.w_y2**2 * var_y + sigma_22
        # X2 is not Gaussian (product structure), so give the moment check
        # more room than the Gaussian standard error.
        assert np.all(np.abs(x2.var(axis=0, ddof=1) - expected) < 6.0 * var_se(expected, N_BIG))


def test_x1_variances_monotone_in_env_param():
    cfg = SemConfig(setting="FOU", seed=2)
    variances = []
    for e in cfg.env_params:
        data = generate_sem(cfg, e, N_BIG, stream_seed=8)
        variances.append(data.features[:, : cfg.dim_x1].var(axis=0).mean())
    assert variances[0] < variances[1] < variances[2]


def test_split_sizes_and_determinism():
    cfg = SemConfig(setting="FOU")
    data = generate_sem(cfg, 2.0, 2000, stream_seed=0)
    sp = split_dataset(data, 0.5, seed=3)
    assert sp.train.n == 1000 and sp.calibration.n == 1000
    sp2 = split_dataset(data, 0.5, seed=3)
    np.testing.assert_array_equal(sp.train.features, sp2.train.features)
    for part in (data, sp.train, sp.calibration):
        for a in (part.features, part.targets):
            assert a.flags.owndata and not a.flags.writeable
    assert not np.shares_memory(sp.train.features, data.features)


def test_split_partitions_the_rows():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 40))
        frac = float(rng.uniform(0.2, 0.8))
        if not 1 <= int(np.floor(frac * n)) < n:
            continue
        data = EnvDataset(0, rng.normal(size=(n, 2)), rng.normal(size=n))
        sp = split_dataset(data, frac, seed=trial)
        rows = {tuple(r) for r in data.features}
        train_rows = {tuple(r) for r in sp.train.features}
        cal_rows = {tuple(r) for r in sp.calibration.features}
        assert train_rows | cal_rows == rows
        assert not (train_rows & cal_rows)
        assert sp.train.n + sp.calibration.n == n


def test_split_rejects_empty_parts():
    data = EnvDataset(0, np.ones((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        split_dataset(data, 0.01, seed=0)
    with pytest.raises(ValueError):
        split_dataset(EnvDataset(0, np.ones((1, 1)), np.zeros(1)), 0.5, seed=0)


def test_csv_round_trip_is_exact(tmp_path):
    cfg = SemConfig(setting="POU", seed=5)
    envs = [generate_sem(cfg, e, 25, stream_seed=9) for e in cfg.env_params]
    path = tmp_path / "data.csv"
    save_csv(envs, str(path))
    back = load_csv(str(path))
    assert [env.env_id for env in back] == [env.env_id for env in envs]
    for orig, re_read in zip(envs, back):
        np.testing.assert_array_equal(orig.features, re_read.features)
        np.testing.assert_array_equal(orig.targets, re_read.targets)


def test_save_csv_rejects_two_environments_with_one_id(tmp_path):
    # load_csv would read them back as one merged environment
    env = EnvDataset(0, np.ones((2, 1)), np.zeros(2))
    path = tmp_path / "data.csv"
    with pytest.raises(ValueError, match=r"duplicate environment ids in \[0, 0\]"):
        save_csv([env, env], str(path))
    assert not path.exists()


def test_csv_groups_rows_by_env(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("env,y,x1\n1,0.5,1.0\n1,0.25,2.0\n")
    envs = load_csv(str(path))
    assert len(envs) == 1 and envs[0].n == 2

    path.write_text(
        "env,y,x1\n2014,0.0,1.0\n2015,1.0,2.0\n2016,2.0,3.0\n"
    )
    years = load_csv(str(path))
    assert [env.env_id for env in years] == [2014, 2015, 2016]


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("env,y,x1\n0,1.0\n")
    with pytest.raises(CsvParseError, match="2"):
        load_csv(str(path))
    path.write_text("env,y,x1\n0,abc,1.0\n")
    with pytest.raises(CsvParseError, match="2"):
        load_csv(str(path))
    path.write_text("wrong,header\n")
    with pytest.raises(CsvParseError):
        load_csv(str(path))


_MAX = np.finfo(float).max
_EDGE_FLOATS = [0.0, -0.0, _MAX, -_MAX, 5e-324, -5e-324, 2.2250738585072014e-308]
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from(_EDGE_FLOATS),
)


@st.composite
def _environments(draw):
    p = draw(st.integers(1, 4))
    env_ids = draw(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4, unique=True)
    )
    envs = []
    for env_id in env_ids:
        n = draw(st.integers(1, 6))
        table = draw(arrays(np.float64, (n, p + 1), elements=_FLOATS))
        envs.append(EnvDataset(env_id, table[:, 1:], table[:, 0]))
    return envs


@settings(deadline=None, max_examples=150)
@given(_environments())
def test_csv_round_trip_is_bit_exact(envs):
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d) / "data.csv")
        save_csv(envs, path)
        back = load_csv(path)
    assert [env.env_id for env in back] == [env.env_id for env in envs]
    for orig, re_read in zip(envs, back):
        assert re_read.features.shape == orig.features.shape
        assert re_read.features.tobytes() == orig.features.tobytes()
        assert re_read.targets.tobytes() == orig.targets.tobytes()


def test_save_csv_writes_crlf_lines(tmp_path):
    path = tmp_path / "data.csv"
    save_csv([EnvDataset(3, np.array([[0.1], [-2e-05]]), np.array([1.0, 1e16]))], str(path))
    assert path.read_bytes() == b"env,y,x1\r\n3,1.0,0.1\r\n3,1e+16,-2e-05\r\n"


def test_csv_interleaved_envs_keep_first_appearance_and_row_order(tmp_path):
    path = tmp_path / "mixed.csv"
    ids = [0, 1, 0, 1, 2, 0]
    path.write_text("env,y,x1\n" + "".join(f"{e},{i},{10 * i}\n" for i, e in enumerate(ids)))
    envs = load_csv(str(path))
    assert [env.env_id for env in envs] == [0, 1, 2]
    assert [env.targets.tolist() for env in envs] == [[0, 2, 5], [1, 3], [4]]
    assert envs[0].features[:, 0].tolist() == [0, 20, 50]

    # First appearance, not numeric order, sets the environment order.
    ids = [7, -3, 7, 2, -3]
    path.write_text("env,y,x1\n" + "".join(f"{e},{i},0\n" for i, e in enumerate(ids)))
    envs = load_csv(str(path))
    assert [env.env_id for env in envs] == [7, -3, 2]
    assert [env.targets.tolist() for env in envs] == [[0, 2], [1, 4], [3]]


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_csv_accepts_blank_lines_and_either_line_end(tmp_path, newline):
    path = tmp_path / "data.csv"
    lines = ["env,y,x1,x2", "", "1,0.5,1e-3,-2", "", "", "0,+.25,3E+2,4", "1,-0.0,5,6.", ""]
    path.write_bytes(newline.join(lines).encode())
    envs = load_csv(str(path))
    assert [env.env_id for env in envs] == [1, 0]
    np.testing.assert_array_equal(envs[0].features, [[1e-3, -2.0], [5.0, 6.0]])
    np.testing.assert_array_equal(envs[1].targets, [0.25])
    # No final line end at all.
    path.write_bytes(newline.join(lines[:3]).encode())
    assert load_csv(str(path))[0].n == 1


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("0,1.0", "expected 3 columns, got 2"),
        ("1.0,1.0,2.0", "env '1.0' is not an integer"),
        ('0,"1.0",2.0', "non-numeric cell"),
        ("0,#,2.0", "non-numeric cell"),
        ("0,1.0,2.0,", "expected 3 columns, got 4"),
        ("   ", "expected 3 columns, got 1"),
        ("0,nan,2.0", "non-finite cell"),
        ("0,1.0,-inf", "non-finite cell"),
        ("0,1e400,2.0", "non-finite cell"),
    ],
)
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_csv_rejects_malformed_rows_with_line_number(tmp_path, bad_row, message, newline):
    path = tmp_path / "bad.csv"
    lines = ["env,y,x1", "0,1.0,2.0", "", bad_row, "1,1.0,2.0", ""]
    path.write_bytes(newline.join(lines).encode())
    with pytest.raises(CsvParseError) as info:
        load_csv(str(path))
    assert str(info.value).startswith(f"{path}: line 4: {message}")


@pytest.mark.parametrize(
    "bad_row", ["0,1_0,2.0", "0,\u0661,2.0", f"{2**63},1.0,2.0", "\u0661,1.0,2.0"]
)
def test_csv_rejects_numbers_outside_the_grammar(tmp_path, bad_row):
    # Python's int() or float() takes each of these but the README grammar does not.
    path = tmp_path / "bad.csv"
    path.write_text(f"env,y,x1\n0,1.0,2.0\n{bad_row}\n", encoding="utf-8")
    with pytest.raises(CsvParseError) as info:
        load_csv(str(path))
    assert str(info.value).startswith(f"{path}: line 3: cell outside the number grammar")


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("env,y,x1\n", "no data rows"),
    ("env,y,x1\r\n\r\n\r\n", "no data rows"),
])
def test_csv_without_rows_is_rejected_without_warning(tmp_path, text, message):
    # The suite turns warnings into errors, so a loadtxt "no data" warning fails here.
    path = tmp_path / "empty.csv"
    path.write_bytes(text.encode())
    with pytest.raises(CsvParseError, match=message):
        load_csv(str(path))


def test_load_points_reads_a_matrix_and_names_bad_lines(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text(" x1 , x2\n1.5,-2\n\n3e-3,4\n")
    np.testing.assert_array_equal(load_points(str(path), 2), [[1.5, -2.0], [3e-3, 4.0]])
    path.write_text("x1\n0.5\n")
    assert load_points(str(path), 1).shape == (1, 1)
    path.write_text("x1,x2\n1,2\n")
    with pytest.raises(CsvParseError, match="expected header x1,x2,x3"):
        load_points(str(path), 3)
    path.write_text("x1,x2\n1,2\n3,inf\n")
    with pytest.raises(CsvParseError, match="line 3: non-finite cell"):
        load_points(str(path), 2)
    path.write_text("x1,x2\n1,2,3\n")
    with pytest.raises(CsvParseError, match="line 2: expected 2 columns, got 3"):
        load_points(str(path), 2)


def _oracle_generate_sem(config, env_param, n, stream_seed):
    """generate_sem as first written: one rng.normal call per block, then hstack."""
    e = float(env_param)
    idx = config.env_index(e)
    sigma_y, sigma_2 = (e, 1.0) if config.setting[1] == "O" else (1.0, e)
    root = np.random.SeedSequence([int(config.seed), int(stream_seed), idx])
    ss_h, ss_x1, ss_y, ss_x2 = root.spawn(4)
    rng_h, rng_x1, rng_y, rng_x2 = map(np.random.default_rng, (ss_h, ss_x1, ss_y, ss_x2))
    h = rng_h.normal(0.0, e, size=(n, config.dim_x1))
    x1 = rng_x1.normal(0.0, e, size=(n, config.dim_x1)) + h @ config.w_h1.T
    y = x1 @ config.w_1y + rng_y.normal(0.0, sigma_y, size=n) + h @ config.w_hy
    x2 = np.outer(y, config.w_y2) + rng_x2.normal(0.0, sigma_2, size=(n, config.dim_x2))
    return np.hstack([x1, x2]), y


@pytest.mark.parametrize("setting", ["FOU", "FEU", "POU", "PEU"])
def test_generate_sem_equals_the_per_block_normal_draws_bit_for_bit(setting):
    cfg = SemConfig(setting=setting, env_params=(0.0, 0.2, 5.0), dim_x1=3, dim_x2=4, seed=5)
    for e in cfg.env_params:
        for n in (1, 40):
            data = generate_sem(cfg, e, n, stream_seed=2)
            features, targets = _oracle_generate_sem(cfg, e, n, 2)
            assert data.features.tobytes() == features.tobytes()
            assert data.targets.tobytes() == targets.tobytes()


@pytest.mark.parametrize("seed, stream_seed", [(0, 0), (2**32 - 1, 7), (2**32, 1), (3, 2**40 + 5)])
def test_seeds_of_any_width_give_the_streams_of_their_int_list(seed, stream_seed):
    # One uint32 array when every seed fits 32 bits; the list numpy splits otherwise.
    cfg = SemConfig(setting="PEU", seed=seed)
    data = generate_sem(cfg, 5.0, 30, stream_seed=stream_seed)
    features, targets = _oracle_generate_sem(cfg, 5.0, 30, stream_seed)
    assert data.features.tobytes() == features.tobytes()
    assert data.targets.tobytes() == targets.tobytes()


@pytest.mark.parametrize("scale", [0.0, 5e-324, 1.0, 1e300])
def test_in_place_draw_is_generator_normal_bit_for_bit(scale):
    # 1e300 * z overflows for |z| > 1.8: in place numpy says so, normal() does not
    with np.errstate(over="ignore"):
        for shape in [7, (50, 3)]:
            got = _normal(np.random.default_rng(4), scale, shape)
            want = np.random.default_rng(4).normal(0.0, scale, size=shape)
            assert got.tobytes() == want.tobytes()
            assert got.shape == want.shape


def test_zero_noise_writes_no_negative_zero():
    # Under POU env_param 0 scales H, X1 and the Y noise to 0; 0 * z = -0.0
    # of every negative z, where normal(0.0, 0.0) gives +0.0.
    cfg = SemConfig(setting="POU", env_params=(0.0, 1.0), seed=2)
    data = generate_sem(cfg, 0.0, 200, stream_seed=3)
    x1 = data.features[:, : cfg.dim_x1]
    assert not x1.any() and not data.targets.any()
    assert not np.signbit(x1).any() and not np.signbit(data.targets).any()


# ---------------------------------------------------------------------------
# Reading on one process or two: the same rows, the same errors


@pytest.fixture
def two_reads(monkeypatch):
    """Run a read on one process, then with the fork gate forced open and no
    size threshold; return both results and, per read of the second run,
    whether parse_in_two joined the rows (False: it declined or failed)."""
    parse_in_two = datagen.parse_in_two
    joined = []

    def recorded(*args):
        rows = parse_in_two(*args)
        joined.append(rows is not None)
        return rows

    monkeypatch.setattr(datagen, "parse_in_two", recorded)

    def run(read):
        with monkeypatch.context() as serial_only:
            serial_only.setattr(core, "_can_fork", lambda: False)
            serial = read()
        assert not any(joined)
        joined.clear()
        monkeypatch.setattr(core, "_PARALLEL_BYTES", 0)
        monkeypatch.setattr(core, "_can_fork", lambda: True)
        return serial, read(), joined

    return run


def csv_bytes(envs):
    return [(env.env_id, env.features.tobytes(), env.targets.tobytes()) for env in envs]


def read_csv_bytes(path):
    return lambda: csv_bytes(load_csv(str(path)))


def split_of(data):
    """Where parse_in_two splits a file: after the first newline from the middle byte on."""
    return data.index(b"\n", len(data) // 2) + 1


def data_rows(n, ids=(5, 2, 9, 2)):
    """n rows of interleaved env ids and edge values, each row its own."""
    values = [1e16, -2e-05, 5e-324, 0.1, -0.0, 1.7976931348623157e308, 3.0]
    return [f"{ids[i % len(ids)]},{values[i % 7]!r},{i},{values[(i + 3) % 7]!r}"
            for i in range(n)]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("final_newline", [True, False], ids=["final-newline", "no-final-newline"])
def test_two_process_read_is_the_one_process_read(two_reads, tmp_path, newline, final_newline):
    path = tmp_path / "data.csv"
    lines = ["env,y,x1,x2"] + data_rows(41)
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
    serial, parallel, joined = two_reads(read_csv_bytes(path))
    assert parallel == serial and joined == [True]
    assert [env_id for env_id, _, _ in serial] == [5, 2, 9]
    # rows of one environment from both halves, in file order
    assert load_csv(str(path))[1].features[:, 0].tolist() == list(range(1, 41, 2))
    assert_no_child_left()


def with_blank_line(newline, where):
    """A data file with a blank line ``where`` lines from the first line after
    the split (-1: the line before it). A blank line just before the split
    needs the middle byte to be its newline, so row counts are tried until
    one puts it there."""
    for n in range(40, 400):
        lines = ["env,y,x1,x2"] + data_rows(n)
        plain = (newline.join(lines) + newline).encode()
        first_tail = plain[:split_of(plain)].count(newline.encode())
        for i in range(first_tail - 2, first_tail + 3):
            data = (newline.join(lines[:i] + [""] + lines[i:]) + newline).encode()
            if data[:split_of(data)].count(newline.encode()) + where == i:
                return data
    raise AssertionError(f"no blank line {where} from the split")


@pytest.mark.parametrize("where", [-1, 0, 1], ids=["before", "at", "after"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_blank_line_beside_the_split_changes_nothing(two_reads, tmp_path, newline, where):
    path = tmp_path / "data.csv"
    path.write_bytes(with_blank_line(newline, where))
    serial, parallel, joined = two_reads(read_csv_bytes(path))
    assert parallel == serial and joined == [True]


@pytest.mark.parametrize("half", ["head", "tail"])
def test_a_half_of_only_blank_lines_is_read_without_warning(two_reads, tmp_path, half):
    # loadtxt warns on a run without rows, and the suite makes warnings errors
    rows, blanks = "".join(f"{row}\n" for row in data_rows(30)), "\n" * 2000
    path = tmp_path / "data.csv"
    path.write_text("env,y,x1,x2\n" + (blanks + rows if half == "head" else rows + blanks))
    data = path.read_bytes()
    head, tail = data[:split_of(data)].split(b"\n", 1)[1], data[split_of(data):]
    assert (head if half == "head" else tail).strip(b"\n") == b""
    serial, parallel, joined = two_reads(read_csv_bytes(path))
    assert parallel == serial and joined == [True]
    assert_no_child_left()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_two_process_points_are_the_one_process_points(two_reads, tmp_path, newline):
    path = tmp_path / "points.csv"
    lines = ["x1,x2,x3"] + [row.split(",", 1)[1] for row in data_rows(33)]
    path.write_bytes(newline.join(lines).encode())
    serial, parallel, joined = two_reads(lambda: load_points(str(path), 3).tobytes())
    assert parallel == serial and joined == [True]
    assert len(serial) == 33 * 3 * 8


@pytest.mark.parametrize("half", ["head", "tail"])
@pytest.mark.parametrize("bad_row", ["0,1.0", "0,abc,1.0,2.0", "0,nan,1.0,2.0", "0,1_0,1.0,2.0"],
                         ids=["width", "non-numeric", "non-finite", "grammar"])
def test_a_bad_line_in_either_half_gives_the_one_process_error(two_reads, tmp_path, half, bad_row):
    lines = ["env,y,x1,x2"] + data_rows(40)
    lines.insert(5 if half == "head" else 36, bad_row)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")

    def error():
        with pytest.raises(CsvParseError) as info:
            load_csv(str(path))
        return str(info.value)

    serial, parallel, joined = two_reads(error)
    assert parallel == serial
    assert serial.startswith(f"{path}: line {6 if half == 'head' else 37}: ")
    # rows that fail to parse fall back to one process; a non-finite one parses
    assert joined == [bad_row == "0,nan,1.0,2.0"]
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_a_failed_worker_is_reaped_and_the_read_falls_back(two_reads, tmp_path, monkeypatch, failure):
    path = tmp_path / "data.csv"
    path.write_text("env,y,x1,x2\n" + "".join(f"{row}\n" for row in data_rows(40)))
    parent, parse_run = os.getpid(), datagen._parse_run

    def failing_in_the_worker(*args):
        if os.getpid() != parent:
            if failure == "exits":
                os._exit(3)
            raise RuntimeError("worker failure")
        return parse_run(*args)

    monkeypatch.setattr(datagen, "_parse_run", failing_in_the_worker)
    serial, parallel, joined = two_reads(read_csv_bytes(path))
    # this process parses the failed worker's half itself and joins the rows
    assert parallel == serial and joined == [True]
    assert_no_child_left()


def test_an_interrupt_in_this_processs_half_reaps_the_worker(two_reads, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("env,y,x1,x2\n" + "".join(f"{row}\n" for row in data_rows(40)))
    parent, parse_run = os.getpid(), datagen._parse_run
    interrupt = []

    def interrupted_here(*args):
        if interrupt and os.getpid() == parent:
            raise KeyboardInterrupt
        return parse_run(*args)

    monkeypatch.setattr(datagen, "_parse_run", interrupted_here)

    def read():
        if interrupt:
            with pytest.raises(KeyboardInterrupt):
                load_csv(str(path))
        interrupt.append(True)

    two_reads(read)
    assert interrupt == [True, True]
    assert_no_child_left()


def test_a_read_whose_fork_fails_parses_every_row_itself(two_reads, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("env,y,x1,x2\n" + "".join(f"{row}\n" for row in data_rows(40)))

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    serial, parallel, joined = two_reads(read_csv_bytes(path))
    assert parallel == serial and joined == [True]


def test_a_file_below_the_threshold_is_read_on_one_process(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_text("env,y,x1,x2\n" + "".join(f"{row}\n" for row in data_rows(40)))
    monkeypatch.setattr(core, "_can_fork", lambda: True)
    monkeypatch.setattr(core, "_PARALLEL_BYTES", path.stat().st_size + 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked below the threshold"))
    assert sum(env.n for env in load_csv(str(path))) == 40
