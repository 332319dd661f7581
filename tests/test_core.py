import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acir.core import (
    DataSplit,
    EnvDataset,
    PredictionInterval,
    average_length,
    check_unique_env_ids,
    conformal_quantile,
    coverage_rate,
    sorted_conformal_quantile,
)


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


def test_check_unique_env_ids():
    a = EnvDataset(0, np.ones((1, 1)), np.zeros(1))
    b = EnvDataset(1, np.ones((1, 1)), np.zeros(1))
    check_unique_env_ids([a, b])
    with pytest.raises(ValueError):
        check_unique_env_ids([])
    with pytest.raises(ValueError):
        check_unique_env_ids([a, EnvDataset(0, np.ones((1, 1)), np.zeros(1))])


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
