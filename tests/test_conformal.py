"""Calibration-state construction, similarity weighting, and both intervals."""

import numpy as np
import pytest

from acir.conformal import (
    CalibrationState,
    calibrate,
    load_state,
    moment_stats,
    save_state,
)
from acir.core import EnvDataset, conformal_quantile
from acir.models import LinearIRMModel

ALPHA = 0.05

# identity representation in two dimensions: rep(x) = (x1, x2), pred = x1 + x2
EYE_MODEL = LinearIRMModel(phi=np.eye(2), penalty_weight=0.0)


def make_state(seed=0, n=60, m=3):
    rng = np.random.default_rng(seed)
    model = LinearIRMModel(phi=rng.normal(size=(3, 4)), penalty_weight=0.0)
    envs = [
        EnvDataset(e, rng.normal(scale=e + 1, size=(n, 4)), rng.normal(size=n))
        for e in range(m)
    ]
    return model, envs, calibrate(model, envs)


# ---------------------------------------------------------------------------
# moment summaries


def test_moment_stats_hand_computed():
    # values 1,2,3,6: mean 3; squared deviations 4,1,0,9; population std
    # sqrt(14/4) = 1.8708286933869707
    mu, v = moment_stats(np.array([1.0, 2.0, 3.0, 6.0]))
    assert mu == 3.0
    assert abs(v - 1.8708286933869707) < 1e-15


def test_moment_stats_works_along_the_last_axis():
    rep = np.array([[1.0, 2.0, 3.0, 6.0], [0.0, 0.0, 2.0, 2.0]])
    mu, v = moment_stats(rep)
    np.testing.assert_array_equal(mu, [3.0, 1.0])
    np.testing.assert_array_equal(v, [moment_stats(rep[0])[1], 1.0])


def test_moment_stats_rejects_scalar_representation():
    with pytest.raises(ValueError, match=">= 2"):
        moment_stats(np.array([5.0]))


def test_calibrate_hand_computed_scores_and_moments():
    # points (1,2) and (3,1): predictions 3 and 4, targets 4 and 3, so both
    # absolute residuals are 1.  Representation moments per point:
    # (1,2) -> mu 1.5, v 0.5; (3,1) -> mu 2.0, v 1.0; env means 1.75, 0.75.
    env = EnvDataset(7, np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 3.0]))
    state = calibrate(EYE_MODEL, [env])
    assert state.env_ids == (7,)
    np.testing.assert_array_equal(state.scores[0], [1.0, 1.0])
    assert abs(state.mu[0] - 1.75) < 1e-15
    assert abs(state.v[0] - 0.75) < 1e-15


def test_calibrate_sorts_scores_ascending():
    _, _, state = make_state(seed=1)
    for sc in state.scores:
        assert np.all(np.diff(sc) >= 0)


# ---------------------------------------------------------------------------
# state validation


def test_state_rejects_duplicate_env_ids():
    with pytest.raises(ValueError, match="duplicate"):
        CalibrationState(
            model=EYE_MODEL,
            env_ids=(0, 0),
            scores=(np.array([1.0]), np.array([2.0])),
            mu=np.zeros(2),
            v=np.ones(2),
        )


def test_state_rejects_unsorted_scores():
    with pytest.raises(ValueError, match="sorted"):
        CalibrationState(
            model=EYE_MODEL,
            env_ids=(0,),
            scores=(np.array([2.0, 1.0]),),
            mu=np.zeros(1),
            v=np.ones(1),
        )


def test_state_rejects_negative_scores():
    with pytest.raises(ValueError, match="nonnegative"):
        CalibrationState(
            model=EYE_MODEL,
            env_ids=(0,),
            scores=(np.array([-1.0, 2.0]),),
            mu=np.zeros(1),
            v=np.ones(1),
        )


@pytest.mark.parametrize("field", ["scores", "mu", "v"])
def test_state_rejects_non_finite_values(field):
    fields = dict(scores=(np.array([1.0, 2.0]),), mu=np.zeros(1), v=np.ones(1))
    fields[field] = (np.array([1.0, np.nan]),) if field == "scores" else np.array([np.nan])
    with pytest.raises(ValueError, match="finite"):
        CalibrationState(model=EYE_MODEL, env_ids=(0,), **fields)


def test_state_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        CalibrationState(
            model=EYE_MODEL,
            env_ids=(0, 1),
            scores=(np.array([1.0]),),
            mu=np.zeros(2),
            v=np.ones(2),
        )


# ---------------------------------------------------------------------------
# similarity weights


def test_weights_hand_computed_equal_split():
    # state moments mu=[0,1], v=[1,2]; point (2,0) has rep (2,0), so
    # mu_x=1, v_x=1: tau_0 = exp(-0)exp(-1), tau_1 = exp(-1)exp(-0) — equal.
    state = CalibrationState(
        model=EYE_MODEL,
        env_ids=(0, 1),
        scores=(np.array([1.0]), np.array([1.0])),
        mu=np.array([0.0, 1.0]),
        v=np.array([1.0, 2.0]),
    )
    w = state.environment_weights(np.array([2.0, 0.0]))
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_weights_sum_to_one_and_positive():
    model, envs, state = make_state(seed=2)
    rng = np.random.default_rng(3)
    x = rng.normal(scale=2.0, size=(500, 4))
    w = state._weights_matrix(x)
    np.testing.assert_allclose(w.sum(axis=1), np.ones(500), atol=1e-12)
    assert np.all(w > 0)


def test_weights_survive_extreme_points_without_nan():
    # far from every environment the raw similarities underflow; the
    # log-space normalization must still return a finite distribution.
    _, _, state = make_state(seed=4)
    x = np.full((3, 4), 1e6)
    w = state._weights_matrix(x)
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(axis=1), np.ones(3), atol=1e-12)
    assert np.all(w >= 0)


def test_weights_concentrate_on_matching_environment():
    _, envs, state = make_state(seed=5, n=400)
    # points drawn like env 2 (widest scale) should prefer env 2 on average
    rng = np.random.default_rng(6)
    x = rng.normal(scale=3.0, size=(200, 4))
    w = state._weights_matrix(x).mean(axis=0)
    assert int(np.argmax(w)) == 2


# ---------------------------------------------------------------------------
# intervals


def test_sc_interval_half_width_is_pooled_quantile():
    _, _, state = make_state(seed=7)
    iv = state.sc_interval(np.zeros(4), ALPHA)
    assert iv.half_width == conformal_quantile(state.pooled_scores(), ALPHA)
    assert iv.center == state.model.predict(np.zeros(4))


def test_acir_half_width_between_env_quantiles():
    _, _, state = make_state(seed=8)
    q = state.env_quantiles(ALPHA)
    rng = np.random.default_rng(9)
    for x in rng.normal(size=(50, 4)):
        half = state.acir_interval(x, ALPHA).half_width
        assert q.min() - 1e-12 <= half <= q.max() + 1e-12


def test_acir_batch_matches_single_point():
    _, _, state = make_state(seed=10)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(20, 4))
    batch = state.acir_intervals(x, ALPHA)
    for i in range(20):
        single = state.acir_interval(x[i], ALPHA)
        assert abs(batch[i].center - single.center) < 1e-12
        assert abs(batch[i].half_width - single.half_width) < 1e-12


def test_single_point_calls_are_rows_of_a_one_row_batch():
    _, _, state = make_state(seed=10)
    rng = np.random.default_rng(11)
    delta = np.array([0.1, 0.0, 2.0])
    for x in rng.normal(size=(10, 4)):
        for single, batch in (
            (state.acir_interval(x, ALPHA), state.acir_intervals(x[None, :], ALPHA)),
            (state.acir_interval(x, ALPHA, delta), state.acir_intervals(x[None, :], ALPHA, delta)),
            (state.sc_interval(x, ALPHA), state.sc_intervals(x[None, :], ALPHA)),
        ):
            assert single.center.shape == () and len(batch) == 1
            assert single.center.tobytes() == batch.center.tobytes()
            assert single.half_width.tobytes() == batch.half_width.tobytes()


def test_degenerate_identical_envs_acir_within_one_order_statistic():
    # with m identical environments the adaptive half-width must sit within
    # one pooled order-statistic step of the split-conformal half-width
    rng = np.random.default_rng(12)
    n = 67
    x = rng.normal(size=(n, 4))
    y = rng.normal(size=n)
    model = LinearIRMModel(phi=rng.normal(size=(2, 4)), penalty_weight=0.0)
    envs = [EnvDataset(e, x, y) for e in range(3)]
    state = calibrate(model, envs)
    pooled = np.sort(state.pooled_scores())
    sc = state.sc_interval(np.zeros(4), ALPHA).half_width
    for pt in rng.normal(size=(100, 4)):
        ac = state.acir_interval(pt, ALPHA).half_width
        gap_idx = int(np.searchsorted(pooled, max(sc, ac), side="left"))
        lo, hi = min(sc, ac), max(sc, ac)
        nxt = pooled[min(gap_idx, pooled.size - 1)]
        assert hi - lo <= (nxt - lo) + 1e-12


def test_delta_inflation_adds_weighted_average():
    # identical environments give uniform weights, so the inflation term is
    # exactly the mean of the per-environment deltas
    rng = np.random.default_rng(13)
    x = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    model = LinearIRMModel(phi=rng.normal(size=(2, 4)), penalty_weight=0.0)
    state = calibrate(model, [EnvDataset(e, x, y) for e in range(3)])
    delta = np.array([0.3, 0.6, 0.9])
    pt = rng.normal(size=4)
    base = state.acir_interval(pt, ALPHA).half_width
    inflated = state.acir_interval(pt, ALPHA, delta_inflation=delta).half_width
    assert abs(inflated - (base + 0.6)) < 1e-12
    batch = state.acir_intervals(pt[None, :], ALPHA, delta_inflation=delta)
    assert abs(batch[0].half_width - inflated) < 1e-12


def test_delta_inflation_wrong_length_raises():
    _, _, state = make_state(seed=14)
    with pytest.raises(ValueError, match="length"):
        state.acir_interval(np.zeros(4), ALPHA, delta_inflation=np.ones(2))


@pytest.mark.parametrize("bad", [-0.01, -100.0, np.nan, np.inf])
def test_delta_inflation_must_be_finite_and_nonnegative(bad):
    _, _, state = make_state(seed=14)
    delta = np.array([0.5, bad, 0.5])
    with pytest.raises(ValueError, match="finite nonnegative"):
        state.acir_interval(np.zeros(4), ALPHA, delta_inflation=delta)
    with pytest.raises(ValueError, match="finite nonnegative"):
        state.acir_intervals(np.zeros((3, 4)), ALPHA, delta_inflation=delta)


def test_small_env_gives_infinite_acir_but_finite_sc():
    # per-env k = ceil(0.95 * 8) = 8 > 7 calibration points, so every
    # environment quantile is infinite; the pool of 20 is just large enough
    rng = np.random.default_rng(15)
    model = LinearIRMModel(phi=rng.normal(size=(2, 4)), penalty_weight=0.0)
    envs = [
        EnvDataset(e, rng.normal(size=(n, 4)), rng.normal(size=n))
        for e, n in enumerate((7, 7, 6))
    ]
    state = calibrate(model, envs)
    assert np.all(np.isinf(state.env_quantiles(ALPHA)))
    ac = state.acir_interval(np.zeros(4), ALPHA)
    assert np.isinf(ac.half_width)
    sc = state.sc_interval(np.zeros(4), ALPHA)
    assert np.isfinite(sc.half_width)
    assert sc.half_width == float(state.pooled_scores().max())


def test_env_quantiles_match_brute_force():
    _, _, state = make_state(seed=16, n=41)
    for sc in state.scores:
        k = int(np.ceil((1 - ALPHA) * (sc.size + 1)))
        expected = np.sort(sc)[k - 1] if k <= sc.size else np.inf
        assert conformal_quantile(sc, ALPHA) == expected
    np.testing.assert_array_equal(
        state.env_quantiles(ALPHA),
        [conformal_quantile(sc, ALPHA) for sc in state.scores],
    )


# ---------------------------------------------------------------------------
# serialization


def test_state_round_trip_is_exact(tmp_path):
    model, _, state = make_state(seed=17)
    path = str(tmp_path / "state.txt")
    save_state(state, path)
    back = load_state(path, model)
    assert back.env_ids == state.env_ids
    np.testing.assert_array_equal(back.mu, state.mu)
    np.testing.assert_array_equal(back.v, state.v)
    for a, b in zip(back.scores, state.scores):
        np.testing.assert_array_equal(a, b)
    x = np.ones(4)
    before = state.acir_interval(x, ALPHA)
    after = back.acir_interval(x, ALPHA)
    assert before.center == after.center
    assert before.half_width == after.half_width


def test_load_state_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="header"):
        load_state(str(path), EYE_MODEL)


def test_load_state_rejects_truncated_scores(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("0 1 3 0.0 1.0\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="fewer"):
        load_state(str(path), EYE_MODEL)


@pytest.mark.parametrize("text", ["0 1 2 0.0 1.0\n1.0\nnan\n", "0 1 2 0.0 nan\n1.0\n2.0\n"])
def test_load_state_rejects_nan_at_load(tmp_path, text):
    path = tmp_path / "nan.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="nan.txt: .*finite"):
        load_state(str(path), EYE_MODEL)


def test_load_state_rejects_env_count_mismatch(tmp_path):
    path = tmp_path / "count.txt"
    path.write_text("0 2 1 0.0 1.0\n1.0\n")
    with pytest.raises(ValueError, match="declares"):
        load_state(str(path), EYE_MODEL)
