"""Calibration-state construction, similarity weighting, and both intervals."""

import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acir import conformal
from acir.conformal import (
    CalibrationState,
    _stacked_moments,
    calibrate,
    load_state,
    save_state,
)
from acir.core import EnvDataset, conformal_quantile
from acir.models import FitConfig, LinearIRMModel, fit_irmv1

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


def test_stacked_moments_hand_computed():
    # values 1,2,3,6: mean 3; squared deviations 4,1,0,9; population std
    # sqrt(14/4) = 1.8708286933869707
    mu, v = _stacked_moments(np.array([1.0, 2.0, 3.0, 6.0]))
    assert mu == 3.0
    assert abs(v - 1.8708286933869707) < 1e-15


def test_stacked_moments_works_along_the_last_axis():
    rep = np.array([[1.0, 2.0, 3.0, 6.0], [0.0, 0.0, 2.0, 2.0]])
    mu, v = _stacked_moments(rep)
    np.testing.assert_array_equal(mu, [3.0, 1.0])
    np.testing.assert_array_equal(v, [_stacked_moments(rep[0])[1], 1.0])


# d from 2 to 300 runs numpy's plain (d < 8), 8-way unrolled (up to 128)
# and pairwise (above 128) sums; a common offset makes the subtraction of
# the mean cancel.
@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(2, 300),
    rows=st.sampled_from([None, 1, 2, 5]),
    exponent=st.integers(-300, 300),
    offset=st.sampled_from([0.0, 1.0, -1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=2, rows=None, exponent=0, offset=0.0, seed=0)
@example(d=129, rows=5, exponent=300, offset=1.0, seed=1)
@example(d=300, rows=1, exponent=-300, offset=-1e3, seed=2)
def test_stacked_moments_equals_numpy_mean_and_std_bit_for_bit(d, rows, exponent, offset, seed):
    shape = (d,) if rows is None else (rows, d)
    rep = (np.random.default_rng(seed).standard_normal(shape) + offset) * 10.0**exponent
    with np.errstate(over="ignore"):  # squares of 1e300 overflow in both
        mu, v = _stacked_moments(rep)
        want_mu, want_v = np.mean(rep, axis=-1), np.std(rep, axis=-1)
    assert mu.tobytes() == want_mu.tobytes() and v.tobytes() == want_v.tobytes()
    if rows is None:
        assert type(mu) is np.float64 and type(v) is np.float64
    else:
        assert mu.shape == v.shape == (rows,)


def test_moments_are_the_prediction_over_d_and_a_projection_training_leaves_alone():
    # Fitting moves only the column sums of phi, by the same shift on every
    # row: phi = phi0 + 1 (s - s0) / d. So mu_x = f(x) / d and v_x is the
    # spread of phi0 @ x, a seeded random projection of x.
    rng = np.random.default_rng(21)
    train = [EnvDataset(e, rng.normal(scale=e + 1, size=(80, 4)), rng.normal(size=80))
             for e in range(3)]
    config = FitConfig(penalty_weight=1.0, init_scale=1.0, seed=5, repr_dim=6)
    model = fit_irmv1(train, config)
    phi0 = np.random.default_rng(config.seed).normal(0.0, config.init_scale, size=(6, 4))
    shift = model.phi - phi0
    assert np.ptp(shift, axis=0).max() < 1e-12 < np.abs(shift).max()
    x = rng.normal(scale=3.0, size=(50, 4))
    mu_x, v_x = _stacked_moments(model.represent(x))
    np.testing.assert_allclose(mu_x, model.predict(x) / model.d, rtol=1e-12)
    np.testing.assert_allclose(v_x, _stacked_moments(x @ phi0.T)[1], rtol=1e-12)


def test_stacked_moments_rejects_scalar_representation():
    with pytest.raises(ValueError, match=">= 2"):
        _stacked_moments(np.array([5.0]))


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


def test_state_keeps_frozen_scores_and_copies_others():
    owned, writeable = np.array([0.5, 1.0, 2.0]), np.array([0.5, 1.0, 2.0])
    owned.setflags(write=False)
    view = np.array([0.5, 9.0, 1.0, 9.0, 2.0])[::2]
    view.setflags(write=False)
    state = CalibrationState(model=EYE_MODEL, env_ids=(0, 1, 2),
                             scores=(owned, writeable, view), mu=np.zeros(3), v=np.zeros(3))
    assert state.scores[0] is owned
    assert not np.shares_memory(state.scores[1], writeable)
    assert not np.shares_memory(state.scores[2], view)
    assert not any(sc.flags.writeable for sc in state.scores)


def test_calibrate_and_load_state_hand_over_read_only_scores(tmp_path, monkeypatch):
    handed = []

    class Recording(CalibrationState):
        def __post_init__(self):
            handed.append(self.scores)
            super().__post_init__()

    monkeypatch.setattr(conformal, "CalibrationState", Recording)
    model, _, state = make_state(seed=22)
    path = str(tmp_path / "state.txt")
    save_state(state, path)
    back = load_state(path, model)
    assert len(handed) == 2
    for given_scores, kept in zip(handed, (state, back)):
        for a, b in zip(given_scores, kept.scores):
            assert a is b and a.flags.owndata and not a.flags.writeable


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


def test_state_rejects_an_empty_score_vector():
    with pytest.raises(ValueError, match="^env 0: empty score vector$"):
        CalibrationState(model=EYE_MODEL, env_ids=(0,), scores=(np.array([]),),
                         mu=np.zeros(1), v=np.ones(1))


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


@pytest.mark.parametrize("mu, v", [
    (np.zeros((2, 2)), np.ones((2, 2))),
    (np.zeros(2), np.ones((2, 1))),
    (np.zeros(3), np.ones(3)),
    (np.float64(0.0), np.ones(2)),
])
def test_state_rejects_moment_arrays_of_the_wrong_shape(mu, v):
    with pytest.raises(ValueError, match=r"mu and v must have shape \(2,\)"):
        CalibrationState(
            model=EYE_MODEL,
            env_ids=(0, 1),
            scores=(np.array([1.0]), np.array([2.0])),
            mu=mu,
            v=v,
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


def _oracle_weights(state, x):
    """The weight matrix as first written: every step on the (n, m) layout."""
    rep = state.model.represent(x)
    mu_x, v_x = np.mean(rep, axis=1), np.std(rep, axis=1)
    log_sim = -np.abs(v_x[:, None] - state.v) - np.abs(mu_x[:, None] - state.mu)
    tau = np.exp(log_sim - log_sim.max(axis=1, keepdims=True))
    return tau / tau.sum(axis=1, keepdims=True)


def _oracle_halves(weights, env_q):
    """Half-widths as first written: an environment with an infinite quantile
    and positive weight makes the interval infinite."""
    finite = np.isfinite(env_q)
    if finite.all():
        return weights @ env_q
    out = np.full(weights.shape[0], np.inf)
    blocked = (weights[:, ~finite] > 0).any(axis=1)
    if not blocked.all():
        out[~blocked] = weights[np.ix_(~blocked, finite)] @ env_q[finite]
    return out


def _oracle_acir(state, x, alpha):
    env_q = np.array([conformal_quantile(sc, alpha) for sc in state.scores])
    return state.model.predict(x), _oracle_halves(_oracle_weights(state, x), env_q)


# m up to 12 crosses numpy's 8-element pairwise block in the row sums; up to
# 40 scores per environment at alpha down to 0.05 makes some quantiles
# infinite, and a large spread can underflow the weights that would block.
@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.sampled_from([1, 2, 7, 40, 667]),
    spread=st.integers(-3, 3),
    alpha=st.sampled_from([0.05, 0.2, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=9, n=1, spread=0, alpha=0.5, seed=0)
@example(m=3, n=40, spread=3, alpha=0.05, seed=1)
@example(m=4, n=667, spread=3, alpha=0.2, seed=2)
def test_weights_equal_the_row_layout_formula_bit_for_bit(m, n, spread, alpha, seed):
    rng = np.random.default_rng(seed)
    model = LinearIRMModel(phi=rng.normal(size=(4, 5)), penalty_weight=0.0)
    state = CalibrationState(
        model=model,
        env_ids=tuple(range(m)),
        scores=tuple(np.sort(np.abs(rng.normal(size=rng.integers(1, 41)))) for _ in range(m)),
        mu=rng.normal(size=m) * 10.0**spread,
        v=np.abs(rng.normal(size=m)) * 10.0**spread,
    )
    x = rng.normal(size=(n, 5)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
    w = state._weights_matrix(x)
    assert w.flags.c_contiguous
    assert w.tobytes() == _oracle_weights(state, x).tobytes()
    got = state.acir_intervals(x, alpha)
    center, half = _oracle_acir(state, x, alpha)
    assert got.center.tobytes() == center.tobytes()
    assert got.half_width.tobytes() == half.tobytes()
    for i in (0, n - 1):
        one, row = state.acir_interval(x[i], alpha), state.acir_intervals(x[i][None], alpha)[0]
        assert one.center.tobytes() == row.center.tobytes()
        assert one.half_width.tobytes() == row.half_width.tobytes()


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
    # BLAS takes other kernels for an n-row product than for a 1-row one, so
    # row i of a batch may differ from the single-point call in its last bits.
    rng = np.random.default_rng(21)
    model = LinearIRMModel(phi=rng.normal(size=(10, 10)), penalty_weight=0.0)
    envs = [EnvDataset(e, rng.normal(scale=s, size=(300, 10)), rng.normal(size=300))
            for e, s in enumerate((0.2, 2.0, 5.0))]
    state = calibrate(model, envs)
    x = rng.standard_normal((2001, 10)) * rng.choice([0.2, 2.0, 5.0], size=(2001, 1))
    eps = np.finfo(float).eps
    # a dot product's rounding error is bounded by its sum of absolute terms
    magnitude = np.abs(x) @ np.abs(model.weights)
    for batch, single in ((state.acir_intervals, state.acir_interval),
                          (state.sc_intervals, state.sc_interval)):
        rows = batch(x, ALPHA)
        ones = [single(point, ALPHA) for point in x]
        centers = np.array([iv.center for iv in ones])
        halves = np.array([iv.half_width for iv in ones])
        assert (np.abs(centers - rows.center) <= 16 * eps * magnitude).all()
        np.testing.assert_allclose(halves, rows.half_width, rtol=1e-13, atol=0)


def test_single_point_calls_are_rows_of_a_one_row_batch():
    _, _, state = make_state(seed=10)
    rng = np.random.default_rng(11)
    for x in rng.normal(size=(10, 4)):
        for single, batch in (
            (state.acir_interval(x, ALPHA), state.acir_intervals(x[None, :], ALPHA)),
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


def test_env_quantiles_keep_the_last_alpha_and_equal_brute_force():
    # at n = 41 scores per environment, alpha = 0.01 asks for rank 42 > n
    model, envs, state = make_state(seed=25, n=41)
    for alpha in (0.05, 0.1, 0.05, 0.01, 0.05):
        want = [conformal_quantile(sc, alpha) for sc in state.scores]
        warm = state.env_quantiles(alpha)
        cold = calibrate(model, envs).env_quantiles(alpha)
        np.testing.assert_array_equal(warm, want)
        assert warm.tobytes() == cold.tobytes()
        assert state.env_quantiles(alpha) is warm
    assert np.isinf(state.env_quantiles(0.01)).all()


def test_every_quantile_comes_from_one_memo_per_alpha(monkeypatch):
    # SC's pooled quantile and AC's per-environment ones are read together,
    # once per alpha, whichever kind of interval asks first
    _, _, state = make_state(seed=31)
    x = np.random.default_rng(31).normal(size=(5, 4))
    reads = []
    read = conformal.sorted_conformal_quantile

    def counting(sorted_scores, alpha):
        reads.append(alpha)
        return read(sorted_scores, alpha)

    monkeypatch.setattr(conformal, "sorted_conformal_quantile", counting)
    for alpha in (0.05, 0.1):
        reads.clear()
        sc = state.sc_intervals(x, alpha)
        assert len(reads) == state.m + 1
        state.acir_intervals(x, alpha)
        state.sc_interval(x[0], alpha)
        state.acir_interval(x[0], alpha)
        assert len(reads) == state.m + 1
        pooled = conformal_quantile(np.concatenate(state.scores), alpha)
        np.testing.assert_array_equal(sc.half_width, np.full(len(x), pooled))


def test_env_quantiles_are_read_only():
    _, _, state = make_state(seed=26)
    q = state.env_quantiles(ALPHA)
    with pytest.raises(ValueError, match="read-only"):
        q[0] = 0.0
    np.testing.assert_array_equal(
        state.env_quantiles(ALPHA), [conformal_quantile(sc, ALPHA) for sc in state.scores])


def _state_with_a_far_small_env(seed):
    """env 0 has 7 scores, too few at alpha = 0.05 but not at 0.5, and sits
    1e3 away in mu; the 20 points near the others give it weight
    exp(-1e3) = 0, the 20 shifted next to it weigh it fully."""
    rng = np.random.default_rng(seed)
    model = LinearIRMModel(phi=rng.normal(size=(3, 4)), penalty_weight=0.0)
    state = CalibrationState(
        model=model,
        env_ids=(0, 1, 2),
        scores=tuple(np.sort(np.abs(rng.normal(size=k))) for k in (7, 50, 60)),
        mu=np.array([1e3, 0.0, 0.5]),
        v=np.array([1.0, 1.0, 2.0]),
    )
    near = rng.normal(size=(20, 4))
    far = near + 1e3 * np.linalg.pinv(model.phi) @ np.ones(3)
    return state, np.vstack([near, far])


def test_infinite_quantiles_block_exactly_the_points_that_weigh_them():
    state, x = _state_with_a_far_small_env(27)
    for _ in range(2):  # memo cold, then warm
        got = state.acir_intervals(x, ALPHA)
        center, half = _oracle_acir(state, x, ALPHA)
        assert np.isfinite(half[:20]).all() and np.isinf(half[20:]).all()
        assert got.center.tobytes() == center.tobytes()
        assert got.half_width.tobytes() == half.tobytes()
        for i in (0, 20):  # against a 1-row oracle: BLAS may round a 40-row product otherwise
            one = state.acir_interval(x[i], ALPHA).half_width
            assert one.tobytes() == _oracle_acir(state, x[i][None], ALPHA)[1].tobytes()


def test_threads_asking_for_different_alphas_get_their_own_answers(monkeypatch):
    # At 0.5 every quantile is finite, at 0.05 env 0's is not: a thread that
    # took the other alpha's all-finite flag would multiply 0 by inf.
    state, x = _state_with_a_far_small_env(28)
    fresh, _ = _state_with_a_far_small_env(28)
    x = x[:20]
    alphas = (0.05, 0.5)
    serial = {a: [fresh.acir_interval(pt, a).half_width.tobytes() for pt in x] for a in alphas}
    serial_q = {a: fresh.env_quantiles(a).tobytes() for a in alphas}
    lookup = CalibrationState.env_quantiles

    def yielding_lookup(self, alpha):
        # yield the GIL after the lookup, as a timing wrapper may, so the
        # other thread can replace the memo in the middle of a query
        q = lookup(self, alpha)
        time.sleep(0)
        return q

    def ask(alpha):
        for k in range(500):
            i = k % len(x)
            if state.acir_interval(x[i], alpha).half_width.tobytes() != serial[alpha][i]:
                return False
            if state.env_quantiles(alpha).tobytes() != serial_q[alpha]:
                return False
        return True

    monkeypatch.setattr(CalibrationState, "env_quantiles", yielding_lookup)
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(ask, alphas)) == [True, True]


def test_threads_asking_both_kinds_at_different_alphas_get_their_own_answers():
    # SC and AC read one memo: four threads, one per alpha, replace it while
    # the others read it, and every answer must be its own alpha's
    state, x = _state_with_a_far_small_env(32)
    fresh, _ = _state_with_a_far_small_env(32)
    x = x[:20]

    def answer(st, k, alpha):
        pt = x[k % len(x)]
        return (st.sc_interval(pt, alpha).half_width.tobytes(),
                st.acir_interval(pt, alpha).half_width.tobytes())

    alphas = (0.05, 0.1, 0.2, 0.5)
    serial = {a: [answer(fresh, k, a) for k in range(len(x))] for a in alphas}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            done = pool.map(lambda a: all(answer(state, k, a) == serial[a][k % len(x)]
                                          for k in range(1000)), alphas, timeout=60)
            assert list(done) == [True] * 4
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("asked, other", [(0.5, 0.05), (0.05, 0.5)])
def test_a_memo_replaced_between_lookup_and_read_gives_the_plain_answer(monkeypatch, asked,
                                                                         other):
    # Another alpha replaces the memo right after this query's lookup, every
    # time: the query must not take that alpha's all-finite flag.
    state, x = _state_with_a_far_small_env(29)
    fresh, _ = _state_with_a_far_small_env(29)
    plain = fresh.acir_intervals(x, asked)
    lookup = CalibrationState.env_quantiles

    def replaced_after_lookup(self, alpha):
        q = lookup(self, alpha)
        lookup(self, other)
        return q

    monkeypatch.setattr(CalibrationState, "env_quantiles", replaced_after_lookup)
    got = state.acir_intervals(x, asked)
    assert got.center.tobytes() == plain.center.tobytes()
    assert got.half_width.tobytes() == plain.half_width.tobytes()


def test_quantiles_read_from_the_state_equal_quantiles_of_the_raw_scores():
    model, envs, state = make_state(seed=18, n=37)
    raw = [np.abs(env.targets - model.predict(env.features)) for env in envs]
    x = np.zeros((2, 4))
    for alpha in (0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.9):
        np.testing.assert_array_equal(
            state.env_quantiles(alpha), [conformal_quantile(r, alpha) for r in raw]
        )
        pooled = conformal_quantile(np.concatenate(raw), alpha)
        assert state.sc_interval(x[0], alpha).half_width == pooled
        np.testing.assert_array_equal(state.sc_intervals(x, alpha).half_width, [pooled, pooled])


@pytest.mark.parametrize("alpha", [0.0, 1.0, np.nan, -0.1, 1.5])
def test_every_interval_entry_point_rejects_a_bad_alpha(alpha):
    _, _, state = make_state(seed=19)
    x = np.zeros(4)
    for call in (
        lambda: state.env_quantiles(alpha),
        lambda: state.sc_interval(x, alpha),
        lambda: state.sc_intervals(x[None, :], alpha),
        lambda: state.acir_interval(x, alpha),
        lambda: state.acir_intervals(x[None, :], alpha),
    ):
        with pytest.raises(ValueError, match="alpha must be in"):
            call()


ENTRY_POINTS = {
    "environment_weights": (True, lambda state, x: state.environment_weights(x)),
    "sc_interval": (True, lambda state, x: state.sc_interval(x, ALPHA)),
    "acir_interval": (True, lambda state, x: state.acir_interval(x, ALPHA)),
    "sc_intervals": (False, lambda state, x: state.sc_intervals(x, ALPHA)),
    "acir_intervals": (False, lambda state, x: state.acir_intervals(x, ALPHA)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("shape", [(4,), (1, 4), (2, 4), (), (5,), (2, 5), (2, 2, 4), (1, 1, 4)])
def test_every_query_entry_point_checks_the_shape_of_its_points(entry, shape):
    # a single-point call takes (p,), a batch (n, p) or (p,); p = 4 here
    _, _, state = make_state(seed=23)
    one, call = ENTRY_POINTS[entry]
    x = np.arange(np.prod(shape, dtype=int), dtype=float).reshape(shape)
    if shape == (4,) or (not one and len(shape) == 2 and shape[1] == 4):
        got = call(state, x)
        if entry == "environment_weights":
            assert got.shape == (state.m,)
        else:
            assert got.center.shape == (() if one else (x.size // 4,))
        return
    want = r"\(4,\)" if one else r"\(n, 4\) or \(4,\)"
    with pytest.raises(ValueError, match=rf"expected points of shape {want}, got shape"):
        call(state, x)


def test_pooled_sorted_scores_are_read_only_and_sorted():
    _, _, state = make_state(seed=20)
    np.testing.assert_array_equal(state.pooled_sorted, np.sort(state.pooled_scores()))
    assert not state.pooled_sorted.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        state.pooled_sorted[0] = 1.0


def test_building_a_state_holds_the_pooled_scores_once():
    # The pooled scores are sorted where they are concatenated, not into a
    # second copy. The environments' scores are read-only arrays of their
    # own, as calibrate hands them over, so the state keeps them uncopied.
    rng = np.random.default_rng(25)
    scores = []
    for _ in range(3):
        sc = np.sort(np.abs(rng.normal(size=16_667)))
        sc.setflags(write=False)
        scores.append(sc)
    model = LinearIRMModel(phi=np.eye(2))
    tracemalloc.start()
    try:
        state = CalibrationState(model=model, env_ids=(0, 1, 2), scores=tuple(scores),
                                 mu=np.zeros(3), v=np.ones(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state.pooled_sorted.nbytes


def test_a_state_is_complete_when_built_and_queries_write_only_the_alpha_memo(tmp_path):
    model, _, calibrated = make_state(seed=24)
    path = str(tmp_path / "state.txt")
    save_state(calibrated, path)
    x = np.random.default_rng(24).normal(size=(5, 4))
    for state in (calibrated, load_state(path, model)):
        built = dict(vars(state))
        pooled = built["pooled_sorted"]
        np.testing.assert_array_equal(pooled, np.sort(state.pooled_scores()))
        assert not pooled.flags.writeable
        state.sc_intervals(x, ALPHA)
        state.acir_intervals(x, ALPHA)
        state.sc_interval(x[0], ALPHA)
        state.acir_interval(x[0], ALPHA)
        after = dict(vars(state))
        assert after.keys() == built.keys()
        changed = [k for k in built if after[k] is not built[k]]
        assert changed == ["_quantile_memo"]


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


@pytest.mark.parametrize("text, message", [
    ("0 1 two 0.0 1.0\n1.0\n2.0\n", "line 1: n_cal 'two' is not an integer"),
    ("0 1 2 0.0 wide\n1.0\n2.0\n", "line 1: non-numeric cell in ['0', '1', '2', '0.0', 'wide']"),
    # score lines keep the data files' row rule and get their messages
    ("0 1 2 0.0 1.0\n1.0\n\nxyz\n", "line 4: non-numeric cell in ['xyz']"),
    ("0 2 1 0.0 1.0\n1.0\n1 2 2 0.0 1.0\n1.0\n2.0x\n",
     "line 5: non-numeric cell in ['2.0x']"),
    ("0 1 2 0.0 1.0\n1.0\n1_000\n", "line 3: cell outside the number grammar in ['1_000']"),
    ("0 1 2 0.0 1.0\n1.0\nnan\n", "line 3: non-finite cell in ['nan']"),
    ("0 1 2 0.0 1.0\n1.0\ninf\n", "line 3: non-finite cell in ['inf']"),
    # section headers and the section count
    ("\n0 1 2 0.0\n1.0\n2.0\n", "line 2: expected section header"),
    ("0 1 2 0.0 1.0 7\n1.0\n2.0\n",
     "line 1: expected section header 'env m n_cal mu v', got '0 1 2 0.0 1.0 7'"),
    ("0 1 -1 0.0 1.0\n1.0\n", "line 1: env 0: n_cal must be >= 1"),
    ("0 1 0 0.0 1.0\n", "line 1: env 0: n_cal must be >= 1"),
    ("0 1 2 nan 1.0\n1.0\n2.0\n", "line 1: non-finite cell in ['0', '1', '2', 'nan', '1.0']"),
    ("0 2 1 0.0 1.0\n1.0\n\n1 3 1 0.0 1.0\n1.0\n",
     "line 4: header declares 3 environments, found 2"),
    ("0 2 1 0.0 1.0\n1.0\n1 2 3 0.0 1.0\n1.0\n2.0\n",
     "line 3: env 1: fewer than 3 score lines"),
    ("\n0 3 1 0.0 1.0\n1.0\n1 3 1 0.0 1.0\n1.0\n",
     "line 2: header declares 3 environments, found 2"),
    # the state's own rules, checked per section and named by its header line
    ("0 2 1 0.0 1.0\n1.0\n\n0 2 1 0.0 1.0\n2.0\n",
     "line 4: duplicate environment ids in (0, 0)"),
    ("0 1 2 0.0 1.0\n2.0\n1.0\n", "line 1: env 0: scores must be sorted ascending"),
    ("0 2 1 0.0 1.0\n1.0\n1 2 2 0.0 1.0\n3.0\n2.0\n",
     "line 3: env 1: scores must be sorted ascending"),
    ("0 1 2 0.0 1.0\n-1.0\n1.0\n", "line 1: env 0: scores must be finite and nonnegative"),
    ("0 1 1 0.0 -1.0\n1.0\n", "line 1: moment summaries must be finite, spreads nonnegative"),
    ("", "need at least one environment"),
    ("\n \n", "need at least one environment"),
])
def test_load_state_names_file_and_line_of_a_bad_token(tmp_path, text, message):
    path = tmp_path / "state.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_state(str(path), EYE_MODEL)
    assert str(info.value).startswith(f"{path}: {message}")


def test_load_state_rejects_env_count_mismatch(tmp_path):
    path = tmp_path / "count.txt"
    path.write_text("0 2 1 0.0 1.0\n1.0\n")
    with pytest.raises(ValueError, match="declares"):
        load_state(str(path), EYE_MODEL)
