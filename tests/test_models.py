import math
import re
import tracemalloc
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acir.core import EnvDataset
from acir.datagen import SemConfig, generate_sem
from acir.models import (
    FitConfig,
    FitError,
    LinearIRMModel,
    _env_stats,
    _eval_stats,
    _hessian,
    _ordered_sum,
    fit_erm,
    fit_irmv1,
    irm_objective,
    load_model,
    save_model,
)

FAST = FitConfig(penalty_weight=3.0, init_scale=1.0)


def make_envs(seed=0, n=300, setting="FOU"):
    cfg = SemConfig(setting=setting, seed=seed)
    return cfg, [generate_sem(cfg, e, n, stream_seed=seed) for e in cfg.env_params]


def objective_value(phi, envs, lam):
    risk, penalty, _ = irm_objective(
        LinearIRMModel(phi=phi, penalty_weight=lam), envs
    )
    return risk + lam * penalty


def numerical_gradient(phi, envs, lam, eps=1e-6):
    """Central finite differences of the objective in the entries of phi."""
    grad = np.zeros_like(phi)
    for i in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            hi = phi.copy()
            lo = phi.copy()
            hi[i, j] += eps
            lo[i, j] -= eps
            grad[i, j] = (
                objective_value(hi, envs, lam) - objective_value(lo, envs, lam)
            ) / (2.0 * eps)
    return grad


def test_gradient_matches_finite_differences():
    # 50 random instances, relative error < 1e-5, well under 10 seconds
    rng = np.random.default_rng(123)
    start = time.monotonic()
    for trial in range(50):
        p = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        lam = float(rng.choice([0.0, 1.0, 10.0]))
        envs = [
            EnvDataset(e, rng.normal(size=(12, p)), rng.normal(size=12))
            for e in range(2)
        ]
        phi = rng.normal(size=(d, p))
        _, _, analytic = irm_objective(
            LinearIRMModel(phi=phi, penalty_weight=lam), envs
        )
        numeric = numerical_gradient(phi, envs, lam)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5, f"trial {trial}: relative error {rel}"
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("lam", [0.0, 1.0, 10.0])
def test_fitter_gradient_and_hessian_match_finite_differences(lam):
    """The fitter's own objective, gradient and Hessian in the column-sum space s."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        envs = [
            EnvDataset(e, rng.normal(size=(20, p)), rng.normal(size=20))
            for e in range(int(rng.integers(2, 4)))
        ]
        stats = _env_stats(envs)
        s = rng.normal(size=p)
        at = _eval_stats(s, stats, lam)
        obj, grad = at.obj, at.grad
        # a phi whose column sums are s predicts like s: the data-space twin agrees
        assert obj == pytest.approx(objective_value(np.vstack([s, np.zeros(p)]), envs, lam))
        h = 1e-6
        steps = [(_eval_stats(s + h * e, stats, lam), _eval_stats(s - h * e, stats, lam))
                 for e in np.eye(p)]
        fd_grad = np.array([(hi[0] - lo[0]) / (2 * h) for hi, lo in steps])
        fd_hess = np.array([(hi[1] - lo[1]) / (2 * h) for hi, lo in steps])
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-5, atol=1e-7 * np.abs(grad).max())
        hess = _hessian(at, stats, lam)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-5, atol=1e-7 * np.abs(hess).max())


def test_lambda_zero_agrees_with_erm():
    _, envs = make_envs(seed=1)
    config = FitConfig(penalty_weight=0.0, init_scale=1.0, seed=2)
    a = fit_irmv1(envs, config)
    b = fit_erm(envs, config)
    pooled_x = np.vstack([env.features for env in envs])
    np.testing.assert_allclose(a.predict(pooled_x), b.predict(pooled_x), atol=1e-4)


def test_erm_matches_least_squares_oracle():
    # Pooled noiseless linear data: closed-form least squares is the target.
    rng = np.random.default_rng(5)
    beta = rng.normal(size=4)
    envs = []
    for e in range(2):
        x = rng.normal(size=(200, 4))
        envs.append(EnvDataset(e, x, x @ beta))
    model = fit_erm(envs, FitConfig(init_scale=1.0, seed=0))
    x_all = np.vstack([env.features for env in envs])
    y_all = np.concatenate([env.targets for env in envs])
    pred = model.predict(x_all)
    ss_res = float(np.sum((y_all - pred) ** 2))
    ss_tot = float(np.sum((y_all - y_all.mean()) ** 2))
    assert 1.0 - ss_res / ss_tot > 0.999


def test_single_env_single_feature_slope():
    # fit_erm runs at penalty weight zero, so a lone environment is fine.
    x = np.linspace(-2, 2, 50).reshape(-1, 1)
    envs = [EnvDataset(0, x, 2.0 * x.ravel())]
    model = fit_erm(envs, FitConfig(repr_dim=2, init_scale=1.0))
    assert abs(float(model.phi.sum(axis=0)[0]) - 2.0) < 1e-3


def test_x2_block_shrinks_as_penalty_grows():
    cfg, envs = make_envs(seed=3, n=667)
    norms = []
    for lam in (0.0, 1e2, 1e4):
        model = fit_irmv1(envs, FitConfig(penalty_weight=lam, init_scale=1.0, seed=1))
        coef = model.phi.sum(axis=0)
        norms.append(float(np.linalg.norm(coef[cfg.dim_x1:])))
    assert norms[0] > norms[1] > norms[2]


def test_noiseless_risk_approaches_zero():
    rng = np.random.default_rng(2)
    w = rng.normal(size=5)
    envs = []
    for e, scale in enumerate((0.2, 2.0, 5.0)):
        x = rng.normal(0.0, scale, size=(200, 5))
        envs.append(EnvDataset(e, x, x @ w))
    model = fit_irmv1(envs, FitConfig(penalty_weight=0.0, init_scale=1.0))
    risk, _, _ = irm_objective(model, envs)
    assert risk < 1e-6


def test_objective_never_increases():
    _, envs = make_envs(seed=7)
    config = FitConfig(penalty_weight=50.0, init_scale=1.0, seed=4)
    model = fit_irmv1(envs, config)
    rng = np.random.default_rng(4)
    phi0 = rng.normal(0.0, config.init_scale, size=model.phi.shape)
    assert objective_value(model.phi, envs, 50.0) <= objective_value(
        phi0, envs, 50.0
    )


def test_predict_and_represent_are_linear():
    rng = np.random.default_rng(9)
    phi = rng.normal(size=(3, 4))
    model = LinearIRMModel(phi=phi, penalty_weight=0.0)
    x1 = rng.normal(size=4)
    x2 = rng.normal(size=4)
    np.testing.assert_allclose(
        model.predict(x1 + x2), model.predict(x1) + model.predict(x2), atol=1e-12
    )
    np.testing.assert_allclose(model.represent(x1), phi @ x1)
    assert model.represent(x1).tobytes() == model.represent(x1[None, :])[0].tobytes()
    assert model.predict(x1) == pytest.approx(float(model.represent(x1).sum()))


def test_weights_are_the_column_sums_of_phi_computed_once_and_read_only():
    phi = np.random.default_rng(4).normal(size=(5, 3))
    model = LinearIRMModel(phi=phi)
    assert "weights" in vars(model)  # summed at construction
    w = model.weights
    assert w is model.weights and not w.flags.writeable
    assert w.tobytes() == phi.sum(axis=0).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        w[0] = 1.0


def test_predict_identity_and_zero():
    model = LinearIRMModel(phi=np.eye(4), penalty_weight=0.0)
    assert model.predict(np.ones(4)) == pytest.approx(4.0)
    zero = LinearIRMModel(phi=np.zeros((2, 3)), penalty_weight=0.0)
    assert zero.predict(np.array([5.0, -1.0, 2.0])) == 0.0
    with pytest.raises(ValueError):
        model.predict(np.ones(3))


def test_fit_warns_on_single_environment():
    rng = np.random.default_rng(1)
    envs = [EnvDataset(0, rng.normal(size=(30, 3)), rng.normal(size=30))]
    with pytest.warns(UserWarning):
        fit_irmv1(envs, FitConfig(penalty_weight=1.0, init_scale=1.0))


def test_fit_error_on_nonfinite_objective():
    x = np.full((5, 2), 1e300)
    envs = [EnvDataset(0, x, np.full(5, 1e300)), EnvDataset(1, x, np.full(5, 1e300))]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FitError, match="iteration"):
            fit_irmv1(envs, FitConfig(penalty_weight=1.0))


@pytest.mark.parametrize("fit", [fit_erm, fit_irmv1])
def test_a_fit_whose_every_trial_step_overflows_stops_at_its_start(fit):
    # The zero last column makes the Hessian singular, so the step follows the
    # gradient, scaled by a learning rate at which every halving still overflows.
    rng = np.random.default_rng(5)
    envs = []
    for env_id in range(2):
        x = rng.normal(size=(40, 3))
        x[:, -1] = 0.0
        envs.append(EnvDataset(env_id, x, rng.normal(size=40)))
    config = FitConfig(learning_rate=1e300, init_scale=1.0, seed=8)
    phi0 = np.random.default_rng(8).normal(0.0, 1.0, (3, 3))
    assert fit(envs, config).phi.tobytes() == phi0.tobytes()


def test_model_round_trip(tmp_path):
    _, envs = make_envs(seed=11, n=100)
    model = fit_irmv1(envs, FitConfig(penalty_weight=7.5, init_scale=1.0, seed=3))
    path = tmp_path / "model.txt"
    save_model(model, str(path))
    back = load_model(str(path))
    np.testing.assert_array_equal(model.phi, back.phi)
    assert back.penalty_weight == 7.5
    assert back.d == model.d and back.p == model.p


@pytest.mark.parametrize("text, message", [
    ("2 two 0.0\n1.0 2.0\n3.0 4.0\n", "line 1: p 'two' is not an integer"),
    ("2 2 zero\n1.0 2.0\n3.0 4.0\n", "line 1: non-numeric cell in ['2', '2', 'zero']"),
    ("2 2 0.0\n1.0 2.0\n\n3.0 abc\n", "line 4: non-numeric cell in ['3.0', 'abc']"),
    ("\n2 2\n1.0 2.0\n3.0 4.0\n", "line 2: header must be"),
    ("2 2 0.0 9\n1.0 2.0\n3.0 4.0\n",
     "line 1: header must be 'd p penalty_weight', got '2 2 0.0 9'"),
    ("2 2 nan\n1.0 2.0\n3.0 4.0\n", "line 1: non-finite cell in ['2', '2', 'nan']"),
    ("2 2 inf\n1.0 2.0\n3.0 4.0\n", "line 1: non-finite cell in ['2', '2', 'inf']"),
    ("2 2 0.0\n1.0 2.0\n\n3.0 -inf\n", "line 4: non-finite cell in ['3.0', '-inf']"),
    ("1 2 0.0\n1.0 2.0\n", "line 1: declared shape (1, 2) needs d >= 2, p >= 1"),
    ("\n0 3 0.0\n", "line 2: declared shape (0, 3) needs d >= 2, p >= 1"),
    ("-1 3 0.0\n", "line 1: declared shape (-1, 3) needs d >= 2, p >= 1"),
    ("2 0 0.0\n", "line 1: declared shape (2, 0) needs d >= 2, p >= 1"),
    ("2 -4 0.0\n1.0\n2.0\n", "line 1: declared shape (2, -4) needs d >= 2, p >= 1"),
    ("2 2 -1.0\n1.0 2.0\n3.0 4.0\n", "line 1: penalty_weight must be >= 0 and finite, got -1.0"),
    ("2 2 0.0\n1.0 2.0\n\n3.0\n", "line 4: expected 2 columns, got 1"),
    ("2 2 0.0\n1.0 2.0\n3.0 4.0 5.0\n6.0\n", "line 3: expected 2 columns, got 3"),
    ("\n2 2 0.0\n1.0 2.0\n", "line 2: declared shape (2, 2) does not match the 1 rows given"),
    ("2 2 0.0\n1.0 2.0\n3.0 4.0\n5.0 6.0\n",
     "line 1: declared shape (2, 2) does not match the 3 rows given"),
    ("", "empty model file"),
    ("\n \n", "empty model file"),
])
def test_load_model_names_file_and_line_of_a_bad_token(tmp_path, text, message):
    path = tmp_path / "model.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_model(str(path))
    assert str(info.value).startswith(f"{path}: {message}")


@pytest.mark.parametrize("text, message", [
    ("2 10000000 0.0\n1.0 2.0\n3.0 4.0\n", "line 2: expected 10000000 columns, got 2"),
    ("2 10000000 0.0\n", "line 1: declared shape (2, 10000000) does not match the 0 rows given"),
    (f"2 {2**40} 0.0\n", f"line 1: declared shape (2, {2**40}) does not match the 0 rows given"),
])
def test_a_declared_width_no_row_holds_is_refused_without_rows_of_it(tmp_path, text, message):
    # loadtxt sets aside a few rows of the declared width (here 80 MB each)
    # before it reads a line, so such a width is refused before it is asked.
    path = tmp_path / "model.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: {message}"
    assert peak < 8 << 20


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["learning_rate", "tolerance", "penalty_weight", "init_scale"])
def test_non_finite_fit_options_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field}.* finite"):
        FitConfig(**{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_model_rejects_a_non_finite_penalty_weight(value):
    with pytest.raises(ValueError, match="penalty_weight must be >= 0 and finite"):
        LinearIRMModel(phi=np.eye(2), penalty_weight=value)


def test_a_negative_fit_seed_is_rejected_at_construction():
    with pytest.raises(ValueError, match=r"^fit_seed must be >= 0, got -1$"):
        FitConfig(seed=-1)


@pytest.mark.parametrize("call, message", [
    (lambda: LinearIRMModel(phi=np.ones(3)), "phi must be a matrix, got ndim=1"),
    (lambda: LinearIRMModel(phi=np.ones((1, 3))), "representation dimension must be >= 2, got 1"),
    (lambda: LinearIRMModel(phi=np.array([[1.0, np.nan], [0.0, 1.0]])), "phi must be finite"),
    (lambda: LinearIRMModel(phi=np.eye(2)).represent(np.ones(3)), "expected 2 features, got 3"),
    (lambda: irm_objective(LinearIRMModel(phi=np.eye(2)), [EnvDataset(0, np.ones((2, 3)),
                                                                      np.zeros(2))]),
     "expected 2 features, got 3"),
    (lambda: FitConfig(max_iters=0), "iteration counts out of range"),
], ids=["phi-vector", "phi-one-row", "phi-nan", "represent-width", "objective-width",
        "no-iterations"])
def test_a_bad_model_input_or_fit_option_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_the_irm_only_fields_default_to_none_and_fit_irmv1_fills_them():
    config = FitConfig(init_scale=1.0, max_iters=50)
    assert config.penalty_weight is None and config.warmup_iters is None
    _, envs = make_envs(n=100)
    model = fit_irmv1(envs, config)
    given = fit_irmv1(envs, FitConfig(init_scale=1.0, max_iters=50, penalty_weight=1e4,
                                      warmup_iters=100))
    assert model.penalty_weight == 1e4
    assert model.phi.tobytes() == given.phi.tobytes()


def test_float_options_are_stored_as_the_float_their_check_returns():
    cfg = SemConfig(setting="PEU", seed=1)
    envs = [generate_sem(cfg, e, 300, stream_seed=2) for e in cfg.env_params]
    as_float32 = fit_irmv1(envs, FitConfig(penalty_weight=np.float32(3.0), init_scale=1.0))
    assert as_float32.phi.tobytes() == fit_irmv1(envs, FAST).phi.tobytes()
    names = ("learning_rate", "tolerance", "penalty_weight", "init_scale")
    config = FitConfig(**{name: np.float32(0.5) for name in names})
    assert all(type(getattr(config, name)) is float for name in names)


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        FitConfig(penalty_weight=-1.0)
    with pytest.raises(ValueError):
        FitConfig(init_scale=0.0)
    with pytest.raises(ValueError):
        FitConfig(repr_dim=1)


# ---------------------------------------------------------------------------
# The stacked fitter against the loop over environments it replaced, kept here
# as an oracle: objective, gradient and Hessian must agree bit for bit.


def _oracle_env_stats(envs):
    stats = []
    for env in envs:
        x, y = env.features, env.targets
        n = env.n
        stats.append((x.T @ x / n, x.T @ y / n, float(y @ y) / n))
    return stats


def _oracle_eval_stats(s, stats, lam):
    obj = 0.0
    grad = np.zeros_like(s)
    for a, b, c in stats:
        a_s = a @ s
        risk = float(s @ a_s) - 2.0 * float(b @ s) + c
        g = 2.0 * (float(s @ a_s) - float(b @ s))
        obj += risk + lam * g * g
        grad += 2.0 * (a_s - b)
        if lam > 0:
            grad += 4.0 * lam * g * (2.0 * a_s - b)
    return obj, grad


def _oracle_hessian(s, stats, lam):
    p = s.size
    hess = np.zeros((p, p))
    for a, b, _ in stats:
        hess += 2.0 * a
        if lam > 0:
            g = 2.0 * (float(s @ (a @ s)) - float(b @ s))
            u = 2.0 * (a @ s) - b
            hess += lam * (8.0 * np.outer(u, u) + 8.0 * g * a)
    return hess


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),  # crosses numpy's 8-element pairwise-sum block
    p=st.integers(1, 12),
    lam_exp=st.one_of(st.none(), st.integers(-12, 12)),
    x_exp=st.integers(-40, 40),
    s_exp=st.integers(-40, 40),
    zero_column=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=9, p=1, lam_exp=0, x_exp=0, s_exp=0, zero_column=False, seed=0)
@example(m=1, p=3, lam_exp=None, x_exp=0, s_exp=0, zero_column=True, seed=1)
def test_stacked_fitter_equals_the_loop_over_environments_bit_for_bit(
    m, p, lam_exp, x_exp, s_exp, zero_column, seed
):
    rng = np.random.default_rng(seed)
    lam = 0.0 if lam_exp is None else float(rng.uniform(1, 10)) * 10.0**lam_exp
    envs = []
    for e in range(m):
        n = int(rng.integers(1, 25))
        # rows of many magnitudes inside one environment, too
        x = rng.standard_normal((n, p)) * 10.0 ** (x_exp + rng.uniform(-3, 3, size=(n, 1)))
        if zero_column:
            x[:, 0] = 0.0  # zero moments: the sign of zero must match as well
        envs.append(EnvDataset(e, x, rng.standard_normal(n) * 10.0**x_exp))
    s = rng.standard_normal(p) * 10.0**s_exp
    if zero_column:
        s[0] = -0.0
    stats, oracle = _env_stats(envs), _oracle_env_stats(envs)
    at = _eval_stats(s, stats, lam)
    want_obj, want_grad = _oracle_eval_stats(s, oracle, lam)
    assert np.float64(at.obj).tobytes() == np.float64(want_obj).tobytes()
    assert at.grad.tobytes() == want_grad.tobytes()
    assert _hessian(at, stats, lam).tobytes() == _oracle_hessian(s, oracle, lam).tobytes()


def test_ordered_sum_adds_rows_in_order_from_positive_zero():
    rng = np.random.default_rng(8)
    for shape in [(9, 1), (17, 1), (9, 3), (9, 2, 2), (1, 4)]:
        rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-12, 12, size=shape)
        total = np.zeros(shape[1:])
        for row in rows:
            total += row
        assert _ordered_sum(rows).tobytes() == total.tobytes()
    # a run of -0.0 rows sums to the loop's +0.0
    assert _ordered_sum(np.full((3, 2), -0.0)).tobytes() == np.zeros(2).tobytes()
