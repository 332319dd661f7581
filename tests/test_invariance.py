"""Density fits, clamped likelihood ratios, and the invariance statistic."""

import re

import numpy as np
import pytest

from acir.core import EnvDataset
from acir.datagen import SemConfig, generate_sem
from acir.invariance import (
    RATIO_CLAMP,
    DensityModel,
    InvarianceReport,
    fit_density,
    inv_statistic,
    likelihood_ratio,
    write_report,
)
from acir.models import LinearIRMModel


def two_row_model(s):
    """Linear model with prediction weights s, split over two identical rows."""
    s = np.asarray(s, dtype=float)
    return LinearIRMModel(phi=np.vstack([s / 2.0, s / 2.0]), penalty_weight=0.0)


# ---------------------------------------------------------------------------
# density estimation


def test_fit_density_recovers_gaussian_moments():
    rng = np.random.default_rng(0)
    n = 4000
    x = rng.normal(loc=[1.0, -2.0], scale=[1.0, 2.0], size=(n, 2))
    dens = fit_density([EnvDataset(0, x, np.zeros(n))])
    # 3 standard errors: mean se = sigma/sqrt(n), variance se = sigma^2*sqrt(2/(n-1))
    for j, (mu, sig) in enumerate([(1.0, 1.0), (-2.0, 2.0)]):
        assert abs(dens.means[0, j] - mu) < 3 * sig / np.sqrt(n)
        assert abs(dens.variances[0, j] - sig**2) < 3 * sig**2 * np.sqrt(2 / (n - 1))


def test_fit_density_floors_constant_feature():
    x = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
    with pytest.warns(UserWarning, match="floored"):
        dens = fit_density([EnvDataset(0, x, np.zeros(50))])
    assert dens.variances[0, 0] == 1e-8
    assert dens.variances[0, 1] > 1e-8


def test_log_density_closed_form():
    dens = DensityModel(
        env_ids=(0,), means=np.array([[0.0, 0.0]]), variances=np.array([[1.0, 4.0]])
    )
    x = np.array([[1.0, 2.0]])
    expected = -0.5 * ((1.0 / 1.0 + 4.0 / 4.0) + np.log(2 * np.pi * 1.0) + np.log(2 * np.pi * 4.0))
    assert abs(dens.log_density(x, 0)[0] - expected) < 1e-12


def _owned_and_view(rows):
    """A writeable (2, 2) array of the caller's and a (2, 2) view into a writeable base."""
    base = np.array(rows * 2, dtype=float)
    return np.array(rows, dtype=float), base, base[::2]


def test_density_model_neither_freezes_nor_aliases_the_callers_arrays():
    means, base, variances = _owned_and_view([[1.0, 2.0], [3.0, 4.0]])
    dens = DensityModel(env_ids=(0, 1), means=means, variances=variances)
    assert means.flags.writeable and variances.flags.writeable and base.flags.writeable
    means[0, 0] = 9.0
    variances[0, 0] = -1.0
    base[2, 1] = -1.0
    assert dens.means.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert dens.variances.tolist() == [[1.0, 2.0], [1.0, 2.0]]
    assert not (dens.means.flags.writeable or dens.variances.flags.writeable)


def test_invariance_report_neither_freezes_nor_aliases_the_callers_arrays():
    mat, base, view = _owned_and_view([[1.0, 2.0], [3.0, 4.0]])
    owned = InvarianceReport(env_ids=(0, 1), m_hat=mat)
    viewed = InvarianceReport(env_ids=(0, 1), m_hat=view)
    assert mat.flags.writeable and base.flags.writeable
    mat[0, 0] = 9.0
    base[0, 0] = -1.0
    assert owned.m_hat.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert viewed.m_hat.tolist() == [[1.0, 2.0], [1.0, 2.0]]
    for report in (owned, viewed):
        assert not (report.m_hat.flags.writeable or report.delta.flags.writeable)


def test_invariance_report_derives_inv_and_delta_from_its_matrix():
    report = InvarianceReport(env_ids=(0, 1), m_hat=[[1.0, 2.0], [3.0, 4.0]])
    assert report.inv == 0.25  # both rows have population variance 1/4
    assert report.delta.tolist() == [1.0, 1.0]
    with pytest.raises(TypeError):
        InvarianceReport(env_ids=(0, 1), m_hat=np.zeros((2, 2)), inv=0.5, delta=np.zeros(2))
    with pytest.raises(AttributeError):
        report.inv = 0.5


@pytest.mark.parametrize("call, message", [
    (lambda: DensityModel(env_ids=(0, 1), means=np.zeros((2, 2)), variances=np.ones((2, 3))),
     "means/variances must be (m, p) matching env_ids"),
    (lambda: DensityModel(env_ids=(0, 1), means=np.zeros((2, 2)),
                          variances=np.ones((2, 2))).log_density(np.zeros((4, 3)), 0),
     "expected 2 features, got 3"),
], ids=["shapes-disagree", "log-density-width"])
def test_a_density_model_refuses_mismatched_widths(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_density_model_rejects_nonpositive_variance():
    with pytest.raises(ValueError, match="positive"):
        DensityModel(env_ids=(0,), means=np.zeros((1, 2)), variances=np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("field", ["means", "variances"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_density_model_rejects_a_non_finite_fit(field, value):
    fit = {"means": np.zeros((2, 2)), "variances": np.ones((2, 2))}
    fit[field][1, 0] = value
    with pytest.raises(ValueError, match="^means and variances must be finite$"):
        DensityModel(env_ids=(0, 1), **fit)


# ---------------------------------------------------------------------------
# likelihood ratios


def unit_gaussians(mu_b, mu_s):
    return DensityModel(
        env_ids=(0, 1),
        means=np.array([mu_b, mu_s], dtype=float),
        variances=np.ones((2, 2)),
    )


def test_likelihood_ratio_closed_form_two():
    # unit-variance Gaussians, means (1,0) vs (0,0):
    # log ratio = x1 - 1/2, so x1 = log(2) + 1/2 gives exactly ratio 2
    dens = unit_gaussians([1.0, 0.0], [0.0, 0.0])
    x = np.array([[np.log(2.0) + 0.5, 7.3]])
    r = likelihood_ratio(dens, x, baseline_env=0, source_env=1)
    assert abs(r[0] - 2.0) < 1e-12


def test_likelihood_ratio_clamped_at_both_ends():
    dens = unit_gaussians([1.0, 0.0], [0.0, 0.0])
    far_hi = np.array([[1e4, 0.0]])
    far_lo = np.array([[-1e4, 0.0]])
    assert likelihood_ratio(dens, far_hi, 0, 1)[0] == RATIO_CLAMP[1]
    assert likelihood_ratio(dens, far_lo, 0, 1)[0] == RATIO_CLAMP[0]


def test_likelihood_ratio_same_env_is_one():
    dens = unit_gaussians([1.0, 0.0], [0.0, 0.0])
    x = np.random.default_rng(3).normal(size=(20, 2))
    np.testing.assert_array_equal(likelihood_ratio(dens, x, 1, 1), np.ones(20))
    with pytest.raises(ValueError, match="unknown"):
        likelihood_ratio(dens, x, 5, 5)


def test_likelihood_ratio_reciprocity_when_unclamped():
    dens = unit_gaussians([0.5, 0.0], [0.0, 0.3])
    x = np.random.default_rng(4).normal(size=(50, 2))
    fwd = likelihood_ratio(dens, x, 0, 1)
    bwd = likelihood_ratio(dens, x, 1, 0)
    np.testing.assert_allclose(fwd * bwd, np.ones(50), rtol=1e-10)


# ---------------------------------------------------------------------------
# the m_hat cells and the statistic


def test_cells_with_unit_ratios_are_the_sources_mean_predictions():
    rng = np.random.default_rng(5)
    envs = [EnvDataset(e, rng.normal(size=(100, 2)), np.zeros(100)) for e in (0, 1)]
    # identical fitted Gaussians for both environments: every ratio is one
    dens = unit_gaussians([0.0, 0.0], [0.0, 0.0])
    model = two_row_model([2.0, -1.0])
    mat = inv_statistic(model, dens, envs).m_hat
    for j, env in enumerate(envs):
        for i in range(2):
            assert abs(mat[i, j] - float(np.mean(model.predict(env.features)))) < 1e-12


def test_each_cell_weighs_its_sources_predictions_by_the_ratio_fn():
    rng = np.random.default_rng(13)
    envs = [EnvDataset(e, rng.normal(size=(40, 2)), np.zeros(40)) for e in (3, 7)]
    dens = unit_gaussians([0.0, 0.0], [0.0, 0.0])
    model = two_row_model([1.0, 0.5])
    calls = []

    def ratio_fn(x, b, s):
        calls.append((b, s))
        return np.full(x.shape[0], 10.0 * b + s)

    mat = inv_statistic(model, dens, envs, ratio_fn=ratio_fn).m_hat
    assert sorted(calls) == [(3, 3), (3, 7), (7, 3), (7, 7)]
    for i, b in enumerate((3, 7)):
        for j, env in enumerate(envs):
            expected = float(np.mean(model.predict(env.features) * (10.0 * b + env.env_id)))
            assert mat[i, j] == expected


def test_inv_statistic_predicts_each_source_once():
    rng = np.random.default_rng(14)
    envs = [EnvDataset(e, rng.normal(size=(20, 2)), np.zeros(20)) for e in range(3)]
    model = two_row_model([1.0, -1.0])
    seen = []

    class Counting(LinearIRMModel):
        def predict(self, x):
            seen.append(x.shape[0])
            return super().predict(x)

    counting = Counting(phi=model.phi, penalty_weight=0.0)
    report = inv_statistic(counting, fit_density(envs), envs)
    assert seen == [20, 20, 20]
    assert report.m_hat.tolist() == inv_statistic(model, fit_density(envs), envs).m_hat.tolist()


def test_inv_statistic_rejects_bad_ratio_shape():
    rng = np.random.default_rng(6)
    envs = [EnvDataset(e, rng.normal(size=(10, 2)), np.zeros(10)) for e in (0, 1)]
    dens = unit_gaussians([0.0, 0.0], [0.0, 0.0])
    model = two_row_model([1.0, 0.0])
    with pytest.raises(ValueError, match=r"^ratio_fn returned shape \(3,\), expected \(10,\)$"):
        inv_statistic(model, dens, envs, ratio_fn=lambda x, b, s: np.ones(3))


def test_identical_environments_give_zero_inv_and_delta():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    envs = [EnvDataset(e, x, y) for e in range(3)]
    dens = fit_density(envs)
    model = LinearIRMModel(phi=rng.normal(size=(2, 3)), penalty_weight=0.0)
    report = inv_statistic(model, dens, envs)
    assert report.inv == 0.0
    np.testing.assert_array_equal(report.delta, np.zeros(3))


def test_inv_is_homogeneous_of_degree_two_in_the_weights():
    rng = np.random.default_rng(8)
    envs = [
        EnvDataset(e, rng.normal(scale=1.0 + e, size=(150, 3)), rng.normal(size=150))
        for e in range(3)
    ]
    dens = fit_density(envs)
    s = rng.normal(size=3)
    r1 = inv_statistic(two_row_model(s), dens, envs)
    r3 = inv_statistic(two_row_model(3.0 * s), dens, envs)
    assert r1.inv > 0
    np.testing.assert_allclose(r3.inv, 9.0 * r1.inv, rtol=1e-10)
    np.testing.assert_allclose(r3.m_hat, 3.0 * r1.m_hat, rtol=1e-10)


def test_inv_statistic_permutation_invariant():
    rng = np.random.default_rng(9)
    envs = [
        EnvDataset(e, rng.normal(scale=1.0 + e, size=(120, 3)), rng.normal(size=120))
        for e in range(3)
    ]
    dens = fit_density(envs)
    model = two_row_model(rng.normal(size=3))
    a = inv_statistic(model, dens, envs)
    b = inv_statistic(model, dens, [envs[2], envs[0], envs[1]])
    np.testing.assert_allclose(a.inv, b.inv, rtol=1e-12)


def test_inv_summary_matches_matrix_recomputation():
    rng = np.random.default_rng(10)
    envs = [
        EnvDataset(e, rng.normal(scale=1.0 + 0.5 * e, size=(100, 3)), rng.normal(size=100))
        for e in range(3)
    ]
    dens = fit_density(envs)
    report = inv_statistic(model=two_row_model([1.0, -2.0, 0.5]), density=dens, envs=envs)
    mat = report.m_hat
    assert abs(report.inv - float(np.mean(np.var(mat, axis=1)))) < 1e-15
    for i in range(3):
        off = (mat[i].sum() - mat[i, i]) / 2.0
        assert abs(report.delta[i] - abs(off - mat[i, i])) < 1e-15


def test_inv_statistic_needs_two_environments():
    rng = np.random.default_rng(11)
    env = EnvDataset(0, rng.normal(size=(30, 2)), np.zeros(30))
    dens = fit_density([env])
    with pytest.raises(ValueError, match=">= 2"):
        inv_statistic(two_row_model([1.0, 0.0]), dens, [env])


def test_spurious_weights_score_less_invariant_than_causal_weights():
    # In an E setting the X2 block's distribution shifts strongly across
    # environments, so prediction weights on X2 should look less invariant
    # than the data-generating weights on X1 (both normalized to unit norm).
    cfg = SemConfig(setting="FEU", seed=0)
    envs = [generate_sem(cfg, e, 1500, stream_seed=42) for e in cfg.env_params]
    dens = fit_density(envs)
    s_causal = np.concatenate([cfg.w_1y, np.zeros(cfg.dim_x2)])
    s_spur = np.concatenate([np.zeros(cfg.dim_x1), cfg.w_y2])
    s_causal /= np.linalg.norm(s_causal)
    s_spur /= np.linalg.norm(s_spur)
    inv_causal = inv_statistic(two_row_model(s_causal), dens, envs).inv
    inv_spur = inv_statistic(two_row_model(s_spur), dens, envs).inv
    print(f"inv causal={inv_causal:.4g} spurious={inv_spur:.4g}")
    assert inv_causal < inv_spur


# ---------------------------------------------------------------------------
# report output


def test_report_validation():
    with pytest.raises(ValueError, match=r"^m_hat must be \(2, 2\), got \(3, 3\)$"):
        InvarianceReport(env_ids=(0, 1), m_hat=np.zeros((3, 3)))
    with pytest.raises(ValueError, match="^need >= 2 environments to compare, got 1$"):
        InvarianceReport(env_ids=(0,), m_hat=np.zeros((1, 1)))


@pytest.mark.parametrize("m_hat", [
    np.full((2, 2), np.inf),
    np.array([[0.0, np.nan], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [-np.inf, 0.0]]),
    # finite cells whose row variance overflows while delta stays 0
    np.array([[0.0, 1.5e308, -1.5e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    # finite cells whose delta overflows
    np.array([[-1e308, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
], ids=["m_hat-all-inf", "m_hat-nan", "m_hat-minus-inf", "inv-overflow", "delta-overflow"])
def test_report_rejects_non_finite_entries(m_hat):
    with pytest.raises(ValueError, match="^m_hat, inv and delta entries must be finite$"):
        InvarianceReport(env_ids=tuple(range(len(m_hat))), m_hat=m_hat)


def test_write_report_round_trips_values(tmp_path):
    rng = np.random.default_rng(12)
    envs = [
        EnvDataset(e, rng.normal(scale=1.0 + e, size=(80, 2)), rng.normal(size=80))
        for e in (4, 9)
    ]
    dens = fit_density(envs)
    report = inv_statistic(two_row_model([0.3, 1.7]), dens, envs)
    path = tmp_path / "report.csv"
    write_report(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "baseline_env,source_env,m_hat"
    cells = [ln.split(",") for ln in lines[1:5]]
    assert [(c[0], c[1]) for c in cells] == [
        ("4", "4"), ("4", "9"), ("9", "4"), ("9", "9")
    ]
    for (i, j), c in zip([(0, 0), (0, 1), (1, 0), (1, 1)], cells):
        assert float(c[2]) == report.m_hat[i, j]
    assert lines[5].startswith("inv,")
    assert float(lines[5].split(",")[1]) == report.inv
    assert lines[6] == f"delta,4,{float(report.delta[0])!r}"
    assert lines[7] == f"delta,9,{float(report.delta[1])!r}"
