"""Acceptance gate: one test per headline behavioral guarantee.

The conformal criteria run the full benchmark protocol: 20 replications
per setting, 2000 calibration and 2000 test points split equally across
the three environments, IRMv1 fits with a per-setting penalty weight
(see PENALTY_BY_SETTING).  The remaining criteria are property checks
against independent oracles (brute-force quantiles, finite differences,
order-statistic bounds) at the scales stated in each test.

This module is the slow part of the suite (several minutes); everything
else in tests/ runs in seconds.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from acir.bench import ExperimentConfig, emit_outputs, run_experiment, summarize
from acir.conformal import calibrate
from acir.core import EnvDataset, PredictionInterval, conformal_quantile, coverage_rate
from acir.datagen import SemConfig, generate_sem, save_csv
from acir.invariance import fit_density, inv_statistic
from acir.models import FitConfig, LinearIRMModel, fit_erm, fit_irmv1, irm_objective

ALPHA = 0.05
REPS = 20
SEM_SEED = 56
SETTINGS = ("FOU", "POU", "FEU", "PEU")

# Training strength is a per-experiment hyperparameter: the O-settings need a
# strongly invariant fit so the residual scale tracks the environment noise,
# while FEU needs the anti-causal block retained (its noise is the only
# environment signal in the residuals).
PENALTY_BY_SETTING = {"FOU": 8.0, "POU": 30.0, "FEU": 0.7, "PEU": 1.0}

ENV_SIZES = (667, 667, 666)  # 2000 split as evenly as three ways allows


def _draw(cfg, sizes, stream_base):
    return [
        generate_sem(cfg, e, sizes[i], stream_seed=stream_base)
        for i, e in enumerate(cfg.env_params)
    ]


def _run_setting(setting):
    """20 replications of fit -> calibrate -> score for one setting."""
    cfg = SemConfig(setting=setting, seed=SEM_SEED)
    fit_cfg = FitConfig(
        penalty_weight=PENALTY_BY_SETTING[setting], init_scale=1.0
    )
    reps = []
    for rep in range(REPS):
        train = _draw(cfg, ENV_SIZES, 3 * rep)
        cal = _draw(cfg, ENV_SIZES, 3 * rep + 1)
        test = _draw(cfg, ENV_SIZES, 3 * rep + 2)
        model = fit_irmv1(train, replace(fit_cfg, seed=rep))
        state = calibrate(model, cal)
        sc_by_env, ac_by_env = [], []
        for te in test:
            sc_by_env.append(state.sc_intervals(te.features, ALPHA))
            ac_by_env.append(state.acir_intervals(te.features, ALPHA))
        y_all = np.concatenate([te.targets for te in test])
        sc_all = PredictionInterval(np.concatenate([iv.center for iv in sc_by_env]),
                                    np.concatenate([iv.half_width for iv in sc_by_env]))
        ac_all = PredictionInterval(np.concatenate([iv.center for iv in ac_by_env]),
                                    np.concatenate([iv.half_width for iv in ac_by_env]))
        reps.append({
            "sc_pooled_cov": coverage_rate(sc_all, y_all),
            "ac_pooled_cov": coverage_rate(ac_all, y_all),
            "sc_env_cov": [coverage_rate(ivs, te.targets)
                           for ivs, te in zip(sc_by_env, test)],
            "ac_env_cov": [coverage_rate(ivs, te.targets)
                           for ivs, te in zip(ac_by_env, test)],
            "sc_half": float(np.mean([iv.half_width for iv in sc_all])),
            "ac_half": float(np.mean([iv.half_width for iv in ac_all])),
        })
    return reps


@pytest.fixture(scope="module")
def runs():
    out = {}
    for setting in SETTINGS:
        start = time.perf_counter()
        out[setting] = _run_setting(setting)
        out[setting, "seconds"] = time.perf_counter() - start
    return out


def test_pooled_sc_coverage_all_settings(runs):
    """Pooled SC coverage >= 0.935 in >= 19/20 replications, < 5 min/setting."""
    for setting in SETTINGS:
        hits = sum(r["sc_pooled_cov"] >= 0.935 for r in runs[setting])
        print(f"{setting}: pooled SC coverage >= 0.935 in {hits}/{REPS} reps, "
              f"{runs[setting, 'seconds']:.0f}s")
        assert hits >= 19, f"{setting}: only {hits}/{REPS} replications covered"
        assert runs[setting, "seconds"] < 300.0


def test_per_env_ac_coverage_band(runs):
    """Per-environment AC coverage within [0.92, 0.98], averaged over reps."""
    mean_cov = np.mean([r["ac_env_cov"] for r in runs["FOU"]], axis=0)
    print("FOU per-env AC coverage:", [f"{c:.4f}" for c in mean_cov])
    for env_id, cov in enumerate(mean_cov):
        assert 0.92 <= cov <= 0.98, f"env {env_id}: mean AC coverage {cov:.4f}"


def test_ac_length_dominance(runs):
    """Mean AC half-width <= mean SC half-width in >= 18/20 reps, all settings."""
    for setting in SETTINGS:
        wins = sum(r["ac_half"] <= r["sc_half"] for r in runs[setting])
        print(f"{setting}: AC no wider than SC in {wins}/{REPS} reps")
        assert wins >= 18, f"{setting}: AC shorter in only {wins}/{REPS} reps"


def test_low_noise_env_overcoverage_split(runs):
    """FEU/PEU: SC overcovers (>0.99) while AC does not, in >= 15/20 reps."""
    for setting in ("FEU", "PEU"):
        hits = sum(
            r["sc_env_cov"][0] > 0.99 and r["ac_env_cov"][0] < 0.99
            for r in runs[setting]
        )
        print(f"{setting}: SC >0.99 and AC <0.99 in e=0.2 env in {hits}/{REPS} reps")
        assert hits >= 15, f"{setting}: split seen in only {hits}/{REPS} reps"


def _clamped_ratio(density, lo, hi):
    def ratio_fn(x, baseline_env, source_env):
        lg = density.log_density(x, baseline_env) - density.log_density(x, source_env)
        return np.clip(np.exp(np.clip(lg, np.log(lo), np.log(hi))), lo, hi)
    return ratio_fn


def test_invariance_ordering_irm_vs_erm():
    """Mean invariance statistic: IRM fit strictly below ERM fit, all settings."""
    for setting in SETTINGS:
        cfg = SemConfig(setting=setting, seed=SEM_SEED)
        irm_vals, erm_vals = [], []
        for rep in range(REPS):
            train = _draw(cfg, ENV_SIZES, 3 * rep)
            shared = FitConfig(penalty_weight=1000.0, seed=rep, init_scale=1.0)
            irm = fit_irmv1(train, shared)
            erm = fit_erm(train, shared)
            ev = [generate_sem(cfg, e, 2000, stream_seed=1_000_000 + rep)
                  for e in cfg.env_params]
            density = fit_density(ev)
            ratio_fn = _clamped_ratio(density, 1e-2, 1e2)
            irm_vals.append(inv_statistic(irm, density, ev, ratio_fn=ratio_fn).inv)
            erm_vals.append(inv_statistic(erm, density, ev, ratio_fn=ratio_fn).inv)
        mi, me = float(np.mean(irm_vals)), float(np.mean(erm_vals))
        print(f"{setting}: Inv(IRM)={mi:.4g} Inv(ERM)={me:.4g}")
        assert mi < me, f"{setting}: Inv(IRM)={mi:.6g} not below Inv(ERM)={me:.6g}"


def test_quantile_matches_brute_force():
    """conformal_quantile equals sort-and-index brute force, 1000 random vectors."""
    rng = np.random.default_rng(11)
    for trial in range(1000):
        n = int(rng.integers(1, 250))
        scores = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-2, 3)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force ties
        alpha = float(rng.uniform(0.005, 0.6))
        k = math.ceil((1.0 - alpha) * (n + 1))
        brute = math.inf if k > n else float(np.sort(scores)[k - 1])
        assert conformal_quantile(scores, alpha) == brute


def test_gradient_matches_finite_differences():
    """Analytic objective gradient vs central differences, 50 instances, <10 s."""
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    for _ in range(50):
        p = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        lam = float(rng.choice([0.5, 5.0, 50.0]))
        envs = []
        for env_id in range(int(rng.integers(2, 4))):
            n = int(rng.integers(15, 40))
            x = rng.standard_normal((n, p))
            y = x @ rng.standard_normal(p) + 0.3 * rng.standard_normal(n)
            envs.append(EnvDataset(env_id, x, y))
        phi = 0.7 * rng.standard_normal((d, p))

        def objective(mat):
            risk, penalty, _ = irm_objective(
                LinearIRMModel(phi=mat, penalty_weight=lam), envs
            )
            return risk + lam * penalty

        _, _, analytic = irm_objective(
            LinearIRMModel(phi=phi, penalty_weight=lam), envs
        )
        fd = np.zeros_like(phi)
        for i in range(d):
            for j in range(p):
                h = 1e-6 * (1.0 + abs(phi[i, j]))
                bump = np.zeros_like(phi)
                bump[i, j] = h
                fd[i, j] = (objective(phi + bump) - objective(phi - bump)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel < 1e-5, f"gradient mismatch: relative error {rel:.3g}"
    elapsed = time.perf_counter() - start
    print(f"50 gradient checks in {elapsed:.2f}s")
    assert elapsed < 10.0


def _random_state(rng, n_env=3, n=200):
    cfg = SemConfig(setting="FOU", seed=int(rng.integers(1000)))
    cal = [generate_sem(cfg, e, n, stream_seed=int(rng.integers(10_000)))
           for e in cfg.env_params]
    model = fit_irmv1(cal, FitConfig(penalty_weight=1.0, max_iters=50))
    return calibrate(model, cal)


def test_weights_normalize_and_stay_positive():
    """Environment weights sum to 1 within 1e-12 and are all > 0, 10000 points."""
    rng = np.random.default_rng(3)
    state = _random_state(rng)
    p = state.model.phi.shape[1]
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(p) * 10.0 ** rng.integers(-1, 3)
        w = state.environment_weights(x)
        worst = max(worst, abs(float(w.sum()) - 1.0))
        assert np.all(w > 0.0)
    print(f"max |sum(w) - 1| over 10000 points: {worst:.3e}")
    assert worst <= 1e-12


def test_identical_envs_reduce_to_pooled():
    """With identical environments, the weighted interval sits within one
    pooled order statistic of the plain pooled interval, 100 points."""
    rng = np.random.default_rng(17)
    n = 67  # makes the per-env and pooled quantile indices land one apart
    x = rng.standard_normal((n, 4))
    y = x @ np.array([1.0, -0.5, 0.3, 0.8]) + rng.standard_normal(n)
    envs = [EnvDataset(env_id, x, y) for env_id in range(4)]
    model = LinearIRMModel(phi=np.eye(4), penalty_weight=0.0)
    state = calibrate(model, envs)
    pooled = state.pooled_scores()
    for _ in range(100):
        pt = rng.standard_normal(4) * 2.0
        sc = state.sc_interval(pt, ALPHA).half_width
        ac = state.acir_interval(pt, ALPHA).half_width
        lo, hi = min(sc, ac), max(sc, ac)
        if hi > lo:
            above = pooled[pooled > lo]
            assert above.size > 0
            assert hi <= above[0] + 1e-12, (
                f"|ACIR - SC| = {hi - lo:.3g} exceeds the adjacent "
                f"order-statistic gap {above[0] - lo:.3g}"
            )


def test_metrics_csv_byte_determinism(tmp_path):
    """Two runs with identical config produce byte-identical metrics.csv."""
    cfg = ExperimentConfig(
        setting="FOU",
        replications=2,
        n_train_total=150,
        n_cal_total=150,
        n_test_total=90,
        methods=("SC-IRM", "AC-IRM"),
        seed=3,
        fit=FitConfig(penalty_weight=3.0, init_scale=1.0),
    )
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rows = run_experiment(cfg)
        emit_outputs(rows, summarize(rows), str(out))
        blobs.append((out / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_csv_ingestion_end_to_end(tmp_path):
    """A 3-train / 2-test environment CSV file reaches the coverage bars."""
    cfg = SemConfig(setting="FEU", env_params=(0.2, 1.0, 5.0), seed=9)
    envs = []
    for env_id, e in enumerate((0.2, 1.0, 5.0, 1.0, 5.0)):
        data = generate_sem(cfg, e, 1000, stream_seed=300 + env_id)
        envs.append(EnvDataset(env_id, data.features, data.targets))
    path = str(tmp_path / "ingest.csv")
    save_csv(envs, path)

    rows = run_experiment(ExperimentConfig(
        setting=f"csv:{path}",
        test_envs=(3, 4),
        replications=REPS,
        methods=("SC-IRM", "AC-IRM"),
        seed=1,
        fit=FitConfig(penalty_weight=30.0, init_scale=1.0),
    ))
    sc = [r.coverage for r in rows if r.method == "SC-IRM" and r.scope == "pooled"]
    ac = [r.coverage for r in rows if r.method == "AC-IRM" and r.scope == "pooled"]
    sc_hits = sum(c >= 0.935 for c in sc)
    ac_hits = sum(c >= 0.935 for c in ac)
    ac_env = {
        scope: float(np.mean([r.coverage for r in rows
                              if r.method == "AC-IRM" and r.scope == scope]))
        for scope in ("3", "4")
    }
    print(f"CSV fixture: SC pooled {sc_hits}/{REPS}, AC pooled {ac_hits}/{REPS}, "
          f"AC per-env means {ac_env}")
    assert sc_hits >= 19
    assert ac_hits >= 19
    for scope, cov in ac_env.items():
        assert 0.92 <= cov <= 0.98, f"held-out env {scope}: AC coverage {cov:.4f}"
