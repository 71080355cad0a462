"""Acceptance gate: every criterion runs here at its stated tolerance.

Each test prints one ``ACCEPTANCE PASS/FAIL: <name>`` line (visible with
``pytest -s``). Zero-noise structural recovery with two countries is
non-identified, so its check asserts that non-identification with an
independent rank oracle and that the estimator reports it; the companion
three-country test demonstrates exact recovery whenever the design is
identified.
"""

import time

import numpy as np
from scipy.stats import norm

import tvpgvar as tg
from tvpgvar import ShockSpec, WeightSequence
from tvpgvar.cli import main
from tvpgvar.errors import NumericalError
from tvpgvar.forecast import (
    ForecasterConfig, _lasso_inputs, _standardize, select_lasso_lambda, two_stage_forecast,
)
from tvpgvar.irf import commutation_matrix, derivative_Gn, derivative_H, elimination_matrix
from tvpgvar.sample import IRF_DATES, write_sample_config
from tvpgvar.tvp import PanelTVPResult, TVPTrajectory

from conftest import (
    from_reduced_form,
    make_panel,
    oirf_simulation_oracle,
    random_coefficients,
    random_stable_system,
    reported_point,
    simulate_structural,
    wave_weights,
)
from oracles import select_lambda_cd, vec, vech


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name}{suffix}")


def test_cholesky_reconstruction():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 13))
        root = rng.standard_normal((dim, dim))
        sigma = root @ root.T + 0.1 * np.eye(dim)
        factor = tg.cholesky_lower(sigma)
        rel = np.max(np.abs(factor @ factor.T - sigma)) / np.max(np.abs(sigma))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report("cholesky-reconstruction", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_oirf_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        system = random_stable_system(rng, dim)
        j = int(rng.integers(dim))
        point = reported_point(system, ShockSpec(targets=(j,), horizon=10, at_time=1))
        oracle = oirf_simulation_oracle(system, (j,), 10)
        worst = max(worst, float(np.max(np.abs(point - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report("oirf-oracle-equivalence", ok, f"worst abs {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_multi_shock_additivity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        system = random_stable_system(rng, dim)
        order = rng.permutation(dim)
        split = int(rng.integers(1, dim))
        set_a = tuple(int(j) for j in order[:split])
        set_b = (int(order[split]),)
        resp_a = reported_point(system, ShockSpec(targets=set_a, horizon=6, at_time=1))
        resp_b = reported_point(system, ShockSpec(targets=set_b, horizon=6, at_time=1))
        resp_ab = reported_point(system, ShockSpec(targets=set_a + set_b, horizon=6, at_time=1))
        worst = max(worst, float(np.max(np.abs(resp_ab - (resp_a + resp_b)))))
    ok = worst == 0.0
    report("multi-shock-additivity", ok, f"worst abs diff {worst:.1e}")
    assert worst == 0.0


def test_matrix_calculus_kit():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        s = rng.standard_normal((m, m))
        q = rng.standard_normal((m, n))
        ok &= bool(np.array_equal(elimination_matrix(m) @ vec(s), vech(s)))
        ok &= bool(np.array_equal(commutation_matrix(m, n) @ vec(q), vec(q.T)))
    report("matrix-calculus-kit", ok)
    assert ok


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(505)
    step = 1e-6
    worst_g = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        horizon = int(rng.integers(1, 6))
        f1 = 0.5 * rng.standard_normal((dim, dim))
        mas = tg.ma_coefficients(f1, horizon)
        analytic = derivative_Gn(f1, mas, horizon)
        numeric = np.empty_like(analytic)
        for col in range(dim * dim):
            delta = np.zeros(dim * dim)
            delta[col] = step
            delta = delta.reshape((dim, dim), order="F")
            up = tg.ma_coefficients(f1 + delta, horizon)[horizon]
            down = tg.ma_coefficients(f1 - delta, horizon)[horizon]
            numeric[:, col] = vec((up - down) / (2 * step))
        scale = max(np.max(np.abs(analytic)), 1e-12)
        worst_g = max(worst_g, float(np.max(np.abs(analytic - numeric)) / scale))

    worst_h = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        root = rng.standard_normal((dim, dim))
        sigma = root @ root.T + 0.5 * np.eye(dim)
        analytic = derivative_H(np.linalg.cholesky(sigma))
        numeric = np.empty_like(analytic)
        col = 0
        for j in range(dim):
            for i in range(j, dim):
                perturb = np.zeros((dim, dim))
                perturb[i, j] = step
                perturb[j, i] = step
                up = np.linalg.cholesky(sigma + perturb)
                down = np.linalg.cholesky(sigma - perturb)
                numeric[:, col] = vec((up - down) / (2 * step))
                col += 1
        scale = np.max(np.abs(analytic))
        worst_h = max(worst_h, float(np.max(np.abs(analytic - numeric)) / scale))

    ok = worst_g <= 1e-5 and worst_h <= 1e-5
    report("analytic-derivatives", ok, f"G rel {worst_g:.2e}, H rel {worst_h:.2e}")
    assert worst_g <= 1e-5
    assert worst_h <= 1e-5


def test_band_coverage_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    slope = np.array([[0.5, 0.1], [0.2, 0.3]])
    intercept = np.array([0.2, -0.1])
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    chol_true = np.linalg.cholesky(sigma)
    t_len, burn, reps, horizon = 500, 50, 1000, 6
    true_oirf = np.stack([np.linalg.matrix_power(slope, s) @ chol_true
                          for s in range(horizon + 1)])

    eps = rng.multivariate_normal(np.zeros(2), sigma, size=(reps, t_len + burn))
    x = np.zeros((reps, t_len + burn, 2))
    for t in range(1, t_len + burn):
        x[:, t] = intercept + x[:, t - 1] @ slope.T + eps[:, t]
    x = x[:, burn:]

    hits = np.zeros(horizon + 1)
    total = 0
    for r in range(reps):
        xr = x[r]
        design = np.column_stack([np.ones(t_len - 1), xr[:-1]])
        coef, _, _, _ = np.linalg.lstsq(design, xr[1:], rcond=None)
        resid = xr[1:] - design @ coef
        sigma_hat = resid.T @ resid / (t_len - 1 - 3)
        system = from_reduced_form(coef[0], coef[1:].T, sigma_hat)
        inputs = tg.estimate_asymptotic_inputs(make_panel(xr, ["A"], ["x1", "x2"]), system)
        shocks = [ShockSpec(targets=(j,), horizon=horizon, at_time=1) for j in range(2)]
        for j, result in enumerate(tg.asymptotic_bands(system, shocks, t_len - 1, inputs)):
            inside = ((true_oirf[:, :, j] >= result.lower)
                      & (true_oirf[:, :, j] <= result.upper))
            hits += inside.sum(axis=1)
        total += 4
    coverage = hits / total
    elapsed = time.perf_counter() - start
    ok = bool(np.all((coverage[1:] >= 0.90) & (coverage[1:] <= 0.98))) and elapsed < 300
    report("band-coverage", ok,
           "h1..h6 " + " ".join(f"{c:.3f}" for c in coverage[1:]) + f", {elapsed:.0f}s")
    assert np.all(coverage[1:] >= 0.90), coverage
    assert np.all(coverage[1:] <= 0.98), coverage
    assert elapsed < 300


def test_tvp_recovery_constant_ar1():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    t_len = 400
    y = np.empty(t_len)
    y[0] = 0.6
    for t in range(1, t_len):
        y[t] = 0.3 + 0.5 * y[t - 1] + 0.1 * rng.standard_normal()
    traj = tg.fit_equation(y, 1000, 77)
    averaged = traj.theta.mean(axis=0)
    err = np.abs(averaged - np.array([0.3, 0.5]))
    scales = np.abs(traj.sqrt_omega)
    elapsed = time.perf_counter() - start
    ok = bool(np.all(err < 0.1) and np.all(scales < 0.05)) and elapsed < 60
    report("tvp-recovery-constant-ar1", ok,
           f"theta err {err.max():.3f}, |sqrt_omega| {scales.max():.4f}, {elapsed:.0f}s")
    assert np.all(err < 0.1)
    assert np.all(scales < 0.05)
    assert elapsed < 60


def test_tvp_recovery_drifting_slope():
    start = time.perf_counter()
    rng = np.random.default_rng(1000)
    t_len = 400
    f_true = np.linspace(0.2, 0.8, t_len)
    y = np.empty(t_len)
    y[0] = 0.1 / (1 - f_true[0])
    for t in range(1, t_len):
        y[t] = 0.1 + f_true[t] * y[t - 1] + 0.05 * rng.standard_normal()
    traj = tg.fit_equation(y, 1000, (7, 0))
    corr = float(np.corrcoef(traj.theta[:, 1], f_true[1:])[0, 1])
    elapsed = time.perf_counter() - start
    ok = corr > 0.8 and elapsed < 60
    report("tvp-recovery-drifting-slope", ok, f"corr {corr:.3f}, {elapsed:.0f}s")
    assert corr > 0.8
    assert elapsed < 60


def test_lasso_correctness():
    rng = np.random.default_rng(606)
    # orthonormal design: solution is the soft-thresholded projection
    n, n_feat = 400, 6
    raw = np.column_stack([np.ones(n), rng.standard_normal((n, n_feat))])
    q, _ = np.linalg.qr(raw)
    x = q[:, 1:] * np.sqrt(n)
    y = x @ np.array([2.0, -1.5, 0.8, 0.05, 0.0, -0.02]) + 0.05 * rng.standard_normal(n)
    lam = 0.3
    fit = tg.lasso_fit(x, y, lam)
    yc = y - y.mean()
    xc = x - x.mean(axis=0)
    scale = np.sqrt(np.einsum("ij,ij->j", xc, xc) / n)
    z_std = xc.T @ yc / n / scale
    expected = np.sign(z_std) * np.maximum(np.abs(z_std) - lam, 0.0)
    soft_err = float(np.max(np.abs(fit.coef * scale - expected)))

    # lambda at or above lambda_max kills every coefficient
    x2 = rng.standard_normal((150, 4))
    y2 = rng.standard_normal(150) + x2[:, 0]
    lam_max = _standardize(x2, y2).lam_max
    zeroed = all(np.all(tg.lasso_fit(x2, y2, lam).coef == 0.0)
                 for lam in (lam_max, 2 * lam_max))

    # unpenalized limit reproduces OLS
    ols = np.linalg.lstsq(np.column_stack([np.ones(150), x2]), y2, rcond=None)[0]
    fit0 = tg.lasso_fit(x2, y2, 0.0)
    ols_err = float(max(np.max(np.abs(fit0.coef - ols[1:])), abs(fit0.intercept - ols[0])))

    ok = soft_err <= 1e-8 and zeroed and ols_err <= 1e-6
    report("lasso-correctness", ok,
           f"soft {soft_err:.1e}, ols {ols_err:.1e}, zero@lmax {zeroed}")
    assert soft_err <= 1e-8
    assert zeroed
    assert ols_err <= 1e-6


def test_lasso_cv_matches_scalar_oracle_on_sample(tmp_path):
    """The batched CV picks the scalar oracle's penalty on every training
    series of the sample dataset, at the sampler and grid sizes of the
    benchmark's ``sample`` workload."""
    config_path = write_sample_config(tmp_path, iters=50)
    assert main(["ingest", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    panel = tg.read_panel_csv(tmp_path / "out" / "panel.csv")
    train = panel.slice_rows(0, len(panel.time_index) - 6)
    fitted = tg.estimate_all(train, tg.TVPConfig(iters=50, seed=7))
    series = np.vstack([traj.theta.T for traj in fitted.trajectories])
    config = ForecasterConfig(kind="lasso", lag_window=6, cv_folds=2, grid_size=25)
    start = time.perf_counter()
    x, y, _, grids = _lasso_inputs(series, config)
    fast = grids[np.arange(series.shape[0]), select_lasso_lambda(x, y, grids, config.cv_folds)[0]]
    fast_s = time.perf_counter() - start
    start = time.perf_counter()
    slow = np.array([select_lambda_cd(row, 6, 2, 25, 1e-4) for row in series])
    slow_s = time.perf_counter() - start
    same = int(np.sum(fast == slow))
    report("lasso-cv-oracle", same == series.shape[0],
           f"same penalty on {same}/{series.shape[0]} series, "
           f"batched {fast_s:.2f}s vs scalar {slow_s:.2f}s")
    assert series.shape[0] == 20
    np.testing.assert_array_equal(fast, slow)


def k2_weights(t_len):
    """Valid K=2 weights: the country matrix is forced to the swap matrix;
    the activity column is free to vary."""
    we = np.zeros((t_len, 2, 2))
    we[:, 0, 1] = 1.0
    we[:, 1, 0] = 1.0
    t_ax = np.arange(t_len)
    wv = 0.5 + 0.28 * np.sin(2 * np.pi * t_ax / 19) + 0.15 * np.sin(2 * np.pi * t_ax / 7.1)
    wb = np.stack([wv, 1 - wv], axis=1)[:, :, None]
    return WeightSequence(we=we, wb=wb)


def test_structural_recovery_zero_noise_k2():
    """K=2, p=2, l=1, zero noise: recovery is non-identified, and the
    estimator must say so instead of returning coefficients.

    With two countries the zero-diagonal unit-column-sum weight matrix is
    forced to [[0,1],[1,0]], so country A's foreign aggregate is country B's
    block. Substituting B's equation makes the contemporaneous foreign
    regressors an exact linear combination of the other design columns for
    every valid zero-noise DGP: rank 7 of 9.

    (a) Independent oracle: country A's regressors are built here from the
    simulated series and the weights. Their numerical rank is 7, and the
    truth plus a null-space vector reproduces the target as well as the
    truth does while differing from it by more than 0.1 in the gamma_e0
    rows, so no estimator can recover gamma_e0 to 1e-8.
    (b) The estimator's promise: ``estimate_structural`` raises
    ``NumericalError`` naming equation A and rank 7 < 9. A returned fit
    fails the test. The K=3 companion test shows exact recovery once
    time-varying weights break the collinearity.
    """
    rng = np.random.default_rng(707)
    n_regions, p, l = 2, 2, 1
    coeffs = random_coefficients(rng, n_regions, p, l, scale=0.8)
    weights = k2_weights(400)
    x = simulate_structural(coeffs, weights, rng.standard_normal(5), n_regions, p, l)
    panel = make_panel(x, ["A", "B"], ["v1", "v2"], ["ACT"])

    # (a) country A: x_A,t on [1, x_A,t-1, x*_A,t, x*_A,t-1, b_t, b_t-1]
    x_e = x[:, :n_regions * p].reshape(-1, n_regions, p)
    x_b = x[:, n_regions * p:]
    star_a = np.einsum("ti,tip->tp", weights.we[:, :, 0], x_e)
    ones = np.ones((x.shape[0] - 1, 1))
    design = np.hstack([ones, x_e[:-1, 0], star_a[1:], star_a[:-1], x_b[1:], x_b[:-1]])
    target = x_e[1:, 0]
    truth = np.vstack([coeffs["ak"][0], coeffs["phi"][0].T, coeffs["ge0"][0].T,
                       coeffs["ge1"][0].T, coeffs["gb0"][0].T, coeffs["gb1"][0].T])
    ge0_rows = slice(1 + p, 1 + 2 * p)
    rank = int(np.linalg.matrix_rank(design))
    # right singular vector of the smallest singular value: a null vector
    alt = truth + np.linalg.svd(design)[2][-1][:, None]
    truth_err = float(np.max(np.abs(design @ truth - target)))
    alt_err = float(np.max(np.abs(design @ alt - target)))
    ge0_gap = float(np.max(np.abs(alt[ge0_rows] - truth[ge0_rows])))
    non_identified = rank == 7 and max(truth_err, alt_err) <= 1e-12 and ge0_gap > 0.1

    # (b) the estimator reports the deficiency
    try:
        tg.estimate_structural(panel, weights)
        message = "estimator returned coefficients"
    except NumericalError as exc:
        message = str(exc)
    reported = "equation A" in message and "rank 7 < 9" in message

    report("structural-recovery-k2 (non-identified, reported)", non_identified and reported,
           f"oracle rank {rank}/9, fit err {truth_err:.1e}, null-shifted err {alt_err:.1e}, "
           f"gamma_e0 gap {ge0_gap:.2f}; estimator: {message}")
    assert rank == 7
    assert truth_err <= 1e-12
    assert alt_err <= 1e-12
    assert ge0_gap > 0.1
    assert reported, message


def test_structural_recovery_zero_noise_k3():
    # supporting evidence: with K=3 the time-varying weights identify every
    # block and least squares recovers the truth to machine precision
    rng = np.random.default_rng(808)
    n_regions, p, l = 3, 2, 1
    coeffs = random_coefficients(rng, n_regions, p, l)
    weights = wave_weights(400, n_regions, l)
    x = simulate_structural(coeffs, weights, rng.standard_normal(7), n_regions, p, l)
    panel = make_panel(x, ["A", "B", "C"], ["v1", "v2"], ["ACT"])
    fit = tg.estimate_structural(panel, weights)
    worst = 0.0
    for k in range(n_regions):
        c = fit.countries[k]
        for est, true in [(c.phi1, coeffs["phi"][k]), (c.gamma_e0, coeffs["ge0"][k]),
                          (c.gamma_e1, coeffs["ge1"][k]), (c.gamma_b0, coeffs["gb0"][k]),
                          (c.gamma_b1, coeffs["gb1"][k]), (c.a_k, coeffs["ak"][k])]:
            worst = max(worst, float(np.max(np.abs(est - true))))
    act = fit.activities[0]
    for est, true in [(act.phi_b, coeffs["phib"][0]), (act.a_m, coeffs["am"][0]),
                      (act.gamma_be0, coeffs["gbe0"][0]), (act.gamma_be1, coeffs["gbe1"][0])]:
        worst = max(worst, float(np.max(np.abs(np.asarray(est) - np.asarray(true)))))
    ok = worst <= 1e-8
    report("structural-recovery-k3 (identified variant)", ok, f"max err {worst:.2e}")
    assert worst <= 1e-8


def test_forecaster_head_to_head():
    start = time.perf_counter()
    h = 6
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        t_len = 246
        t_ax = np.arange(t_len)
        f_true = 0.5 + 0.3 * np.sin(2 * np.pi * t_ax / 120)
        b_true = np.full(t_len, 0.3)
        y = np.empty(t_len)
        y[0] = b_true[0] / (1 - f_true[0])
        for t in range(1, t_len):
            y[t] = b_true[t] + f_true[t] * y[t - 1] + 0.03 * rng.standard_normal()
        panel = make_panel(y[:, None], ["A"], ["v1"])
        train = panel.slice_rows(0, t_len - h)
        actuals = panel.values[t_len - h:]
        theta_true = np.column_stack([b_true[1:t_len - h], f_true[1:t_len - h]])
        trajectories = PanelTVPResult(trajectories=[TVPTrajectory(
            theta0=theta_true[0].copy(), sqrt_omega=np.ones(2), theta=theta_true,
            sigma2=0.03 ** 2)], errors={})
        res_const = two_stage_forecast(
            train, trajectories, ForecasterConfig(kind="constant", horizon=h),
            actuals=actuals)
        res_lasso = two_stage_forecast(
            train, trajectories,
            ForecasterConfig(kind="lasso", horizon=h, lag_window=8,
                             cv_folds=5, grid_size=30),
            actuals=actuals)
        if res_lasso.pooled_mse <= res_const.pooled_mse:
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins >= 15
    report("forecaster-head-to-head", ok, f"lasso wins {wins}/20, {elapsed:.0f}s")
    assert wins >= 15


def test_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    config_path = write_sample_config(tmp_path)
    outputs = []
    for out_name in ("out_a", "out_b"):
        out_dir = tmp_path / out_name
        for command in ("ingest", "estimate", "irf", "forecast"):
            code = main([command, "--config", str(config_path), "--out", str(out_dir)])
            assert code == 0, f"{command} failed"
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    elapsed = time.perf_counter() - start

    identical = outputs[0].keys() == outputs[1].keys() and all(
        outputs[0][name] == outputs[1][name] for name in outputs[0])
    names = set(outputs[0])
    has_mse = "mse_report.csv" in names and "trajectories_train_meta.json" in names
    irf_jsons = [n for n in names if n.startswith("irf_") and n.endswith(".json")]
    has_dates = all(any(date in n for n in irf_jsons) for date in IRF_DATES)
    ok = identical and has_mse and has_dates and elapsed < 300
    report("end-to-end-determinism", ok,
           f"{len(names)} artifacts, irf files {len(irf_jsons)}, {elapsed:.0f}s")
    assert identical, "pipeline outputs differ between identical reruns"
    assert has_mse
    assert has_dates
    assert elapsed < 300
