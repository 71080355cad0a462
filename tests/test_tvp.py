import importlib.machinery
import importlib.util
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import lapack

from tvpgvar import (
    TVPConfig,
    estimate_all,
    fit_equation,
    sample_sigma,
    sample_theta0_omega,
    sample_theta_tilde_banded,
)
from tvpgvar.cli import main
from tvpgvar.config import load_config
from tvpgvar.errors import NumericalError, ValidationError
from tvpgvar.ingest import read_panel_csv
from tvpgvar.sample import write_sample_config
from tvpgvar.tvp import (
    P0_SCALE,
    TVPTrajectory,
    _flapack,
    kalman_forward,
    read_trajectories,
    sample_theta_tilde_smoothed,
    sigma_posterior,
    write_trajectories,
)

from conftest import make_panel
from oracles import fit_equation_loop


def simulate_tvp_series(rng, t_len, theta0, sqrt_omega, sigma, y0=0.0):
    """Observations from the non-centred state-space model (oracle DGP)."""
    tilde = np.cumsum(rng.standard_normal((t_len, 2)), axis=0)
    tilde[0] = 0.0
    y = np.empty(t_len)
    y[0] = y0
    for t in range(1, t_len):
        b = theta0[0] + sqrt_omega[0] * tilde[t, 0]
        f = theta0[1] + sqrt_omega[1] * tilde[t, 1]
        y[t] = b + f * y[t - 1] + sigma * rng.standard_normal()
    return y, tilde


def step3(y, tilde):
    """Target and design of the (theta0, sqrt_omega) regression."""
    design = np.column_stack([np.ones(y.size - 1), y[:-1],
                              tilde[:, 0], y[:-1] * tilde[:, 1]])
    return y[1:], design


def draw_one(target, design, sigma2, rng):
    """(theta0, sqrt_omega) of a one-column stack."""
    draw, failed = sample_theta0_omega(target[None], design[None], np.array([sigma2]), [rng])
    assert failed == {}
    return draw[0, :2], draw[0, 2:]


class TestKalmanForward:
    def test_zero_loading_keeps_prior_mean(self):
        y = np.full(20, 3.0)
        theta0 = np.array([1.0, 0.5])
        state = kalman_forward(y, theta0, np.zeros(2), sigma2=0.25)
        np.testing.assert_array_equal(state.m, 0.0)
        # innovations equal the constant residual y - [1, y] theta0
        expected = 3.0 - (1.0 + 0.5 * 3.0)
        np.testing.assert_allclose(state.innovations, expected)
        np.testing.assert_allclose(state.innovation_var, 0.25 + 2e-15, atol=1e-12)

    def test_hand_computed_step(self):
        # single update worked through the five formulas with plain matrices
        y = np.array([1.0, 2.0, 1.5])
        theta0 = np.array([0.2, 0.3])
        sw = np.array([0.7, -0.4])
        sigma2 = 0.3
        m0 = np.array([0.1, -0.2])
        p0 = np.array([[0.5, 0.1], [0.1, 0.8]])
        state = kalman_forward(y, theta0, sw, sigma2, m0=m0, p0=p0)

        m = m0.copy()
        p = p0.copy()
        for t in (1, 2):
            h = np.array([sw[0], sw[1] * y[t - 1]])
            ystar = y[t] - (theta0[0] + theta0[1] * y[t - 1])
            p_pred = p + np.eye(2)
            v = ystar - h @ m
            s = h @ p_pred @ h + sigma2
            k = p_pred @ h / s
            m = m + k * v
            p = p_pred - np.outer(k, k) * s
            np.testing.assert_allclose(state.m[t - 1], m, atol=1e-12)
            np.testing.assert_allclose(state.p[t - 1], p, atol=1e-12)
            np.testing.assert_allclose(state.innovations[t - 1], v, atol=1e-12)
            np.testing.assert_allclose(state.innovation_var[t - 1], s, atol=1e-12)
            np.testing.assert_allclose(state.gains[t - 1], k, atol=1e-12)

    def test_tracks_random_walk_states(self, rng):
        theta0 = np.array([0.2, 0.5])
        sw = np.array([0.05, 0.02])
        sigma = 0.1
        y, tilde = simulate_tvp_series(rng, 400, theta0, sw, sigma)
        state = kalman_forward(y, theta0, sw, sigma ** 2)
        rmse_filter = np.sqrt(np.mean((state.m - tilde[1:]) ** 2))
        rmse_prior = np.sqrt(np.mean(tilde[1:] ** 2))  # no-filter baseline: m0 = 0
        assert rmse_filter < rmse_prior

    def test_filtered_covariances_psd_symmetric(self, rng):
        y = rng.standard_normal(200)
        state = kalman_forward(y, np.zeros(2), np.array([0.3, 0.2]), 0.5)
        np.testing.assert_array_equal(state.p[:, 0, 1], state.p[:, 1, 0])
        eig_min = np.linalg.eigvalsh(state.p).min()
        assert eig_min >= -1e-10

    def test_rls_degenerate_case(self, rng):
        # with zero state noise the filter is recursive (Bayesian) least
        # squares; compare against the batch solution at every step
        t_len = 60
        y = rng.standard_normal(t_len)
        theta0 = np.zeros(2)
        sw = np.array([1.0, 1.0])
        sigma2 = 0.4
        state = kalman_forward(y, theta0, sw, sigma2, m0=np.zeros(2), p0=np.eye(2),
                               state_noise=0.0)
        for t in range(1, t_len):
            h_rows = np.column_stack([np.full(t, sw[0]), sw[1] * y[:t]])
            targets = y[1:t + 1]
            prec = np.eye(2) + h_rows.T @ h_rows / sigma2
            mean = np.linalg.solve(prec, h_rows.T @ targets / sigma2)
            np.testing.assert_allclose(state.m[t - 1], mean, atol=1e-8)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            kalman_forward(np.array([1.0]), np.zeros(2), np.ones(2), 0.1)
        with pytest.raises(ValidationError):
            kalman_forward(np.ones(5), np.zeros(2), np.ones(2), 0.0)


def dense_path_posterior(y, theta0, sqrt_omega, sigma2):
    """Posterior mean and covariance of the interleaved standardized path by
    plain Gaussian conditioning of the joint (path, observation) prior.

    Built from the state-space definition only: theta_tilde_0 ~ N(0, p0)
    with the sampler's fixed p0 = P0_SCALE * I, unit random-walk steps, so
    Cov(x_t, x_s) = p0 + min(t, s) I, and y*_t = h_t' x_t + N(0, sigma2).
    """
    n = y.size - 1
    steps = np.arange(1, n + 1)
    prior_cov = (np.kron(np.ones((n, n)), P0_SCALE * np.eye(2))
                 + np.kron(np.minimum.outer(steps, steps), np.eye(2)))
    prior_mean = np.zeros(2 * n)
    loading = np.zeros((n, 2 * n))
    loading[steps - 1, 2 * steps - 2] = sqrt_omega[0]
    loading[steps - 1, 2 * steps - 1] = sqrt_omega[1] * y[:-1]
    ystar = y[1:] - theta0[0] - theta0[1] * y[:-1]
    obs_cov = loading @ prior_cov @ loading.T + sigma2 * np.eye(n)
    gain = np.linalg.solve(obs_cov, loading @ prior_cov).T
    mean = prior_mean + gain @ (ystar - loading @ prior_mean)
    cov = prior_cov - gain @ loading @ prior_cov
    return mean, (cov + cov.T) / 2.0


class FixedNormals:
    """Generator stand-in whose ``standard_normal`` returns a preset vector."""

    def __init__(self, values):
        self.values = np.asarray(values, float)

    def standard_normal(self, size):
        return self.values.reshape(size).copy()


class TestSampleThetaTildeBanded:
    theta0 = np.array([0.3, -0.4])
    sqrt_omega = np.array([0.6, 0.35])
    sigma2 = 0.45

    def draw(self, y, rng):
        # a one-column stack
        draws, failed = sample_theta_tilde_banded(y[None], self.theta0[None],
                                                  self.sqrt_omega[None],
                                                  np.array([self.sigma2]), [rng])
        assert failed == {}
        return draws[0]

    @pytest.mark.parametrize("t_len", [2, 3, 13])
    def test_exact_moments_match_dense_conditioning(self, rng, t_len):
        # a zero normal vector returns the mean; unit vectors return the
        # columns of a square root of the covariance
        y = 1.0 + rng.standard_normal(t_len)
        dim = 2 * (t_len - 1)
        mean, cov = dense_path_posterior(y, self.theta0, self.sqrt_omega, self.sigma2)
        got_mean = self.draw(y, FixedNormals(np.zeros(dim))).reshape(-1)
        roots = np.column_stack([self.draw(y, FixedNormals(e)).reshape(-1) - got_mean
                                 for e in np.eye(dim)])
        np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(roots @ roots.T, cov, rtol=0, atol=1e-10)

    def test_monte_carlo_matches_oracle_and_carter_kohn(self, rng):
        # the banded draw and the Kalman + backward-sampling draw both hit
        # the dense-conditioning moments within Monte-Carlo error
        y = 1.0 + rng.standard_normal(13)
        mean, cov = dense_path_posterior(y, self.theta0, self.sqrt_omega, self.sigma2)
        state = kalman_forward(y, self.theta0, self.sqrt_omega, self.sigma2)
        n_draws = 4000
        gen_banded = np.random.default_rng(21)
        gen_ck = np.random.default_rng(22)
        samplers = {
            "banded": lambda: self.draw(y, gen_banded),
            "carter-kohn": lambda: sample_theta_tilde_smoothed(state, gen_ck),
        }
        sd = np.sqrt(np.diag(cov))
        cov_se = np.sqrt((np.outer(sd ** 2, sd ** 2) + cov ** 2) / n_draws)
        for name, sampler in samplers.items():
            draws = np.stack([sampler().reshape(-1) for _ in range(n_draws)])
            mean_z = (draws.mean(axis=0) - mean) / (sd / np.sqrt(n_draws))
            cov_z = (np.cov(draws.T) - cov) / cov_se
            assert np.max(np.abs(mean_z)) < 4.5, name
            assert np.max(np.abs(cov_z)) < 5.0, name

    def test_singular_precision_reported_per_column(self):
        # with powers of two the rounding is exact: 2 + 2^80 == 2^80, so the
        # second pivot of column 1's first block is exactly zero; column 0
        # of the same stack is drawn as if it were alone
        y = np.ones((2, 10))
        sqrt_omega = np.array([self.sqrt_omega, np.full(2, 2.0 ** 40)])
        theta0 = np.array([self.theta0, np.zeros(2)])
        draws, failed = sample_theta_tilde_banded(
            y, theta0, sqrt_omega, np.array([self.sigma2, 1.0]),
            [np.random.default_rng(0), np.random.default_rng(1)])
        assert failed == {1: "state precision not positive definite (dpbtrf info 2)"}
        np.testing.assert_array_equal(draws[0], self.draw(y[0], np.random.default_rng(0)))
        # the draws overwrite the right-hand sides: a failed column keeps none of them
        np.testing.assert_array_equal(draws[1], np.zeros((9, 2)))

    def test_bad_inputs(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            sample_theta_tilde_banded(np.array([[1.0]]), np.zeros((1, 2)), np.ones((1, 2)),
                                      np.array([0.1]), [gen])
        with pytest.raises(ValidationError):
            sample_theta_tilde_banded(np.ones((1, 5)), np.zeros((1, 2)), np.ones((1, 2)),
                                      np.array([0.0]), [gen])


def random_band(rng, size):
    """Upper band storage (3 x size) of a random SPD matrix of bandwidth 2."""
    band = np.zeros((3, size))
    band[0, 2:] = rng.uniform(-1.0, 1.0, size - 2)
    band[1, 1:] = rng.uniform(-1.0, 1.0, size - 1)
    band[2] = rng.uniform(4.5, 6.0, size)
    return band


class TestBandedLapack:
    """The extension loaded by file path runs the same Fortran as the public
    ``scipy.linalg.lapack``: every output is equal bit for bit."""

    def test_matches_public_scipy_lapack(self, rng):
        ours = _flapack()
        assert ours is not lapack._flapack
        band = random_band(rng, 24)
        rhs = rng.standard_normal((24, 3))
        chol, info = ours.dpbtrf(band.copy())
        ref_chol, ref_info = lapack.dpbtrf(band.copy())
        assert info == ref_info == 0
        assert np.array_equal(chol, ref_chol)
        for trans in ("N", "T"):
            x, info = ours.dtbtrs(chol, rhs.copy(), trans=trans)
            ref_x, ref_info = lapack.dtbtrs(ref_chol, rhs.copy(), trans=trans)
            assert info == ref_info == 0
            assert np.array_equal(x, ref_x)

    def test_not_positive_definite_same_info(self, rng):
        band = random_band(rng, 10)
        band[2, 6] = -1.0
        _, info = _flapack().dpbtrf(band.copy())
        _, ref_info = lapack.dpbtrf(band.copy())
        assert info == ref_info == 7

    @pytest.mark.parametrize("installed", [False, True])
    def test_missing_extension_is_an_import_error(self, monkeypatch, tmp_path, installed):
        # a SciPy that is absent, or whose linalg folder has no _flapack.*
        package = tmp_path / "scipy"
        package.mkdir()
        (package / "__init__.py").touch()
        spec = (importlib.machinery.ModuleSpec("scipy", None, origin=str(package / "__init__.py"))
                if installed else None)
        real_find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args:
                            spec if name == "scipy" else real_find_spec(name, *args))
        match = re.escape(str(package / "linalg")) if installed else "not installed"
        _flapack.cache_clear()  # a failed load is not cached
        with pytest.raises(ImportError, match=match + r".*scipy>=1\.10"):
            _flapack()


class TestSampleTheta0Omega:
    def test_flat_prior_zero_noise_matches_ols(self, rng):
        # the data-based prior precision diag((X'X)^-1) is O(1) while the
        # data's is X'X / sigma2, so a vanishing noise variance makes the
        # prior flat and collapses the draw onto the OLS solution
        t_len = 120
        y = rng.standard_normal(t_len)
        tilde = rng.standard_normal((t_len - 1, 2))
        target, design = step3(y, tilde)
        theta0, sw = draw_one(target, design, 1e-18, np.random.default_rng(3))
        ols = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(np.concatenate([theta0, sw]), ols, atol=1e-6)

    def test_posterior_moments_match_analytic(self, rng):
        t_len = 80
        y = rng.standard_normal(t_len)
        tilde = rng.standard_normal((t_len - 1, 2))
        sigma2 = 0.3
        target, design = step3(y, tilde)
        # A0^-1 = diag{diag((X'X)^-1)}: the data-based prior, with mean zero
        a0_inv = np.diag(np.diag(np.linalg.inv(design.T @ design)))
        prec = design.T @ design / sigma2 + a0_inv
        cov = np.linalg.inv(prec)
        mean = cov @ (design.T @ target / sigma2)
        gen = np.random.default_rng(5)
        draws = np.stack([
            np.concatenate(draw_one(target, design, sigma2, gen))
            for _ in range(6000)])
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)

    def test_synthetic_recovery_within_posterior_spread(self, rng):
        theta0 = np.array([0.4, 0.3])
        sw = np.array([0.08, 0.04])
        y, tilde = simulate_tvp_series(rng, 500, theta0, sw, 0.05)
        target, design = step3(y, tilde[1:])
        gen = np.random.default_rng(9)
        draws = np.stack([
            np.concatenate(draw_one(target, design, 0.05 ** 2, gen))
            for _ in range(500)])
        post_mean = draws.mean(axis=0)
        post_sd = draws.std(axis=0)
        truth = np.concatenate([theta0, sw])
        # signs of sqrt_omega are unidentified; compare magnitudes
        for j in range(4):
            estimate = abs(post_mean[j]) if j >= 2 else post_mean[j]
            assert abs(estimate - truth[j]) < 3 * max(post_sd[j], 1e-3)


class TestSampleSigma:
    def test_plug_in_posterior_parameters(self):
        y = np.zeros(100)
        design = np.zeros((100, 4))
        theta = np.zeros(4)
        c_t, big_c_t = sigma_posterior(y[None], design[None], theta[None])
        assert c_t == pytest.approx(50.01)
        assert big_c_t == pytest.approx([0.01])

    def test_precision_moment(self, rng):
        t_len = 100
        y = rng.standard_normal(t_len)
        design = np.column_stack([np.ones(t_len), rng.standard_normal((t_len, 3))])
        theta = rng.standard_normal(4)
        c_t, (big_c_t,) = sigma_posterior(y[None], design[None], theta[None])
        gen = np.random.default_rng(2)
        draws = np.array([1.0 / sample_sigma(y[None], design[None], theta[None], [gen])[0][0]
                          for _ in range(100_000)])
        assert abs(draws.mean() - c_t / big_c_t) / (c_t / big_c_t) < 0.01

    def test_ssr_linearity(self, rng):
        y = rng.standard_normal(60)
        design = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        theta = rng.standard_normal(4)
        _, (rate_one,) = sigma_posterior(y[None], design[None], theta[None])
        resid = y - design @ theta
        ssr = float(resid @ resid)
        _, (rate_two,) = sigma_posterior(np.sqrt(2.0) * y[None], np.sqrt(2.0) * design[None],
                                         theta[None])
        assert rate_two - rate_one == pytest.approx(0.5 * ssr, rel=1e-12)


class TestRunAlgorithm1:
    def test_single_iteration_deterministic(self, rng):
        y = rng.standard_normal(50)
        a = fit_equation(y, 1, 123)
        b = fit_equation(y, 1, 123)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.theta0, b.theta0)
        np.testing.assert_array_equal(a.sqrt_omega, b.sqrt_omega)
        assert a.sigma2 == b.sigma2

    @pytest.mark.parametrize("sigma2, theta0, theta", [
        (np.nan, [0.0, 0.0], [[0.0, 0.0]]),
        (0.5, [np.nan, 0.0], [[5.0, 0.0]]),
        (0.5, [0.0, 0.0], [[np.nan, 0.0]]),
    ])
    def test_nan_trajectory_rejected(self, sigma2, theta0, theta):
        # every comparison with NaN is False, so a check must be written to fail on it
        with pytest.raises(ValidationError, match="sigma2|theta"):
            TVPTrajectory(theta0=np.array(theta0), sqrt_omega=np.ones(2),
                          theta=np.array(theta), sigma2=sigma2)

    @pytest.mark.parametrize("name", ["theta0", "sqrt_omega", "theta"])
    def test_trajectory_arrays_read_only(self, rng, name):
        # checked once when built: no later write can slip a NaN past the check
        traj = fit_equation(rng.standard_normal(40), 5, 3)
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = np.nan

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="at least 3 observations"):
            fit_equation(np.ones(2), 10, 0)
        with pytest.raises(ValidationError, match="must be finite"):
            fit_equation(np.array([1.0, np.nan, 2.0]), 10, 0)
        with pytest.raises(ValidationError, match="iters must be >= 1"):
            fit_equation(np.ones(10), 0, 0)
        with pytest.raises(ValidationError, match="tvp.iters must be >= 1"):
            TVPConfig(iters=0)
        with pytest.raises(ValidationError, match="tvp.seed must be >= 0"):
            TVPConfig(seed=-1)


class TestEstimateAll:
    def test_single_column_panel(self, rng):
        y = 0.3 + np.cumsum(0.1 * rng.standard_normal(40))
        panel = make_panel(y[:, None], ["A"], ["v1"])
        result = estimate_all(panel, TVPConfig(iters=5, seed=1))
        assert result.ok
        assert len(result.trajectories) == 1
        assert result.trajectories[0].theta.shape == (39, 2)

    def test_column_order_preserved_and_deterministic(self, rng):
        values = rng.standard_normal((60, 10)) + np.arange(10)
        panel = make_panel(values, ["A", "B", "C"], ["x", "y", "z"], ["ACT"])
        config = TVPConfig(iters=3, seed=9)
        res_a = estimate_all(panel, config)
        res_b = estimate_all(panel, config)
        assert len(res_a.trajectories) == 10
        for ta, tb in zip(res_a.trajectories, res_b.trajectories):
            np.testing.assert_array_equal(ta.theta, tb.theta)

    def test_failures_collected_run_continues(self, rng):
        # column 1 at 1e160 overflows X'X in the first coefficient draw; the
        # other columns come out bit-equal to their runs without it, each
        # alone on its own stream
        values = rng.standard_normal((40, 3))
        values[:, 1] *= 1e160
        result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                              TVPConfig(iters=2, seed=0))
        assert not result.ok
        assert set(result.errors) == {"A.y"}
        assert result.errors["A.y"].startswith("iteration 0: ")
        assert result.trajectories[1] is None
        assert result.trajectories[0] is not None
        assert result.trajectories[2] is not None
        for i in (0, 2):
            ours, alone = result.trajectories[i], fit_equation(values[:, i], 2, (0, i))
            np.testing.assert_array_equal(ours.theta, alone.theta)
            np.testing.assert_array_equal(ours.sqrt_omega, alone.sqrt_omega)
            assert ours.sigma2 == alone.sigma2

    def test_path_reason_comes_first(self, rng, monkeypatch):
        # A.y's path draw fails at iteration 1 and leaves NaN rows, so its
        # coefficient and variance draws fail too; the column is named once,
        # with the path reason, and the others keep their chains
        import tvpgvar.tvp as tvp_module

        values = rng.standard_normal((40, 3))
        alone = {i: fit_equation(values[:, i], 3, (0, i)) for i in (0, 2)}
        reason = "state precision not positive definite (dpbtrf info 5)"
        draw = tvp_module.sample_theta_tilde_banded
        calls = itertools.count()

        def failing(y, theta0, sqrt_omega, sigma2, rngs):
            tilde, failed = draw(y, theta0, sqrt_omega, sigma2, rngs)
            if next(calls) == 1:
                tilde[1] = np.nan
                failed[1] = reason
            return tilde, failed

        monkeypatch.setattr(tvp_module, "sample_theta_tilde_banded", failing)
        result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                              TVPConfig(iters=3, seed=0))
        assert result.errors == {"A.y": f"iteration 1: {reason}"}
        assert [t is None for t in result.trajectories] == [False, True, False]
        for i in (0, 2):
            ours = result.trajectories[i]
            np.testing.assert_array_equal(ours.theta, alone[i].theta)
            np.testing.assert_array_equal(ours.theta0, alone[i].theta0)
            np.testing.assert_array_equal(ours.sqrt_omega, alone[i].sqrt_omega)
            assert ours.sigma2 == alone[i].sigma2

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_column_is_a_numerical_error(self, rng, scale):
        # the pseudo-inverse of a non-finite X'X used to raise LinAlgError out
        # of estimate_all and lose every column; the overflow on the way to
        # the reason raises no numpy warning either
        values = rng.standard_normal((40, 3))
        values[:, 1] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                                  TVPConfig(iters=3, seed=0))
            with pytest.raises(NumericalError, match=r"^iteration 0: non-finite X'X"):
                fit_equation(values[:, 1], 3, 0)
        assert result.errors == {"A.y": "iteration 0: non-finite X'X in coefficient posterior"}
        assert [t is None for t in result.trajectories] == [False, True, False]

    def test_constant_column_takes_the_pseudo_inverse_prior(self):
        # a constant series makes X'X singular, but rounding gives this one a
        # Cholesky factor whose inverse would put a huge prior precision on
        # the unidentified direction; the pseudo-inverse drops it, as the
        # per-column loop did
        values = np.random.default_rng(3).standard_normal((60, 2))
        values[:, 1] = 4.2
        result = estimate_all(make_panel(values, ["A"], ["x", "y"]), TVPConfig(iters=5, seed=0))
        reference = fit_equation_loop(values[:, 1], 5, (0, 1))
        np.testing.assert_allclose(result.trajectories[1].theta, reference.theta, rtol=0,
                                   atol=1e-6 * np.abs(reference.theta).max())

    def test_holds_one_iteration_at_a_time(self):
        # the largest arrays the sampler must hold at once: one path draw's
        # band (3 lower diagonals) and right-hand sides over the 2n
        # interleaved states of every column, and the final standardized path
        # with the theta paths built from it; a loop that also keeps the
        # previous iteration's path and step-3 designs, or full-size
        # temporaries, goes over
        width, t_len, iters = 31, 250, 20
        values = 1.0 + np.cumsum(0.1 * np.random.default_rng(7).standard_normal((t_len, width)),
                                 axis=0)
        panel = make_panel(values, [f"R{k}" for k in range(10)], ["a", "b", "c"], ["OIL"])
        panel.values  # built on first use; the input is not the sampler's
        estimate_all(panel, TVPConfig(iters=1, seed=0))  # loads LAPACK and numpy's caches
        n = t_len - 1
        band, rhs, paths = width * 2 * n * 3 * 8, width * 2 * n * 8, 2 * width * n * 2 * 8
        tracemalloc.start()
        try:
            result = estimate_all(panel, TVPConfig(iters=iters, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ok
        assert peak < band + rhs + paths

    def test_matches_per_column_reference_on_sample(self, tmp_path, capsys):
        # the batched iteration against the one-column-at-a-time loop it
        # replaced, on the bundled sample at the benchmark's iteration count
        config_path = write_sample_config(tmp_path, iters=50)
        assert main(["ingest", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        config = load_config(config_path).tvp
        result = estimate_all(panel, config)
        assert result.ok
        for i, trajectory in enumerate(result.trajectories):
            reference = fit_equation_loop(panel.values[:, i], config.iters, (config.seed, i))
            # relative to each coefficient path's scale: the paths cross zero,
            # where an elementwise ratio measures nothing but the crossing
            scale = np.abs(reference.theta).max(axis=0)
            np.testing.assert_allclose(trajectory.theta, reference.theta, rtol=0,
                                       atol=1e-9 * scale.min())
            assert trajectory.sigma2 == pytest.approx(reference.sigma2, rel=1e-9, abs=0)


def test_trajectory_csv_round_trip(tmp_path, rng):
    values = rng.standard_normal((40, 2))
    panel = make_panel(values, ["A"], ["x", "y"])
    config = TVPConfig(iters=3, seed=2)
    result = estimate_all(panel, config)
    csv_path = tmp_path / "traj.csv"
    meta_path = tmp_path / "traj.json"
    write_trajectories(result, panel, config, csv_path, meta_path)
    loaded = read_trajectories(csv_path)
    assert set(loaded) == {"A.x", "A.y"}
    dates, theta = loaded["A.x"]
    assert dates[0] == panel.time_index[1]
    assert len(dates) == 39
    np.testing.assert_array_equal(theta, result.trajectories[0].theta)
