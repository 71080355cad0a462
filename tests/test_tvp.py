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
    PanelTVPResult,
    _flapack,
    _precision_shape,
    column_scales,
    kalman_forward,
    read_trajectories,
    sample_theta_tilde_smoothed,
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


def draw_one(target, design, sigma2, z):
    """(theta0, sqrt_omega) of a one-column stack, from the 4 normals ``z``."""
    draw, failed = sample_theta0_omega(target[None], design[None], np.array([sigma2]),
                                       np.reshape(z, (1, 4)))
    assert failed == {}
    return draw[0, :2], draw[0, 2:]


class TestKalmanForward:
    def test_zero_loading_keeps_prior_mean(self):
        y = np.full(20, 3.0)
        theta0 = np.array([1.0, 0.5])
        m, _, innovations, innovation_var, _ = kalman_forward(y, theta0, np.zeros(2),
                                                              sigma2=0.25)
        np.testing.assert_array_equal(m, 0.0)
        # innovations equal the constant residual y - [1, y] theta0
        expected = 3.0 - (1.0 + 0.5 * 3.0)
        np.testing.assert_allclose(innovations, expected)
        np.testing.assert_allclose(innovation_var, 0.25 + 2e-15, atol=1e-12)

    def test_hand_computed_step(self):
        # single update worked through the five formulas with plain matrices
        y = np.array([1.0, 2.0, 1.5])
        theta0 = np.array([0.2, 0.3])
        sw = np.array([0.7, -0.4])
        sigma2 = 0.3
        m0 = np.array([0.1, -0.2])
        p0 = np.array([[0.5, 0.1], [0.1, 0.8]])
        means, covs, innovations, innovation_var, gains = kalman_forward(
            y, theta0, sw, sigma2, m0=m0, p0=p0)

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
            np.testing.assert_allclose(means[t - 1], m, atol=1e-12)
            np.testing.assert_allclose(covs[t - 1], p, atol=1e-12)
            np.testing.assert_allclose(innovations[t - 1], v, atol=1e-12)
            np.testing.assert_allclose(innovation_var[t - 1], s, atol=1e-12)
            np.testing.assert_allclose(gains[t - 1], k, atol=1e-12)

    def test_tracks_random_walk_states(self, rng):
        theta0 = np.array([0.2, 0.5])
        sw = np.array([0.05, 0.02])
        sigma = 0.1
        y, tilde = simulate_tvp_series(rng, 400, theta0, sw, sigma)
        m = kalman_forward(y, theta0, sw, sigma ** 2)[0]
        rmse_filter = np.sqrt(np.mean((m - tilde[1:]) ** 2))
        rmse_prior = np.sqrt(np.mean(tilde[1:] ** 2))  # no-filter baseline: m0 = 0
        assert rmse_filter < rmse_prior

    def test_filtered_covariances_psd_symmetric(self, rng):
        y = rng.standard_normal(200)
        p = kalman_forward(y, np.zeros(2), np.array([0.3, 0.2]), 0.5)[1]
        np.testing.assert_array_equal(p[:, 0, 1], p[:, 1, 0])
        eig_min = np.linalg.eigvalsh(p).min()
        assert eig_min >= -1e-10

    def test_rls_degenerate_case(self, rng):
        # with zero state noise the filter is recursive (Bayesian) least
        # squares; compare against the batch solution at every step
        t_len = 60
        y = rng.standard_normal(t_len)
        theta0 = np.zeros(2)
        sw = np.array([1.0, 1.0])
        sigma2 = 0.4
        m = kalman_forward(y, theta0, sw, sigma2, m0=np.zeros(2), p0=np.eye(2),
                           state_noise=0.0)[0]
        for t in range(1, t_len):
            h_rows = np.column_stack([np.full(t, sw[0]), sw[1] * y[:t]])
            targets = y[1:t + 1]
            prec = np.eye(2) + h_rows.T @ h_rows / sigma2
            mean = np.linalg.solve(prec, h_rows.T @ targets / sigma2)
            np.testing.assert_allclose(m[t - 1], mean, atol=1e-8)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            kalman_forward(np.array([1.0]), np.zeros(2), np.ones(2), 0.1)
        with pytest.raises(ValidationError):
            kalman_forward(np.ones(5), np.zeros(2), np.ones(2), 0.0)
        m, p, *_ = kalman_forward(np.ones(5), np.zeros(2), np.ones(2), 0.1)
        with pytest.raises(ValidationError):
            sample_theta_tilde_smoothed(m, p, np.zeros((4, 2)), state_noise=0.0)


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


class TestSampleThetaTildeBanded:
    theta0 = np.array([0.3, -0.4])
    sqrt_omega = np.array([0.6, 0.35])
    sigma2 = 0.45

    def draw(self, y, normals):
        # a one-column stack
        draws, failed = sample_theta_tilde_banded(y[None], self.theta0[None],
                                                  self.sqrt_omega[None],
                                                  np.array([self.sigma2]), normals[None])
        assert failed == {}
        return draws[0]

    @pytest.mark.parametrize("t_len", [2, 3, 13])
    def test_exact_moments_match_dense_conditioning(self, rng, t_len):
        # the banded draw and the Kalman + backward-sampling draw are both
        # affine in their normals: a zero normal vector returns the mean;
        # unit vectors return the columns of a square root of the covariance
        y = 1.0 + rng.standard_normal(t_len)
        dim = 2 * (t_len - 1)
        mean, cov = dense_path_posterior(y, self.theta0, self.sqrt_omega, self.sigma2)
        m, p, *_ = kalman_forward(y, self.theta0, self.sqrt_omega, self.sigma2)
        # the last state's filtered moments are its posterior moments
        np.testing.assert_allclose(m[-1], mean[-2:], rtol=0, atol=1e-10)
        np.testing.assert_allclose(p[-1], cov[-2:, -2:], rtol=0, atol=1e-10)
        samplers = {
            "banded": lambda normals: self.draw(y, normals),
            "carter-kohn": lambda normals: sample_theta_tilde_smoothed(m, p, normals),
        }
        for name, sampler in samplers.items():
            got_mean = sampler(np.zeros(dim)).reshape(-1)
            roots = np.column_stack([sampler(e).reshape(-1) - got_mean
                                     for e in np.eye(dim)])
            np.testing.assert_allclose(got_mean, mean, rtol=0, atol=1e-10, err_msg=name)
            np.testing.assert_allclose(roots @ roots.T, cov, rtol=0, atol=1e-10, err_msg=name)

    def test_monte_carlo_matches_oracle_and_carter_kohn(self, rng):
        # the banded draw and the Kalman + backward-sampling draw both hit
        # the dense-conditioning moments within Monte-Carlo error
        y = 1.0 + rng.standard_normal(13)
        mean, cov = dense_path_posterior(y, self.theta0, self.sqrt_omega, self.sigma2)
        m, p, *_ = kalman_forward(y, self.theta0, self.sqrt_omega, self.sigma2)
        n_draws = 4000
        gen_banded = np.random.default_rng(21)
        gen_ck = np.random.default_rng(22)
        samplers = {
            "banded": lambda: self.draw(y, gen_banded.standard_normal(24)),
            "carter-kohn": lambda: sample_theta_tilde_smoothed(m, p,
                                                               gen_ck.standard_normal((12, 2))),
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
        normals = np.random.default_rng(0).standard_normal((2, 18))
        draws, failed = sample_theta_tilde_banded(
            y, theta0, sqrt_omega, np.array([self.sigma2, 1.0]), normals)
        assert failed == {1: "state precision not positive definite (dpbtrf info 2)"}
        np.testing.assert_array_equal(draws[0], self.draw(y[0], normals[0]))
        # the draws overwrite the right-hand sides: a failed column keeps none of them
        np.testing.assert_array_equal(draws[1], np.zeros((9, 2)))

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            sample_theta_tilde_banded(np.array([[1.0]]), np.zeros((1, 2)), np.ones((1, 2)),
                                      np.array([0.1]), np.zeros((1, 0)))
        with pytest.raises(ValidationError):
            sample_theta_tilde_banded(np.ones((1, 5)), np.zeros((1, 2)), np.ones((1, 2)),
                                      np.array([0.0]), np.zeros((1, 8)))


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
        theta0, sw = draw_one(target, design, 1e-18, np.random.default_rng(3).standard_normal(4))
        ols = np.linalg.lstsq(design, target, rcond=None)[0]
        np.testing.assert_allclose(np.concatenate([theta0, sw]), ols, atol=1e-6)

    @staticmethod
    def dense_posterior(target, design, sigma2):
        """Mean and covariance of (theta0, sqrt_omega) under the data-based
        prior A0^-1 = diag{diag((X'X)^-1)} with mean zero, by dense inverses."""
        a0_inv = np.diag(np.diag(np.linalg.inv(design.T @ design)))
        cov = np.linalg.inv(design.T @ design / sigma2 + a0_inv)
        return cov @ (design.T @ target / sigma2), cov

    def test_posterior_moments_match_analytic(self, rng):
        t_len = 80
        y = rng.standard_normal(t_len)
        tilde = rng.standard_normal((t_len - 1, 2))
        sigma2 = 0.3
        target, design = step3(y, tilde)
        mean, cov = self.dense_posterior(target, design, sigma2)
        gen = np.random.default_rng(5)
        draws = np.stack([
            np.concatenate(draw_one(target, design, sigma2, gen.standard_normal(4)))
            for _ in range(6000)])
        np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.05)
        np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)

    def test_zero_normals_give_posterior_mean(self, rng):
        # the draw is the mean plus a covariance root applied to z: z = 0
        # leaves exactly the mean
        y = rng.standard_normal(80)
        target, design = step3(y, rng.standard_normal((79, 2)))
        mean, _ = self.dense_posterior(target, design, 0.3)
        got = np.concatenate(draw_one(target, design, 0.3, np.zeros(4)))
        np.testing.assert_allclose(got, mean, rtol=1e-10, atol=0)

    def test_synthetic_recovery_within_posterior_spread(self, rng):
        theta0 = np.array([0.4, 0.3])
        sw = np.array([0.08, 0.04])
        y, tilde = simulate_tvp_series(rng, 500, theta0, sw, 0.05)
        target, design = step3(y, tilde[1:])
        gen = np.random.default_rng(9)
        draws = np.stack([
            np.concatenate(draw_one(target, design, 0.05 ** 2, gen.standard_normal(4)))
            for _ in range(500)])
        post_mean = draws.mean(axis=0)
        post_sd = draws.std(axis=0)
        truth = np.concatenate([theta0, sw])
        # signs of sqrt_omega are unidentified; compare magnitudes
        for j in range(4):
            estimate = abs(post_mean[j]) if j >= 2 else post_mean[j]
            assert abs(estimate - truth[j]) < 3 * max(post_sd[j], 1e-3)

    @pytest.mark.parametrize("factor", [1e-6, 1e-4, 1e4, 1e6])
    def test_singular_test_is_unit_free(self, rng, monkeypatch, factor):
        # y in other units scales design columns 1 and 3 (y_{t-1} and
        # y_{t-1} tilde_2t) by the factor: X'X stays regular, so nothing
        # takes the pseudo-inverse, and those columns' diag((X'X)^-1) scales
        # by 1 / factor^2
        import tvpgvar.tvp as tvp_module

        designs = np.stack([step3(1.0 + 0.5 * rng.standard_normal(120),
                                  rng.standard_normal((119, 2)))[1] for _ in range(3)])
        xtx = designs.transpose(0, 2, 1) @ designs
        base, failed = tvp_module._inverse_diagonal(xtx)
        assert failed == {}
        calls = []
        pinv = np.linalg.pinv

        def counting(a, *args, **kwargs):
            calls.append(a)
            return pinv(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counting)
        scale = np.array([1.0, factor, 1.0, factor])
        diag, failed = tvp_module._inverse_diagonal(xtx * scale[:, None] * scale)
        assert failed == {} and calls == []
        np.testing.assert_allclose(diag, base / scale ** 2, rtol=1e-8, atol=0)


class TestSampleSigma:
    @staticmethod
    def rate(y, design, theta):
        """One column's Gamma rate: the variance that a unit gamma gives."""
        sigma2, failed = sample_sigma(y[None], design[None], theta[None], np.ones(1))
        assert failed == {}
        return sigma2[0]

    def test_plug_in_posterior_parameters(self):
        y = np.zeros(100)
        design = np.zeros((100, 4))
        theta = np.zeros(4)
        assert _precision_shape(y.size) == pytest.approx(50.01)
        assert self.rate(y, design, theta) == pytest.approx(0.01)

    def test_precision_moment(self, rng):
        t_len = 100
        y = rng.standard_normal(t_len)
        design = np.column_stack([np.ones(t_len), rng.standard_normal((t_len, 3))])
        theta = rng.standard_normal(4)
        resid = y - design @ theta
        c_t, big_c_t = _precision_shape(t_len), 0.01 + 0.5 * resid @ resid
        draws = 100_000
        gammas = np.random.default_rng(2).standard_gamma(c_t, draws)
        # one column per draw, all of them views of the same regression
        sigma2, failed = sample_sigma(np.broadcast_to(y, (draws, t_len)),
                                      np.broadcast_to(design, (draws, t_len, 4)),
                                      np.broadcast_to(theta, (draws, 4)), gammas)
        assert failed == {}
        assert abs((1.0 / sigma2).mean() - c_t / big_c_t) / (c_t / big_c_t) < 0.01

    def test_precision_is_gamma_over_rate(self, rng):
        # rate = C0_RATE + SSR / 2 of the step-3 residuals; a NaN target
        # (column 1) or an SSR that overflows (column 3) fails its column
        # alone, without a numpy warning
        y = rng.standard_normal((4, 60))
        y[1, 5], y[3, 5] = np.nan, 1e200
        design = rng.standard_normal((4, 60, 4))
        theta = rng.standard_normal((4, 4))
        gammas = np.array([40.0, 41.0, 29.5, 35.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma2, failed = sample_sigma(y, design, theta, gammas)
        reason = "non-finite residuals in variance update"
        assert failed == {1: reason, 3: reason}
        assert sigma2[1] == sigma2[3] == 1.0
        for c in (0, 2):
            resid = y[c] - design[c] @ theta[c]
            rate = 0.01 + 0.5 * resid @ resid
            assert sigma2[c] == pytest.approx(1.0 / (gammas[c] / rate), rel=1e-12, abs=0)

    def test_ssr_linearity(self, rng):
        y = rng.standard_normal(60)
        design = np.column_stack([np.ones(60), rng.standard_normal((60, 3))])
        theta = rng.standard_normal(4)
        rate_one = self.rate(y, design, theta)
        resid = y - design @ theta
        ssr = float(resid @ resid)
        rate_two = self.rate(np.sqrt(2.0) * y, np.sqrt(2.0) * design, theta)
        assert rate_two - rate_one == pytest.approx(0.5 * ssr, rel=1e-12)


class TestRunAlgorithm1:
    def test_single_iteration_deterministic(self, rng):
        y = rng.standard_normal(50)
        a = fit_equation(y, 1, 123)
        b = fit_equation(y, 1, 123)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.theta0, b.theta0)
        np.testing.assert_array_equal(a.sqrt_omega, b.sqrt_omega)
        np.testing.assert_array_equal(a.sigma2, b.sigma2)

    @pytest.mark.parametrize("factor", [1e-6, 1e-2, 1e2, 1e6])
    def test_equivariant_in_the_units(self, factor):
        # the sampler runs in the column's sd units: f * y gives f times the
        # intercept path, theta0[0] and sqrt_omega[0], the same slopes and
        # f^2 times sigma2
        y = 0.4 + np.cumsum(0.1 * np.random.default_rng(8).standard_normal(80))
        base, scaled = fit_equation(y, 20, 4), fit_equation(factor * y, 20, 4)
        for ours, want in ((scaled.theta, base.theta * [factor, 1.0]),
                           (scaled.theta0, base.theta0 * [factor, 1.0]),
                           (scaled.sqrt_omega, base.sqrt_omega * [factor, 1.0])):
            # each path (intercept, slope) to its own largest magnitude: the
            # paths cross zero, where an elementwise ratio measures nothing
            top = np.abs(want).reshape(-1, 2).max(axis=0)
            np.testing.assert_allclose(ours / top, want / top, rtol=0, atol=1e-10)
        assert scaled.sigma2 == pytest.approx(factor ** 2 * base.sigma2, rel=1e-10, abs=0)

    def test_column_scale_is_the_sd_or_one(self):
        # the sd of each row; 1 for a constant (whose computed sd rounding
        # makes 8.9e-16), for an sd that overflows and for one that underflows
        rows = np.random.default_rng(2).standard_normal((5, 250))
        rows[1] = 4.2
        rows[2] *= 1e160
        rows[3] *= 1e-170
        rows[4] *= 1e-3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scales = column_scales(rows)
        assert np.std(rows[1]) > 0 and np.std(rows[3]) == 0
        np.testing.assert_array_equal(scales, [np.std(rows[0]), 1.0, 1.0, 1.0,
                                               np.std(rows[4])])
        np.testing.assert_array_equal(column_scales(np.asfortranarray(rows)), scales)

    @pytest.mark.parametrize("sigma2, theta0, theta", [
        (np.nan, [0.0, 0.0], [[0.0, 0.0]]),
        (0.5, [np.nan, 0.0], [[5.0, 0.0]]),
        (0.5, [0.0, 0.0], [[np.nan, 0.0]]),
        (np.inf, [0.0, 0.0], [[0.0, 0.0]]),
    ])
    def test_nan_trajectory_rejected(self, sigma2, theta0, theta):
        # every comparison with NaN is False, so a check must be written to
        # fail on it; a row that is NaN only in part is no failed column
        with pytest.raises(ValidationError, match="sigma2|theta"):
            PanelTVPResult(theta0=np.array([theta0]), sqrt_omega=np.ones((1, 2)),
                           theta=np.array([theta]), sigma2=np.array([sigma2]), errors={})

    def test_failed_column_is_a_row_of_nan(self):
        # the check passes a row of NaN in every array and still checks the others
        nan_row = [np.full((2, 2), np.nan), np.full((2, 2), np.nan), np.full((2, 3, 2), np.nan),
                   np.full(2, np.nan)]
        for array in nan_row:
            array[0] = 1.0
        result = PanelTVPResult(*nan_row, errors={"A.y": "iteration 0: failed"})
        assert result.errors == {"A.y": "iteration 0: failed"}
        nan_row[3] = np.array([-1.0, np.nan])
        with pytest.raises(ValidationError, match="^sigma2 must be positive and finite$"):
            PanelTVPResult(*nan_row, errors={})

    @pytest.mark.parametrize("arrays, errors, message", [
        ((np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 3, 2)), np.ones(3)), {},
         "theta0 (2, 2), sqrt_omega (2, 2), theta (2, 3, 2) and sigma2 (3,) do not stack"),
        ((np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 3)), np.ones(1)), {},
         "theta0 (1, 2), sqrt_omega (1, 2), theta (1, 3) and sigma2 (1,) do not stack"),
        ((np.ones((1, 2)), np.ones((1, 3)), np.ones((1, 4, 2)), np.ones(1)), {},
         "theta0 (1, 2), sqrt_omega (1, 3), theta (1, 4, 2) and sigma2 (1,) do not stack"),
        ((np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 3, 2)), np.ones(1)), {"A.x": "failed"},
         "errors has 1 entries, not one per row of NaN"),
        ((np.full((1, 2), np.nan), np.full((1, 2), np.nan), np.full((1, 3, 2), np.nan),
          np.full(1, np.nan)), {}, "errors has 0 entries, not one per row of NaN"),
    ], ids=["lengths", "theta-shape", "coefficients", "error-for-a-fit",
            "failed-row-without-error"])
    def test_result_checks_its_arrays_agree_with_errors(self, arrays, errors, message):
        # a stack whose arrays do not line up, or whose errors do not name
        # its failed rows one for one, is no sampler result
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            PanelTVPResult(*arrays, errors=errors)

    @pytest.mark.parametrize("name", ["theta0", "sqrt_omega", "theta", "sigma2"])
    def test_trajectory_arrays_read_only(self, rng, name):
        # checked once when built: no later write can slip a NaN past the check
        result = fit_equation(rng.standard_normal(40), 5, 3)
        with pytest.raises(ValueError, match="read-only"):
            getattr(result, name)[0] = np.nan

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


def assert_failed_rows(result, rows):
    """The failed columns of ``result`` are ``rows``, each a row of NaN in every array."""
    failed = np.flatnonzero(np.isnan(result.sigma2)).tolist()
    assert failed == rows
    for array in (result.theta0, result.sqrt_omega, result.theta):
        assert np.all(np.isnan(array[rows]))
        assert np.all(np.isfinite(np.delete(array, rows, axis=0)))


def assert_row_is(result, row, alone):
    """Row ``row`` of ``result`` is bit-equal to the one-column result ``alone``."""
    for name in ("theta0", "sqrt_omega", "theta", "sigma2"):
        np.testing.assert_array_equal(getattr(result, name)[row], getattr(alone, name)[0])


class TestEstimateAll:
    def test_single_column_panel(self, rng):
        y = 0.3 + np.cumsum(0.1 * rng.standard_normal(40))
        panel = make_panel(y[:, None], ["A"], ["v1"])
        result = estimate_all(panel, TVPConfig(iters=5, seed=1))
        assert result.errors == {}
        assert result.theta.shape == (1, 39, 2)
        assert result.theta0.shape == result.sqrt_omega.shape == (1, 2)
        assert result.sigma2.shape == (1,)

    def test_column_order_preserved_and_deterministic(self, rng):
        values = rng.standard_normal((60, 10)) + np.arange(10)
        panel = make_panel(values, ["A", "B", "C"], ["x", "y", "z"], ["ACT"])
        config = TVPConfig(iters=3, seed=9)
        res_a = estimate_all(panel, config)
        res_b = estimate_all(panel, config)
        assert res_a.theta.shape == (10, 59, 2)
        assert res_a == res_b

    def test_failures_collected_run_continues(self, rng):
        # column 1 at 1e160 gets through the path draw and overflows X'X in
        # the first coefficient draw; the other columns come out bit-equal to
        # their runs without it, each alone on its own stream
        values = rng.standard_normal((40, 3))
        values[:, 1] *= 1e160
        result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                              TVPConfig(iters=2, seed=0))
        assert result.errors == {"A.y": "iteration 0: non-finite X'X in coefficient posterior"}
        assert_failed_rows(result, [1])
        for i in (0, 2):
            assert_row_is(result, i, fit_equation(values[:, i], 2, (0, i)))

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

        def failing(y, theta0, sqrt_omega, sigma2, normals):
            tilde, failed = draw(y, theta0, sqrt_omega, sigma2, normals)
            if next(calls) == 1:
                tilde[1] = np.nan
                failed[1] = reason
            return tilde, failed

        monkeypatch.setattr(tvp_module, "sample_theta_tilde_banded", failing)
        result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                              TVPConfig(iters=3, seed=0))
        assert result.errors == {"A.y": f"iteration 1: {reason}"}
        assert_failed_rows(result, [1])
        for i in (0, 2):
            assert_row_is(result, i, alone[i])

    def test_final_check_fails_its_column_alone(self, rng, monkeypatch):
        # A.y's last variance draw overflows on its way back to the column's
        # units (times its sd squared, about 100): the final check fails it
        # with the check's reason and no iteration, it becomes a row of NaN,
        # and the others keep their chains
        import tvpgvar.tvp as tvp_module

        values = 10.0 * rng.standard_normal((40, 3))
        alone = {i: fit_equation(values[:, i], 3, (0, i)) for i in (0, 2)}
        draw = tvp_module.sample_sigma
        calls = itertools.count()

        def huge_last(target, design, theta_star, gammas):
            sigma2, failed = draw(target, design, theta_star, gammas)
            if next(calls) == 2:
                sigma2[1] = 1e308
            return sigma2, failed

        monkeypatch.setattr(tvp_module, "sample_sigma", huge_last)
        result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                              TVPConfig(iters=3, seed=0))
        assert result.errors == {"A.y": "sigma2 must be positive and finite"}
        assert_failed_rows(result, [1])
        for i in (0, 2):
            assert_row_is(result, i, alone[i])

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
        assert_failed_rows(result, [1])

    def test_zero_column_fails_at_its_coefficient_draw(self, monkeypatch):
        # an all-zero column leaves its slope and slope scale unidentified: its
        # X'X takes the stacked factorization's matrix-by-matrix fallback and
        # the pseudo-inverse prior, and its posterior precision, with no
        # Cholesky factor, fails the column with no retry. The other columns
        # come out bit-equal to their one-column fits
        import tvpgvar.tvp as tvp_module

        calls = []
        factor = tvp_module._cholesky

        def recording(a):
            chol, bad = factor(a)
            calls.append((len(a), bad))
            return chol, bad

        values = np.random.default_rng(5).standard_normal((60, 3))
        values[:, 1] = 0.0
        monkeypatch.setattr(tvp_module, "_cholesky", recording)
        result = estimate_all(make_panel(values, ["A"], ["x", "y", "z"]),
                              TVPConfig(iters=5, seed=0))
        assert result.errors == {
            "A.y": "iteration 0: rank-deficient design in coefficient posterior"}
        assert_failed_rows(result, [1])
        assert (3, [1]) in calls  # the matrix-by-matrix fallback
        assert all(size != 1 for size, _ in calls)  # no one-matrix retry
        for i in (0, 2):
            assert_row_is(result, i, fit_equation(values[:, i], 5, (0, i)))

    def test_constant_column_takes_the_pseudo_inverse_prior(self):
        # a constant series makes X'X singular, but rounding gives this one a
        # Cholesky factor whose inverse would put a huge prior precision on
        # the unidentified direction; the pseudo-inverse drops it, as the
        # per-column loop did
        values = np.random.default_rng(3).standard_normal((60, 2))
        values[:, 1] = 4.2
        result = estimate_all(make_panel(values, ["A"], ["x", "y"]), TVPConfig(iters=5, seed=0))
        reference = fit_equation_loop(values[:, 1], 5, (0, 1))
        np.testing.assert_allclose(result.theta[1], reference.theta[0], rtol=0,
                                   atol=1e-6 * np.abs(reference.theta).max())

    def test_holds_one_iteration_at_a_time(self):
        # the largest arrays the sampler must hold at once: one path draw's
        # band (3 lower diagonals) and right-hand sides over the 2n
        # interleaved states of every column, one iteration's 2n + 4 normals
        # and gamma per column, and the final standardized path with the
        # theta paths built from it; a loop that also keeps the previous
        # iteration's path and step-3 designs, or full-size temporaries,
        # goes over
        width, t_len, iters = 31, 250, 20
        values = 1.0 + np.cumsum(0.1 * np.random.default_rng(7).standard_normal((t_len, width)),
                                 axis=0)
        panel = make_panel(values, [f"R{k}" for k in range(10)], ["a", "b", "c"], ["OIL"])
        panel.values  # built on first use; the input is not the sampler's
        estimate_all(panel, TVPConfig(iters=1, seed=0))  # loads LAPACK and numpy's caches
        n = t_len - 1
        band, rhs, paths = width * 2 * n * 3 * 8, width * 2 * n * 8, 2 * width * n * 2 * 8
        normals, gammas = width * (2 * n + 4) * 8, width * 8
        tracemalloc.start()
        try:
            result = estimate_all(panel, TVPConfig(iters=iters, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.errors == {}
        assert peak < band + rhs + paths + normals + gammas

    def test_matches_per_column_reference_on_sample(self, tmp_path, capsys):
        # the batched iteration against the one-column-at-a-time loop it
        # replaced, on the bundled sample at the benchmark's iteration count.
        # The loop runs on the column in its sd units, and its draws are
        # mapped back here: intercept path times the sd, sigma2 times its square
        config_path = write_sample_config(tmp_path, iters=50)
        assert main(["ingest", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        panel = read_panel_csv(tmp_path / "out" / "panel.csv")
        config = load_config(config_path).tvp
        result = estimate_all(panel, config)
        assert result.errors == {}
        for i, (path, sigma2) in enumerate(zip(result.theta, result.sigma2)):
            sd = np.std(panel.values[:, i])
            reference = fit_equation_loop(panel.values[:, i] / sd, config.iters,
                                          (config.seed, i))
            theta = reference.theta[0] * [sd, 1.0]
            # relative to each coefficient path's scale: the paths cross zero,
            # where an elementwise ratio measures nothing but the crossing
            scale = np.abs(theta).max(axis=0)
            np.testing.assert_allclose(path, theta, rtol=0, atol=1e-9 * scale.min())
            assert sigma2 == pytest.approx(reference.sigma2[0] * sd ** 2, rel=1e-9, abs=0)


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
    np.testing.assert_array_equal(theta, result.theta[0])
