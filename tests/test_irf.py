import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import ndtri
from scipy.stats import norm

from tvpgvar import (
    AsymptoticInputs,
    ShockSpec,
    StackedSystem,
    asymptotic_bands,
    cholesky_lower,
    estimate_asymptotic_inputs,
    ma_coefficients,
)
from tvpgvar.errors import NumericalError, ValidationError
from tvpgvar.gvar import estimate_structural, stack_system
from tvpgvar.irf import (
    _ndtri,
    _solve_lower,
    commutation_matrix,
    derivative_Gn,
    derivative_H,
    elimination_matrix,
    read_irf_csv,
    read_irf_json,
    write_irf_csv,
    write_irf_json,
)
from tvpgvar.serialize import read_json, write_json

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
from oracles import (
    dense_asymptotic_bands,
    dense_asymptotic_inputs,
    duplication_matrix,
    oirf_point,
    vec,
    vech,
)


class TestMatrixKit:
    def test_elimination_2x2_example(self):
        s = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_array_equal(elimination_matrix(2) @ vec(s), [1.0, 2.0, 3.0])

    def test_commutation_2x2_example(self):
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        # vec(Q) = (1,3,2,4); vec(Q') = (1,2,3,4)
        np.testing.assert_array_equal(commutation_matrix(2, 2) @ vec(q), vec(q.T))

    def test_commutation_rectangular(self, rng):
        q = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(commutation_matrix(4, 3) @ vec(q), vec(q.T))

    def test_identities_random(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            s = rng.standard_normal((m, m))
            q = rng.standard_normal((m, n))
            np.testing.assert_array_equal(elimination_matrix(m) @ vec(s), vech(s))
            np.testing.assert_array_equal(commutation_matrix(m, n) @ vec(q), vec(q.T))
            sym = s + s.T
            np.testing.assert_array_equal(duplication_matrix(m) @ vech(sym), vec(sym))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_checked_2x2(self):
        factor = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(factor, [[2.0, 0.0], [1.0, 2.0]])

    def test_random_reconstruction(self, rng):
        root = rng.standard_normal((10, 10))
        sigma = root @ root.T + 0.5 * np.eye(10)
        factor = cholesky_lower(sigma)
        assert np.max(np.abs(factor @ factor.T - sigma)) <= 1e-10 * np.max(np.abs(sigma))
        assert np.all(np.diag(factor) > 0)
        np.testing.assert_array_equal(np.triu(factor, 1), 0.0)

    def test_non_pd_rejected_with_eigenvalue(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError, match="min eigenvalue"):
            cholesky_lower(sigma)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestOIRF:
    def test_identity_system_horizon_zero(self, rng):
        f1 = 0.5 * np.eye(3)
        system = from_reduced_form(np.zeros(3), f1, np.eye(3))
        for j in range(3):
            resp = reported_point(system, ShockSpec(targets=(j,), horizon=2, at_time=1))
            np.testing.assert_array_equal(resp[0], np.eye(3)[j])

    def test_additivity_exact(self, rng):
        # responses accumulate target by target, so splitting off the last
        # target reproduces the identical float operations: difference is 0.0
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            system = random_stable_system(rng, dim)
            targets = rng.permutation(dim)
            split = int(rng.integers(1, dim))
            set_a = tuple(int(j) for j in targets[:split])
            set_b = (int(targets[split]),)
            resp_a = reported_point(system, ShockSpec(targets=set_a, horizon=5, at_time=1))
            resp_b = reported_point(system, ShockSpec(targets=set_b, horizon=5, at_time=1))
            resp_ab = reported_point(system, ShockSpec(targets=set_a + set_b, horizon=5, at_time=1))
            np.testing.assert_array_equal(resp_ab, resp_a + resp_b)

    def test_additivity_general_splits(self, rng):
        # arbitrary disjoint splits regroup the float accumulation; they
        # agree to reassociation error (ulps), not bitwise
        for _ in range(20):
            dim = int(rng.integers(3, 6))
            system = random_stable_system(rng, dim)
            targets = rng.permutation(dim)
            split = int(rng.integers(1, dim))
            set_a = tuple(int(j) for j in targets[:split])
            set_b = tuple(int(j) for j in targets[split:])
            resp_a = reported_point(system, ShockSpec(targets=set_a, horizon=5, at_time=1))
            resp_b = reported_point(system, ShockSpec(targets=set_b, horizon=5, at_time=1))
            resp_ab = reported_point(system, ShockSpec(targets=set_a + set_b, horizon=5, at_time=1))
            np.testing.assert_allclose(resp_ab, resp_a + resp_b, rtol=0, atol=1e-13)

    def test_matches_simulation_oracle(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            system = random_stable_system(rng, dim)
            j = int(rng.integers(dim))
            shock = ShockSpec(targets=(j,), horizon=10, at_time=1)
            point = reported_point(system, shock)
            oracle = oirf_simulation_oracle(system, (j,), 10)
            np.testing.assert_allclose(point, oracle, atol=1e-8)

    def test_target_out_of_range(self, rng):
        system = random_stable_system(rng, 3)
        with pytest.raises(ValidationError, match="out of range"):
            asymptotic_bands(system, [ShockSpec(targets=(3,), horizon=2, at_time=1)], 1,
                             eye_inputs(3))

    def test_shock_spec_validation(self):
        with pytest.raises(ValidationError, match="distinct"):
            ShockSpec(targets=(1, 1), horizon=2, at_time=1)
        with pytest.raises(ValidationError, match="at least one"):
            ShockSpec(targets=(), horizon=2, at_time=1)
        with pytest.raises(ValidationError, match="level"):
            ShockSpec(targets=(0,), horizon=2, at_time=1, level=1.5)


class TestDerivatives:
    def test_gn_n1_identity(self, rng):
        f1 = rng.standard_normal((3, 3))
        mas = ma_coefficients(f1, 5)
        np.testing.assert_array_equal(derivative_Gn(f1, mas, 1), np.eye(9))

    def test_gn_n2_half_identity(self):
        f1 = 0.5 * np.eye(2)
        mas = ma_coefficients(f1, 3)
        np.testing.assert_allclose(derivative_Gn(f1, mas, 2), np.eye(4))

    def finite_difference_gn(self, f1, n, step=1e-6):
        width = f1.shape[0]
        out = np.empty((width * width, width * width))
        for col in range(width * width):
            perturb = np.zeros((width, width))
            perturb.flat[0] = 0.0
            unit = np.zeros(width * width)
            unit[col] = 1.0
            delta = unit.reshape((width, width), order="F") * step
            up = ma_coefficients(f1 + delta, n)[n]
            down = ma_coefficients(f1 - delta, n)[n]
            out[:, col] = vec((up - down) / (2 * step))
        return out

    def test_gn_matches_finite_differences(self, rng):
        f1 = 0.5 * rng.standard_normal((3, 3))
        mas = ma_coefficients(f1, 4)
        analytic = derivative_Gn(f1, mas, 4)
        numeric = self.finite_difference_gn(f1, 4)
        rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(analytic)), 1e-12)
        assert rel <= 1e-5

    def finite_difference_h(self, sigma, step=1e-6):
        m = sigma.shape[0]
        half = m * (m + 1) // 2
        out = np.empty((m * m, half))
        col = 0
        for j in range(m):
            for i in range(j, m):
                perturb = np.zeros((m, m))
                perturb[i, j] = step
                perturb[j, i] = step
                up = np.linalg.cholesky(sigma + perturb)
                down = np.linalg.cholesky(sigma - perturb)
                out[:, col] = vec((up - down) / (2 * step))
                col += 1
        return out

    def test_h_scalar_case(self):
        # d sqrt(v) / dv = 1 / (2 sqrt(v))
        factor = np.array([[2.0]])
        np.testing.assert_allclose(derivative_H(factor), [[0.25]])

    def test_h_matches_finite_differences_identity(self):
        sigma = np.eye(2)
        analytic = derivative_H(np.linalg.cholesky(sigma))
        numeric = self.finite_difference_h(sigma)
        assert np.max(np.abs(analytic - numeric)) <= 1e-5

    def test_h_matches_finite_differences_random(self, rng):
        root = rng.standard_normal((4, 4))
        sigma = root @ root.T + 0.8 * np.eye(4)
        analytic = derivative_H(np.linalg.cholesky(sigma))
        numeric = self.finite_difference_h(sigma)
        rel = np.max(np.abs(analytic - numeric)) / np.max(np.abs(analytic))
        assert rel <= 1e-5


def panel_of(values):
    """A one-region panel holding the columns of ``values``."""
    return make_panel(values, ["A"], [f"v{j}" for j in range(values.shape[1])])


def eye_inputs(width):
    return AsymptoticInputs(moment_inv=np.eye(width), sigma=np.eye(width))


class TestAsymptoticBands:
    def test_zero_covariances_zero_widths(self, rng):
        system = random_stable_system(rng, 3)
        shock = ShockSpec(targets=(0,), horizon=4, at_time=1)
        zero = np.zeros((3, 3))
        (result,) = asymptotic_bands(system, [shock], 500, AsymptoticInputs(zero, zero))
        np.testing.assert_array_equal(result.half_width, 0.0)
        np.testing.assert_array_equal(result.lower, result.point)

    def test_horizon_zero_has_no_coefficient_term(self, rng):
        # B_0 = I does not depend on F1: a huge coefficient covariance leaves
        # the horizon-0 band unchanged and widens every later one
        system = random_stable_system(rng, 3)
        shock = ShockSpec(targets=(1,), horizon=3, at_time=1)
        (quiet,) = asymptotic_bands(system, [shock], 200,
                                    AsymptoticInputs(np.zeros((3, 3)), system.sigma_eps))
        (loud,) = asymptotic_bands(system, [shock], 200,
                                   AsymptoticInputs(1e6 * np.eye(3), system.sigma_eps))
        np.testing.assert_array_equal(loud.half_width[0], quiet.half_width[0])
        assert np.all(loud.half_width[1:] > quiet.half_width[1:])

    def test_quantile_scaling(self, rng):
        system = random_stable_system(rng, 3)
        shock95 = ShockSpec(targets=(2,), horizon=4, at_time=1, level=0.95)
        level_z1 = 2 * norm.cdf(1.0) - 1  # level whose quantile is exactly 1
        shock_z1 = ShockSpec(targets=(2,), horizon=4, at_time=1, level=level_z1)
        (res95,) = asymptotic_bands(system, [shock95], 400, eye_inputs(3))
        (res_z1,) = asymptotic_bands(system, [shock_z1], 400, eye_inputs(3))
        ratio = res95.half_width[1:] / res_z1.half_width[1:]
        np.testing.assert_allclose(ratio, norm.ppf(0.975), rtol=1e-12)
        assert norm.ppf(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_band_multiplier_pinned_at_95(self):
        # scalar VAR with F1 = 0 and unit variances: at horizon 1 the response
        # variance is exactly 1, so the half-width is the multiplier itself
        system = from_reduced_form(np.zeros(1), np.zeros((1, 1)), np.eye(1))
        shock = ShockSpec(targets=(0,), horizon=1, at_time=1, level=0.95)
        (result,) = asymptotic_bands(system, [shock], 1, eye_inputs(1))
        assert result.half_width[1, 0] == 1.959963984540054

    def test_band_symmetry_exact(self, rng):
        # one stored half-width defines both band edges, so symmetry holds
        # at the representation level
        system = random_stable_system(rng, 2)
        inputs = estimate_asymptotic_inputs(panel_of(rng.standard_normal((100, 2))), system)
        (result,) = asymptotic_bands(system, [ShockSpec(targets=(0,), horizon=5, at_time=1)],
                                     100, inputs)
        np.testing.assert_array_equal(result.upper, result.point + result.half_width)
        np.testing.assert_array_equal(result.lower, result.point - result.half_width)
        assert np.all(result.half_width >= 0)

    def test_sample_size_scaling(self, rng):
        system = random_stable_system(rng, 2)
        shock = ShockSpec(targets=(1,), horizon=3, at_time=1)
        (r100,) = asymptotic_bands(system, [shock], 100, eye_inputs(2))
        (r400,) = asymptotic_bands(system, [shock], 400, eye_inputs(2))
        np.testing.assert_allclose(r100.half_width, 2 * r400.half_width, rtol=1e-12)

    def test_multi_target_variance_uses_cross_terms(self, rng):
        # a two-column shock is one linear functional: its variance includes
        # the covariance between the two single-shock responses
        system = random_stable_system(rng, 3)
        inputs = estimate_asymptotic_inputs(panel_of(rng.standard_normal((300, 3))), system)
        both, single_a, single_b = asymptotic_bands(
            system, [ShockSpec(targets=t, horizon=2, at_time=1) for t in ((0, 1), (0,), (1,))],
            300, inputs)
        np.testing.assert_array_equal(both.point, single_a.point + single_b.point)
        # half-widths are NOT additive (they aggregate a covariance)
        assert not np.allclose(both.half_width[1:],
                               single_a.half_width[1:] + single_b.half_width[1:])

    def test_stability_flag_attached(self, rng):
        stable = random_stable_system(rng, 2)
        (result,) = asymptotic_bands(stable, [ShockSpec(targets=(0,), horizon=2, at_time=1)],
                                     50, eye_inputs(2))
        assert result.stable
        unstable = from_reduced_form(
            np.zeros(2), 1.05 * np.eye(2), np.eye(2))
        (result,) = asymptotic_bands(unstable, [ShockSpec(targets=(0,), horizon=2, at_time=1)],
                                     50, eye_inputs(2))
        assert not result.stable

    def test_convergence_when_stable(self, rng):
        system = random_stable_system(rng, 3)
        point = reported_point(system, ShockSpec(targets=(0,), horizon=30, at_time=1))
        peaks = np.max(np.abs(point), axis=1)
        tail = peaks[2 * system.width:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_negative_variance_rejected(self, rng):
        system = random_stable_system(rng, 3)
        inputs = AsymptoticInputs(-1e6 * np.eye(3), system.sigma_eps)
        with pytest.raises(NumericalError, match="negative response variance .* horizon 1"):
            asymptotic_bands(system, [ShockSpec(targets=(0,), horizon=3, at_time=1)], 100,
                             inputs)


class TestClosedFormBands:
    @pytest.mark.parametrize("width", [1, 2, 3, 6, 10, 20])
    def test_matches_kronecker_oracle(self, width):
        rng = np.random.default_rng(700 + width)
        system = random_stable_system(rng, width)
        if width > 1:
            assert np.max(np.abs(system.g0 - np.eye(width))) > 0.05
        panel = panel_of(rng.standard_normal((120, width)))
        multi = tuple(int(j) for j in rng.permutation(width)[:3])
        inputs = estimate_asymptotic_inputs(panel, system)
        dense = dense_asymptotic_inputs(panel, system)
        for targets in ((int(rng.integers(width)),), multi):
            for level in (0.9, 0.95):
                shock = ShockSpec(targets=targets, horizon=6, at_time=1, level=level)
                (closed,) = asymptotic_bands(system, [shock], 119, inputs)
                oracle = dense_asymptotic_bands(system, shock, 119, *dense)
                np.testing.assert_allclose(closed.point, oracle.point, rtol=0, atol=1e-12)
                np.testing.assert_allclose(closed.half_width, oracle.half_width,
                                           rtol=1e-10, atol=0)

    def test_stacked_system_matches_gradient_of_band_functional(self):
        # G0 != I: the band is the delta-method band of r(F1, Sigma) =
        # e_i' F1^s chol(Sigma) u, so its variance is g' V g with g the finite-
        # difference gradient in (vec F1, vech Sigma) and V the dense covariance
        rng = np.random.default_rng(808)
        width, horizon, step = 4, 3, 1e-6
        system = random_stable_system(rng, width)
        assert np.max(np.abs(np.triu(system.g0, 1))) > 0.05
        panel = panel_of(rng.standard_normal((150, width)))
        inputs = estimate_asymptotic_inputs(panel, system)
        sigma_alpha, sigma_sigma = dense_asymptotic_inputs(panel, system)
        cov = np.zeros((width * width + sigma_sigma.shape[0],) * 2)
        cov[:width * width, :width * width] = sigma_alpha
        cov[width * width:, width * width:] = sigma_sigma
        targets = (1, 3)
        unit = np.zeros(width)
        unit[list(targets)] = 1.0

        def functional(params):
            f1 = params[:width * width].reshape((width, width), order="F")
            sigma = duplication_matrix(width) @ params[width * width:]
            sigma = sigma.reshape((width, width), order="F")
            return ma_coefficients(f1, horizon)[horizon] @ np.linalg.cholesky(sigma) @ unit

        theta = np.concatenate([vec(system.f1), vech(system.sigma_eps)])
        grad = np.empty((width, theta.size))
        for k in range(theta.size):
            delta = np.zeros(theta.size)
            delta[k] = step
            grad[:, k] = (functional(theta + delta) - functional(theta - delta)) / (2 * step)
        expected = np.einsum("ik,kl,il->i", grad, cov, grad)
        level_z1 = 2 * norm.cdf(1.0) - 1
        shock = ShockSpec(targets=targets, horizon=horizon, at_time=1, level=level_z1)
        (result,) = asymptotic_bands(system, [shock], 1, inputs)
        np.testing.assert_allclose(result.half_width[horizon] ** 2, expected, rtol=1e-6)

    def test_band_functional_is_point_for_lower_triangular_g0(self, rng):
        system = random_stable_system(rng, 4)
        g0 = np.tril(system.g0)
        sigma_eps = np.linalg.solve(g0, np.linalg.solve(g0, system.sigma_u).T).T
        lower = StackedSystem(g0=g0, g1=g0 @ system.f1, a=g0 @ system.b,
                              sigma_u=system.sigma_u, sigma_eps=(sigma_eps + sigma_eps.T) / 2,
                              b=system.b, f1=system.f1)
        shock = ShockSpec(targets=(0, 2), horizon=4, at_time=1)
        functional = ma_coefficients(lower.f1, 4) @ cholesky_lower(lower.sigma_eps)[:, [0, 2]]
        np.testing.assert_allclose(oirf_point(lower, shock), functional.sum(axis=2),
                                   rtol=0, atol=1e-12)

    def test_no_kronecker_products(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.kron called on the band path")

        system = random_stable_system(rng, 5)
        panel = panel_of(rng.standard_normal((80, 5)))
        monkeypatch.setattr(np, "kron", refuse)
        inputs = estimate_asymptotic_inputs(panel, system)
        asymptotic_bands(system, [ShockSpec(targets=(0, 4), horizon=6, at_time=1)], 79, inputs)

    def test_memory_at_width_100(self):
        # the Kronecker form needs w^2 x w^2 = 800 MB matrices at this width
        rng = np.random.default_rng(100)
        system = random_stable_system(rng, 100)
        panel = panel_of(rng.standard_normal((250, 100)))
        tracemalloc.start()
        try:
            inputs = estimate_asymptotic_inputs(panel, system)
            asymptotic_bands(system, [ShockSpec(targets=(50,), horizon=6, at_time=1)], 249,
                             inputs)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak_mb < 20.0


class TestNumpyReplacements:
    """The band's quantile and triangular solves against the SciPy routines."""

    def test_quantile_bit_equal_to_ndtri(self):
        far_tail = 1.0 - np.logspace(-13.8, -15.9, 400)  # (1 - level) / 2 < exp(-32)
        assert np.all((1.0 - far_tail) / 2.0 < np.exp(-32.0))
        levels = np.concatenate([
            np.linspace(1e-9, 1 - 1e-12, 100_001), far_tail,
            [0.5, 0.68, 0.8, 0.9, 0.95, 0.99, 0.999, 1e-300, 1 - 2**-52]])
        probabilities = 0.5 + levels / 2.0
        ported = np.array([_ndtri(float(p)) for p in probabilities])
        np.testing.assert_array_equal(ported.view(np.int64),
                                      ndtri(probabilities).view(np.int64))

    @pytest.mark.parametrize("width", [1, 2, 10, 31, 100])
    def test_forward_substitution_matches_solve_triangular(self, width):
        rng = np.random.default_rng(900 + width)
        root = rng.standard_normal((width, width))
        factor = np.linalg.cholesky(root @ root.T / width + np.eye(width))
        root = rng.standard_normal((width, width))
        sigma = root @ root.T / width + 0.5 * np.eye(width)
        ours = _solve_lower(factor, _solve_lower(factor, sigma).T)
        scipy_r = solve_triangular(factor, solve_triangular(factor, sigma, lower=True).T,
                                   lower=True)
        assert np.max(np.abs(ours - scipy_r)) <= 1e-13 * np.max(np.abs(scipy_r))


class TestPeriodShocks:
    """A period's shocks in one call reuse the system's factors, bit for bit."""

    @pytest.fixture(scope="class")
    def period(self):
        rng = np.random.default_rng(31)
        n_regions, p, l = 3, 3, 1
        coeffs = random_coefficients(rng, n_regions, p, l)
        weights = wave_weights(250, n_regions, l)
        noise = 0.1 * rng.standard_normal((250, n_regions * p + l))
        x = simulate_structural(coeffs, weights, rng.standard_normal(n_regions * p + l),
                                n_regions, p, l, noise=noise)
        panel = make_panel(x, ["A", "B", "C"], ["v1", "v2", "v3"], ["ACT"])
        system = stack_system(estimate_structural(panel, weights), weights, 180)
        assert np.max(np.abs(system.g0 - np.eye(system.width))) > 0.01
        return system, estimate_asymptotic_inputs(panel, system)

    def test_batch_equals_one_at_a_time(self, period):
        system, inputs = period
        shocks = [ShockSpec(targets=targets, horizon=horizon, at_time=180, level=level)
                  for targets, horizon, level in [((9,), 6, 0.95), ((0,), 6, 0.9),
                                                  ((9, 0), 6, 0.95), ((4, 2, 7), 3, 0.68),
                                                  ((5,), 0, 0.95)]]
        batch = asymptotic_bands(system, shocks, 249, inputs)
        assert len(batch) == len(shocks)
        for shock, together in zip(shocks, batch):
            (alone,) = asymptotic_bands(system, [shock], 249, inputs)
            assert together.targets == shock.targets and together.level == shock.level
            np.testing.assert_array_equal(together.point, alone.point)
            np.testing.assert_array_equal(together.half_width, alone.half_width)
            np.testing.assert_allclose(together.point, oirf_point(system, shock),
                                       rtol=0, atol=1e-12)
            assert (together.stable, together.radius, together.g0_condition) == \
                (alone.stable, alone.radius, alone.g0_condition)

    def test_combined_shock_is_sum_of_singles(self, period):
        system, inputs = period
        last, first, both = asymptotic_bands(
            system, [ShockSpec(targets=t, horizon=6, at_time=1) for t in ((9,), (0,), (9, 0))],
            249, inputs)
        total = last.point + first.point
        scale = max(1.0, float(np.max(np.abs(total))))
        assert np.max(np.abs(both.point - total)) <= 1e-9 * scale

    def test_conditioning_recorded(self, period):
        system, inputs = period
        (result,) = asymptotic_bands(system, [ShockSpec(targets=(0,), at_time=1)], 249,
                                     inputs)
        assert result.radius == np.max(np.abs(np.linalg.eigvals(system.f1)))
        assert result.stable == (result.radius < 1.0)
        assert result.g0_condition == np.linalg.cond(system.g0) >= 1.0

    def test_empty_shock_list_rejected(self, period):
        system, inputs = period
        with pytest.raises(ValidationError, match="no shocks"):
            asymptotic_bands(system, [], 249, inputs)


class TestBandInputs:
    def bands(self, rng, moment_inv, sigma):
        system = random_stable_system(rng, 3)
        return asymptotic_bands(system, [ShockSpec(targets=(0,), horizon=2, at_time=1)], 100,
                                AsymptoticInputs(moment_inv, sigma))

    @pytest.mark.parametrize("which", ["moment_inv", "sigma"])
    def test_non_finite_rejected(self, rng, which):
        factors = {"moment_inv": np.eye(3), "sigma": np.eye(3)}
        factors[which][1, 1] = np.nan
        with pytest.raises(ValidationError, match=f"{which} has non-finite"):
            self.bands(rng, **factors)

    @pytest.mark.parametrize("which", ["moment_inv", "sigma"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (9, 9), (3,)])
    def test_wrong_shape_rejected(self, rng, which, shape):
        factors = {"moment_inv": np.eye(3), "sigma": np.eye(3)}
        factors[which] = np.ones(shape)
        with pytest.raises(ValidationError, match=f"{which} has shape"):
            self.bands(rng, **factors)

    def test_asymmetric_sigma_rejected(self, rng):
        sigma = np.eye(3)
        sigma[0, 2] = 0.3
        with pytest.raises(ValidationError, match="sigma must be symmetric"):
            self.bands(rng, np.eye(3), sigma)


class TestAsymptoticInputs:
    def test_ar1_slope_variance(self, rng):
        phi, t_len = 0.6, 40_000
        y = np.empty(t_len)
        y[0] = 0.0
        eps = rng.standard_normal(t_len)
        for t in range(1, t_len):
            y[t] = phi * y[t - 1] + eps[t]
        system = from_reduced_form(
            np.zeros(1), np.array([[phi]]), np.array([[1.0]]))
        inputs = estimate_asymptotic_inputs(panel_of(y[:, None]), system)
        assert inputs.moment_inv.shape == inputs.sigma.shape == (1, 1)
        slope_var = inputs.moment_inv[0, 0] * inputs.sigma[0, 0]
        assert slope_var == pytest.approx(1 - phi ** 2, rel=0.05)

    def test_sigma_sigma_identity_case(self):
        # the dense oracle for Sigma = I_2: 2 D+ D+' with the hand-built
        # duplication matrix
        system = from_reduced_form(
            np.zeros(2), 0.2 * np.eye(2), np.eye(2))
        panel = panel_of(np.random.default_rng(0).standard_normal((50, 2)))
        _, sigma_sigma = dense_asymptotic_inputs(panel, system)
        dup = np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
        dup_pinv = np.linalg.pinv(dup)
        np.testing.assert_allclose(sigma_sigma, 2 * dup_pinv @ dup_pinv.T, atol=1e-12)
        np.testing.assert_allclose(sigma_sigma, np.diag([2.0, 1.0, 2.0]), atol=1e-12)

    def test_white_noise_slope_entry(self, rng):
        t_len = 30_000
        scale = 1.7
        y = scale * rng.standard_normal(t_len)
        sigma = np.array([[scale ** 2]])
        system = from_reduced_form(np.zeros(1), np.zeros((1, 1)), sigma)
        inputs = estimate_asymptotic_inputs(panel_of(y[:, None]), system)
        slope_var = inputs.moment_inv[0, 0] * inputs.sigma[0, 0]
        assert slope_var == pytest.approx(scale ** 2 / np.var(y), rel=0.05)


def test_irf_json_round_trip(tmp_path, rng):
    system = random_stable_system(rng, 3)
    inputs = estimate_asymptotic_inputs(panel_of(rng.standard_normal((150, 3))), system)
    (result,) = asymptotic_bands(
        system, [ShockSpec(targets=(0, 2), horizon=6, at_time=17, level=0.9)], 149, inputs)
    columns = ["A.x", "A.y", "ACT"]
    path = tmp_path / "irf.json"
    write_irf_json(result, columns, path)
    loaded, loaded_columns = read_irf_json(path)
    assert loaded_columns == columns
    assert loaded.targets == (0, 2)
    assert loaded.at_time == 17
    assert loaded.level == 0.9
    assert loaded.stable == result.stable
    for key in ("radius", "g0_condition"):
        assert np.isfinite(read_json(path)[key])
        assert getattr(loaded, key) == getattr(result, key)
    np.testing.assert_array_equal(loaded.point, result.point)
    np.testing.assert_array_equal(loaded.half_width, result.half_width)


def test_irf_json_without_conditioning_rejected(tmp_path, rng):
    system = random_stable_system(rng, 2)
    (result,) = asymptotic_bands(system, [ShockSpec(targets=(0,), horizon=2, at_time=1)], 100,
                                 eye_inputs(2))
    path = tmp_path / "irf.json"
    write_irf_json(result, ["u", "v"], path)
    obj = read_json(path)
    del obj["radius"], obj["g0_condition"]
    write_json(obj, path)
    with pytest.raises(ValidationError, match="lacks radius, g0_condition"):
        read_irf_json(path)


def test_irf_csv_round_trip(tmp_path, rng):
    system = random_stable_system(rng, 2)
    (result,) = asymptotic_bands(system, [ShockSpec(targets=(1,), horizon=4, at_time=1)],
                                 100, eye_inputs(2))
    columns = ["u", "v"]
    path = tmp_path / "irf.csv"
    write_irf_csv(result, columns, path)
    table = read_irf_csv(path)
    np.testing.assert_array_equal(table["u"][:, 0], result.point[:, 0])
    np.testing.assert_array_equal(table["v"][:, 1], result.lower[:, 1])
    np.testing.assert_array_equal(table["v"][:, 2], result.upper[:, 1])
