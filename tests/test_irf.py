import numpy as np
import pytest
from scipy.stats import norm

from tvpgvar import (
    ShockSpec,
    StackedSystem,
    asymptotic_bands,
    cholesky_lower,
    commutation_matrix,
    derivative_Gn,
    derivative_H,
    duplication_matrix,
    elimination_matrix,
    estimate_asymptotic_inputs,
    girf_point,
    ma_coefficients,
    oirf_point,
    vec,
    vech,
)
from tvpgvar.errors import NumericalError, ValidationError
from tvpgvar.irf import read_irf_csv, read_irf_json, write_irf_csv, write_irf_json

from conftest import random_stable_system


def oirf_simulation_oracle(system, targets, horizon):
    """Shocked-minus-baseline paths of the reduced-form recursion."""
    width = system.width
    chol = np.linalg.cholesky(system.sigma_u)
    u0 = np.zeros(width)
    for j in targets:
        u0 += chol[:, j]
    x_init = np.zeros(width)
    shocked = np.empty((horizon + 1, width))
    baseline = np.empty((horizon + 1, width))
    shocked[0] = system.b + system.f1 @ x_init + np.linalg.solve(system.g0, u0)
    baseline[0] = system.b + system.f1 @ x_init
    for s in range(1, horizon + 1):
        shocked[s] = system.b + system.f1 @ shocked[s - 1]
        baseline[s] = system.b + system.f1 @ baseline[s - 1]
    return shocked - baseline


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
        system = StackedSystem.from_reduced_form(np.zeros(3), f1, np.eye(3))
        for j in range(3):
            resp = oirf_point(system, ShockSpec(targets=(j,), horizon=2))
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
            resp_a = oirf_point(system, ShockSpec(targets=set_a, horizon=5))
            resp_b = oirf_point(system, ShockSpec(targets=set_b, horizon=5))
            resp_ab = oirf_point(system, ShockSpec(targets=set_a + set_b, horizon=5))
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
            resp_a = oirf_point(system, ShockSpec(targets=set_a, horizon=5))
            resp_b = oirf_point(system, ShockSpec(targets=set_b, horizon=5))
            resp_ab = oirf_point(system, ShockSpec(targets=set_a + set_b, horizon=5))
            np.testing.assert_allclose(resp_ab, resp_a + resp_b, rtol=0, atol=1e-13)

    def test_matches_simulation_oracle(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            system = random_stable_system(rng, dim)
            j = int(rng.integers(dim))
            shock = ShockSpec(targets=(j,), horizon=10)
            point = oirf_point(system, shock)
            oracle = oirf_simulation_oracle(system, (j,), 10)
            np.testing.assert_allclose(point, oracle, atol=1e-8)

    def test_target_out_of_range(self, rng):
        system = random_stable_system(rng, 3)
        with pytest.raises(ValidationError, match="out of range"):
            oirf_point(system, ShockSpec(targets=(3,), horizon=2))

    def test_shock_spec_validation(self):
        with pytest.raises(ValidationError, match="distinct"):
            ShockSpec(targets=(1, 1), horizon=2)
        with pytest.raises(ValidationError, match="at least one"):
            ShockSpec(targets=(), horizon=2)
        with pytest.raises(ValidationError, match="level"):
            ShockSpec(targets=(0,), horizon=2, level=1.5)


class TestGIRF:
    def test_diagonal_sigma_matches_oirf_any_target(self, rng):
        g0 = np.eye(3) + 0.2 * (np.ones((3, 3)) - np.eye(3))
        f1 = 0.4 * np.eye(3)
        sigma_u = np.diag([1.0, 2.0, 0.5])
        sigma_eps = np.linalg.solve(g0, np.linalg.solve(g0, sigma_u).T).T
        system = StackedSystem(g0=g0, g1=g0 @ f1, a=np.zeros(3), sigma_u=sigma_u,
                               sigma_eps=(sigma_eps + sigma_eps.T) / 2,
                               b=np.zeros(3), f1=f1)
        for j in range(3):
            girf = girf_point(system, j, 6)
            oirf = oirf_point(system, ShockSpec(targets=(j,), horizon=6))
            np.testing.assert_allclose(girf, oirf, atol=1e-12)

    def test_first_variable_matches_oirf_general_sigma(self, rng):
        system = random_stable_system(rng, 4)
        girf = girf_point(system, 0, 8)
        oirf = oirf_point(system, ShockSpec(targets=(0,), horizon=8))
        np.testing.assert_allclose(girf, oirf, atol=1e-12)

    def test_unit_system_horizon_zero(self):
        system = StackedSystem.from_reduced_form(np.zeros(2), 0.3 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(girf_point(system, 1, 0)[0], [0.0, 1.0])

    def test_permutation_invariance(self, rng):
        system = random_stable_system(rng, 4)
        perm = rng.permutation(4)
        pmat = np.eye(4)[perm]
        permuted = StackedSystem(
            g0=pmat @ system.g0 @ pmat.T, g1=pmat @ system.g1 @ pmat.T,
            a=pmat @ system.a, sigma_u=pmat @ system.sigma_u @ pmat.T,
            sigma_eps=pmat @ system.sigma_eps @ pmat.T,
            b=pmat @ system.b, f1=pmat @ system.f1 @ pmat.T)
        j = 2
        j_new = int(np.flatnonzero(perm == j)[0])
        original = girf_point(system, j, 6)
        mapped = girf_point(permuted, j_new, 6)
        np.testing.assert_allclose(mapped, original[:, perm], atol=1e-10)

    def test_non_positive_variance_rejected(self, rng):
        system = random_stable_system(rng, 3)
        bad = StackedSystem(g0=system.g0, g1=system.g1, a=system.a,
                            sigma_u=system.sigma_u - np.diag([0.0, 10.0, 0.0]),
                            sigma_eps=system.sigma_eps, b=system.b, f1=system.f1)
        with pytest.raises(NumericalError, match="variance"):
            girf_point(bad, 1, 3)


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


class TestAsymptoticBands:
    def test_zero_covariances_zero_widths(self, rng):
        system = random_stable_system(rng, 3)
        shock = ShockSpec(targets=(0,), horizon=4)
        result = asymptotic_bands(system, shock, 500, np.zeros((9, 9)),
                                  np.zeros((6, 6)))
        np.testing.assert_array_equal(result.half_width, 0.0)
        np.testing.assert_array_equal(result.lower, result.point)

    def test_horizon_zero_has_no_coefficient_term(self, rng):
        # C_0 = 0: with zero covariance for the residual-covariance part the
        # horizon-0 band collapses even though the coefficient part is huge
        system = random_stable_system(rng, 3)
        shock = ShockSpec(targets=(1,), horizon=3)
        result = asymptotic_bands(system, shock, 200, 1e6 * np.eye(9),
                                  np.zeros((6, 6)))
        np.testing.assert_array_equal(result.half_width[0], 0.0)
        assert np.all(result.half_width[1:] > 0)

    def test_quantile_scaling(self, rng):
        system = random_stable_system(rng, 3)
        shock95 = ShockSpec(targets=(2,), horizon=4, level=0.95)
        level_z1 = 2 * norm.cdf(1.0) - 1  # level whose quantile is exactly 1
        shock_z1 = ShockSpec(targets=(2,), horizon=4, level=level_z1)
        sigma_alpha = np.eye(9)
        sigma_sigma = np.eye(6)
        res95 = asymptotic_bands(system, shock95, 400, sigma_alpha, sigma_sigma)
        res_z1 = asymptotic_bands(system, shock_z1, 400, sigma_alpha, sigma_sigma)
        ratio = res95.half_width[1:] / res_z1.half_width[1:]
        np.testing.assert_allclose(ratio, norm.ppf(0.975), rtol=1e-12)
        assert norm.ppf(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_band_multiplier_pinned_at_95(self):
        # scalar VAR with F1 = 0 and unit variances: at horizon 1 the response
        # variance is exactly 1, so the half-width is the multiplier itself
        system = StackedSystem.from_reduced_form(np.zeros(1), np.zeros((1, 1)),
                                                 np.eye(1))
        shock = ShockSpec(targets=(0,), horizon=1, level=0.95)
        result = asymptotic_bands(system, shock, 1, np.eye(1), np.zeros((1, 1)))
        assert result.half_width[1, 0] == 1.959963984540054

    def test_band_symmetry_exact(self, rng):
        # one stored half-width defines both band edges, so symmetry holds
        # at the representation level
        system = random_stable_system(rng, 2)
        sigma_alpha, sigma_sigma = estimate_asymptotic_inputs(
            rng.standard_normal((100, 2)), system)
        result = asymptotic_bands(system, ShockSpec(targets=(0,), horizon=5),
                                  100, sigma_alpha, sigma_sigma)
        np.testing.assert_array_equal(result.upper, result.point + result.half_width)
        np.testing.assert_array_equal(result.lower, result.point - result.half_width)
        assert np.all(result.half_width >= 0)

    def test_sample_size_scaling(self, rng):
        system = random_stable_system(rng, 2)
        shock = ShockSpec(targets=(1,), horizon=3)
        r100 = asymptotic_bands(system, shock, 100, np.eye(4), np.eye(3))
        r400 = asymptotic_bands(system, shock, 400, np.eye(4), np.eye(3))
        np.testing.assert_allclose(r100.half_width, 2 * r400.half_width, rtol=1e-12)

    def test_multi_target_variance_uses_cross_terms(self, rng):
        # a two-column shock is one linear functional: its variance includes
        # the covariance between the two single-shock responses
        system = random_stable_system(rng, 3)
        sigma_alpha, sigma_sigma = estimate_asymptotic_inputs(
            rng.standard_normal((300, 3)), system)
        both = asymptotic_bands(system, ShockSpec(targets=(0, 1), horizon=2),
                                300, sigma_alpha, sigma_sigma)
        single_a = asymptotic_bands(system, ShockSpec(targets=(0,), horizon=2),
                                    300, sigma_alpha, sigma_sigma)
        single_b = asymptotic_bands(system, ShockSpec(targets=(1,), horizon=2),
                                    300, sigma_alpha, sigma_sigma)
        np.testing.assert_array_equal(both.point, single_a.point + single_b.point)
        # half-widths are NOT additive (they aggregate a covariance)
        assert not np.allclose(both.half_width[1:],
                               single_a.half_width[1:] + single_b.half_width[1:])

    def test_stability_flag_attached(self, rng):
        stable = random_stable_system(rng, 2)
        result = asymptotic_bands(stable, ShockSpec(targets=(0,), horizon=2),
                                  50, np.eye(4), np.eye(3))
        assert result.stable
        unstable = StackedSystem.from_reduced_form(
            np.zeros(2), 1.05 * np.eye(2), np.eye(2))
        result = asymptotic_bands(unstable, ShockSpec(targets=(0,), horizon=2),
                                  50, np.eye(4), np.eye(3))
        assert not result.stable

    def test_convergence_when_stable(self, rng):
        system = random_stable_system(rng, 3)
        point = oirf_point(system, ShockSpec(targets=(0,), horizon=30))
        peaks = np.max(np.abs(point), axis=1)
        tail = peaks[2 * system.width:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


class TestAsymptoticInputs:
    def test_ar1_slope_variance(self, rng):
        phi, t_len = 0.6, 40_000
        y = np.empty(t_len)
        y[0] = 0.0
        eps = rng.standard_normal(t_len)
        for t in range(1, t_len):
            y[t] = phi * y[t - 1] + eps[t]
        system = StackedSystem.from_reduced_form(
            np.zeros(1), np.array([[phi]]), np.array([[1.0]]))
        sigma_alpha, _ = estimate_asymptotic_inputs(y[:, None], system)
        assert sigma_alpha.shape == (1, 1)
        assert sigma_alpha[0, 0] == pytest.approx(1 - phi ** 2, rel=0.05)

    def test_sigma_sigma_identity_case(self):
        # for Sigma = I_2: 2 D+ D+' with the hand-built duplication matrix
        system = StackedSystem.from_reduced_form(
            np.zeros(2), 0.2 * np.eye(2), np.eye(2))
        values = np.random.default_rng(0).standard_normal((50, 2))
        _, sigma_sigma = estimate_asymptotic_inputs(values, system)
        dup = np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
        dup_pinv = np.linalg.pinv(dup)
        np.testing.assert_allclose(sigma_sigma, 2 * dup_pinv @ dup_pinv.T, atol=1e-12)
        np.testing.assert_allclose(sigma_sigma, np.diag([2.0, 1.0, 2.0]), atol=1e-12)

    def test_white_noise_slope_entry(self, rng):
        t_len = 30_000
        scale = 1.7
        y = scale * rng.standard_normal(t_len)
        sigma = np.array([[scale ** 2]])
        system = StackedSystem.from_reduced_form(np.zeros(1), np.zeros((1, 1)), sigma)
        sigma_alpha, _ = estimate_asymptotic_inputs(y[:, None], system)
        assert sigma_alpha[0, 0] == pytest.approx(scale ** 2 / np.var(y), rel=0.05)

    def test_residuals_override(self, rng):
        system = random_stable_system(rng, 2)
        resid = rng.standard_normal((200, 2))
        values = rng.standard_normal((201, 2))
        sigma_alpha, sigma_sigma = estimate_asymptotic_inputs(values, system, resid)
        sigma_hat = resid.T @ resid / (200 - 3)
        lagged = np.column_stack([np.ones(200), values[:-1]])
        moment_inv = np.linalg.inv(lagged.T @ lagged / 200)
        np.testing.assert_allclose(sigma_alpha, np.kron(moment_inv[1:, 1:], sigma_hat),
                                   atol=1e-12)


def test_irf_json_round_trip(tmp_path, rng):
    system = random_stable_system(rng, 3)
    sigma_alpha, sigma_sigma = estimate_asymptotic_inputs(
        rng.standard_normal((150, 3)), system)
    result = asymptotic_bands(system, ShockSpec(targets=(0, 2), horizon=6,
                                                at_time=17, level=0.9),
                              149, sigma_alpha, sigma_sigma)
    columns = ["A.x", "A.y", "ACT"]
    path = tmp_path / "irf.json"
    write_irf_json(result, columns, path)
    loaded, loaded_columns = read_irf_json(path)
    assert loaded_columns == columns
    assert loaded.targets == (0, 2)
    assert loaded.at_time == 17
    assert loaded.level == 0.9
    assert loaded.stable == result.stable
    np.testing.assert_array_equal(loaded.point, result.point)
    np.testing.assert_array_equal(loaded.half_width, result.half_width)


def test_irf_csv_round_trip(tmp_path, rng):
    system = random_stable_system(rng, 2)
    result = asymptotic_bands(system, ShockSpec(targets=(1,), horizon=4),
                              100, np.eye(4), np.eye(3))
    columns = ["u", "v"]
    path = tmp_path / "irf.csv"
    write_irf_csv(result, columns, path)
    table = read_irf_csv(path)
    np.testing.assert_array_equal(table["u"][:, 0], result.point[:, 0])
    np.testing.assert_array_equal(table["v"][:, 1], result.lower[:, 1])
    np.testing.assert_array_equal(table["v"][:, 2], result.upper[:, 1])
