import re

import numpy as np
import pytest

from tvpgvar import (
    WeightSequence,
    estimate_structural,
    ma_coefficients,
    spectral_radius,
    stack_system,
)
from tvpgvar.errors import NumericalError, ValidationError
from tvpgvar.gvar import _links, read_coefficients_json, write_coefficients_json

from conftest import (
    fit_blocks,
    make_panel,
    random_coefficients,
    simulate_structural,
    structural_matrices,
    true_fit,
    wave_weights,
)
from oracles import oirf_point


# (K, p, l): two countries, a lone country (zero foreign coefficients) and no activity
SHAPES = [(2, 2, 1), (1, 2, 1), (3, 1, 0)]
SHAPE_IDS = ["K2-p2-l1", "lone-country", "no-activity"]


def simulated_panel(rng, n_regions, p, l, t_len=150):
    """(weights, panel) of a simulated structural system with noise."""
    weights = wave_weights(t_len, n_regions, l)
    coeffs = random_coefficients(rng, n_regions, p, l, scale=0.5)
    width = n_regions * p + l
    noise = 0.1 * rng.standard_normal((t_len, width))
    x = simulate_structural(coeffs, weights, rng.standard_normal(width),
                            n_regions, p, l, noise=noise)
    panel = make_panel(x, ["A", "B", "C"][:n_regions], [f"v{i + 1}" for i in range(p)],
                       ["ACT"][:l])
    return weights, panel


def swap_weights(t_len):
    """K=2 weights (forced to the swap matrix) with one activity."""
    we = np.zeros((t_len, 2, 2))
    we[:, 0, 1] = 1.0
    we[:, 1, 0] = 1.0
    wb = np.full((t_len, 2, 1), 0.5)
    return WeightSequence(we=we, wb=wb)


class TestWeightSequence:
    def test_equal_weights_invariants(self):
        w = WeightSequence.equal(5, 4, 2)
        np.testing.assert_allclose(w.we.sum(axis=1), 1.0)
        np.testing.assert_allclose(w.wb.sum(axis=1), 1.0)
        assert np.all(np.diagonal(w.we, axis1=1, axis2=2) == 0)

    def test_single_country_degenerate(self):
        w = WeightSequence.equal(3, 1, 1)
        assert np.all(w.we == 0)
        np.testing.assert_allclose(w.wb, 1.0)

    def test_bad_column_sum_rejected(self):
        we = np.zeros((1, 2, 2))
        we[:, 0, 1] = 0.7
        we[:, 1, 0] = 1.0
        with pytest.raises(ValidationError, match="sum to 1"):
            WeightSequence(we=we, wb=np.full((1, 2, 1), 0.5))

    def test_nonzero_diagonal_rejected(self):
        we = np.full((1, 2, 2), 0.5)
        with pytest.raises(ValidationError, match="diagonal"):
            WeightSequence(we=we, wb=np.full((1, 2, 1), 0.5))

    @pytest.mark.parametrize("weight", [0.5, 2e-12])
    def test_nonzero_single_country_weight_is_a_diagonal(self, weight):
        # a 1 x 1 we is its own diagonal, so the zero-diagonal check refuses it
        with pytest.raises(ValidationError,
                           match="^country weight matrices must have zero diagonal$"):
            WeightSequence(we=np.full((2, 1, 1), weight), wb=np.ones((2, 1, 1)))

    def test_rolling_share(self, rng):
        values = rng.uniform(1.0, 3.0, (30, 5))
        panel = make_panel(values, ["A", "B"], ["CPI", "GDP"], ["ACT"])
        w = WeightSequence.rolling_share(panel, "GDP", window=6)
        # weights at t reflect trailing means of the GDP columns
        t = 17
        means = values[t - 5:t + 1][:, [1, 3]].mean(axis=0)
        np.testing.assert_allclose(w.wb[t, :, 0], means / means.sum())
        np.testing.assert_allclose(w.we[t, 1, 0], 1.0)  # only foreign country

    def test_rolling_share_rejects_nonpositive(self, rng):
        values = rng.uniform(1.0, 3.0, (30, 3))
        values[10, 1] = -50.0  # drives a trailing mean negative
        panel = make_panel(values, ["A"], ["CPI", "GDP"], ["ACT"])
        import pytest as _pytest
        with _pytest.raises(ValidationError, match="positive"):
            WeightSequence.rolling_share(panel, "GDP", window=3)

    def test_csv_round_trip(self, tmp_path):
        dates = ("2000-01", "2000-02")
        lines = ["date,from,to,weight"]
        for d in dates:
            lines += [f"{d},A,B,1.0", f"{d},B,A,1.0",
                      f"{d},A,__COMMON__:ACT,0.3", f"{d},B,__COMMON__:ACT,0.7"]
        path = tmp_path / "w.csv"
        path.write_text("\n".join(lines) + "\n")
        w = WeightSequence.from_csv(path, dates, ("A", "B"), ("ACT",))
        np.testing.assert_allclose(w.wb[:, 0, 0], 0.3)
        np.testing.assert_allclose(w.we[0], [[0, 1], [1, 0]])

    def test_csv_repeated_weight_rejected(self, tmp_path):
        # the last of two rows for one (date, from, to) would win silently
        path = tmp_path / "w.csv"
        path.write_text("date,from,to,weight\n2000-01,A,B,0.2\n2000-01,B,A,1.0\n"
                        "2000-01,A,B,1.0\n")
        with pytest.raises(ValidationError,
                           match="^" + re.escape(f"{path}: row 4: 2000-01,A,B repeats row 2")):
            WeightSequence.from_csv(path, ("2000-01",), ("A", "B"), ())

    def test_csv_unknown_region(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("date,from,to,weight\n2000-01,A,Z,1.0\n")
        with pytest.raises(ValidationError, match="unknown region"):
            WeightSequence.from_csv(path, ("2000-01",), ("A", "B"), ())

    @pytest.mark.parametrize("row, message", [
        ("2000-01,Z,A,1.0", "unknown region 'Z'"),
        ("2000-01,A,__COMMON__:GAS,1.0", "unknown activity 'GAS'"),
        ("1999-12,A,B,1.0", "date 1999-12 not in panel range"),
        ("2000-1,A,B,1.0", "malformed date '2000-1', expected YYYY-MM"),
    ], ids=["from-region", "activity", "date", "malformed-date"])
    def test_csv_row_outside_the_panel_named(self, tmp_path, row, message):
        path = tmp_path / "w.csv"
        path.write_text(f"date,from,to,weight\n{row}\n")
        with pytest.raises(ValidationError,
                           match="^" + re.escape(f"{path}: row 2: {message}") + "$"):
            WeightSequence.from_csv(path, ("2000-01",), ("A", "B"), ("OIL",))

    def test_csv_month_without_rows_named(self, tmp_path):
        # an uncovered month would otherwise fail the column sums, naming
        # neither the file nor the month
        path = tmp_path / "w.csv"
        path.write_text("date,from,to,weight\n2000-01,A,B,1.0\n2000-01,B,A,1.0\n"
                        "2000-03,A,B,1.0\n2000-03,B,A,1.0\n")
        with pytest.raises(ValidationError,
                           match="^" + re.escape(f"{path}: no weights for 2000-02") + "$"):
            WeightSequence.from_csv(path, ("2000-01", "2000-02", "2000-03"), ("A", "B"), ())

    def test_csv_column_sum_error_names_the_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("date,from,to,weight\n2000-01,A,B,0.5\n2000-01,B,A,1.0\n")
        with pytest.raises(ValidationError, match="^" + re.escape(
                f"{path}: country weight columns must sum to 1") + "$"):
            WeightSequence.from_csv(path, ("2000-01",), ("A", "B"), ())

    def test_csv_lone_country_needs_no_rows(self, tmp_path):
        # one country and no activity: there is no weight to give
        path = tmp_path / "w.csv"
        path.write_text("date,from,to,weight\n")
        w = WeightSequence.from_csv(path, ("2000-01", "2000-02"), ("A",), ())
        np.testing.assert_array_equal(w.we, np.zeros((2, 1, 1)))


class TestLinkMatrices:
    def test_country_k2p1l1_first(self):
        w = swap_weights(1)
        link = _links(w, 0, (2, 1, 1))[0]
        np.testing.assert_array_equal(link, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_country_k2p1l1_second(self):
        w = swap_weights(1)
        link = _links(w, 0, (2, 1, 1))[1]
        np.testing.assert_array_equal(link, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])

    def test_country_k3p2l1_equal_weights_blocks(self):
        # hand-built from the block layout: own identity rows, halved foreign
        # identity blocks in the middle rows, activity selector last
        w = WeightSequence.equal(1, 3, 1)
        link = _links(w, 0, (3, 2, 1))[1]
        eye2 = np.eye(2)
        expected = np.zeros((5, 7))
        expected[0:2, 2:4] = eye2
        expected[2:4, 0:2] = 0.5 * eye2
        expected[2:4, 4:6] = 0.5 * eye2
        expected[4, 6] = 1.0
        np.testing.assert_allclose(link, expected)

    def test_activity_k1p1l1(self):
        w = WeightSequence(we=np.zeros((1, 1, 1)), wb=np.ones((1, 1, 1)))
        link = _links(w, 0, (1, 1, 1))[1 + 0]  # K + m
        np.testing.assert_array_equal(link, [[0, 1], [1, 0]])

    def test_activity_k2p1l1(self):
        w = swap_weights(1)
        link = _links(w, 0, (2, 1, 1))[2 + 0]  # K + m
        np.testing.assert_allclose(link, [[0, 0, 1], [0.5, 0.5, 0]])

    def test_activity_k2p2l2_second_activity(self):
        we = np.zeros((1, 2, 2))
        we[:, 0, 1] = we[:, 1, 0] = 1.0
        wb = np.zeros((1, 2, 2))
        wb[0, :, 0] = [0.5, 0.5]
        wb[0, :, 1] = [0.3, 0.7]
        w = WeightSequence(we=we, wb=wb)
        link = _links(w, 0, (2, 2, 2))[2 + 1]  # K + m
        expected = np.zeros((3, 6))
        expected[0, 5] = 1.0
        expected[1:3, 0:2] = 0.3 * np.eye(2)
        expected[1:3, 2:4] = 0.7 * np.eye(2)
        np.testing.assert_allclose(link, expected)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="time index 5 out of range"):
            _links(swap_weights(2), 5, (2, 1, 1))

    def test_own_block_identity_and_weight_rows_sum(self, rng):
        n_regions, p, l = 4, 3, 2
        w = wave_weights(6, n_regions, l)
        for k in range(n_regions):
            link = _links(w, 3, (n_regions, p, l))[k]
            np.testing.assert_array_equal(link[0:p, k * p:(k + 1) * p], np.eye(p))
            weight_rows = link[p:2 * p, :n_regions * p]
            np.testing.assert_allclose(weight_rows.sum(axis=1), 1.0)
            np.testing.assert_allclose(link[p:2 * p, k * p:(k + 1) * p], 0.0)


class TestEstimateStructural:
    def test_zero_noise_recovery_k3(self, rng):
        n_regions, p, l = 3, 2, 1
        coeffs = random_coefficients(rng, n_regions, p, l)
        weights = wave_weights(400, n_regions, l)
        x = simulate_structural(coeffs, weights, rng.standard_normal(n_regions * p + l),
                                n_regions, p, l)
        panel = make_panel(x, ["A", "B", "C"], ["v1", "v2"], ["ACT"])
        fit = estimate_structural(panel, weights)
        blocks = fit_blocks(fit)
        for key in ("phi", "ge0", "ge1", "gb0", "gb1", "ak", "phib", "am", "gbe0", "gbe1"):
            assert len(blocks[key]) == len(coeffs[key])
            for est, true in zip(blocks[key], coeffs[key]):
                np.testing.assert_allclose(est, true, atol=1e-8)
        assert np.max(np.abs(fit.residuals)) < 1e-10

    def test_white_noise_slopes_within_3se(self, rng):
        # K=1, p=1, l=1: regressors are [1, own lag, activity, activity lag]
        # for the country equation; population slopes are all zero
        t_len = 5000
        values = rng.standard_normal((t_len, 2))
        panel = make_panel(values, ["A"], ["v1"], ["ACT"])
        weights = WeightSequence.equal(t_len, 1, 1)
        fit = estimate_structural(panel, weights)

        def ols_se(design, resid):
            dof = design.shape[0] - design.shape[1]
            s2 = float(resid @ resid) / dof
            return np.sqrt(s2 * np.diag(np.linalg.inv(design.T @ design)))

        y = values[1:, 0]
        design = np.column_stack([np.ones(t_len - 1), values[:-1, 0],
                                  values[1:, 1], values[:-1, 1]])
        se = ols_se(design, fit.residuals[:, 0])
        blocks = fit_blocks(fit)
        assert abs(blocks["phi"][0][0, 0]) < 3 * se[1]
        assert abs(blocks["gb0"][0][0, 0]) < 3 * se[2]
        assert abs(blocks["gb1"][0][0, 0]) < 3 * se[3]

        y_b = values[1:, 1]
        design_b = np.column_stack([np.ones(t_len - 1), values[:-1, 1],
                                    values[1:, 0], values[:-1, 0]])
        se_b = ols_se(design_b, fit.residuals[:, 1])
        assert abs(blocks["phib"][0]) < 3 * se_b[1]
        assert abs(blocks["gbe0"][0][0]) < 3 * se_b[2]
        assert abs(blocks["gbe1"][0][0]) < 3 * se_b[3]

    def test_too_short_panel_rejected(self, rng):
        values = rng.standard_normal((6, 5))
        panel = make_panel(values, ["A", "B"], ["v1", "v2"], ["ACT"])
        weights = WeightSequence.equal(6, 2, 1)
        with pytest.raises(NumericalError, match="too short"):
            estimate_structural(panel, weights)

    def test_rank_deficiency_names_equation(self, rng):
        # constant series make the country design exactly collinear
        t_len = 40
        values = np.column_stack([np.ones(t_len), rng.standard_normal(t_len)])
        panel = make_panel(values, ["A"], ["v1"], ["ACT"])
        weights = WeightSequence.equal(t_len, 1, 1)
        with pytest.raises(NumericalError, match="country equation A"):
            estimate_structural(panel, weights)

    def test_residuals_match_panel_order(self, rng):
        n_regions, p, l = 2, 1, 1
        t_len = 120
        weights = wave_weights(t_len, n_regions, l)
        coeffs = random_coefficients(rng, n_regions, p, l, scale=0.6)
        noise = 0.1 * rng.standard_normal((t_len, 3))
        x = simulate_structural(coeffs, weights, rng.standard_normal(3),
                                n_regions, p, l, noise=noise)
        panel = make_panel(x, ["A", "B"], ["v1"], ["ACT"])
        fit = estimate_structural(panel, weights)
        assert fit.residuals.shape == (t_len - 1, 3)
        assert fit.columns == ("A.v1", "B.v1", "ACT")


class TestStackSystem:
    def fit_for(self, coeffs, weights, panel):
        return estimate_structural(panel, weights)

    def test_all_gamma_zero_gives_identity_g0(self, rng):
        # with zero couplings G0 = I and F1 is block-diagonal in the own lags
        n_regions, p, l = 2, 1, 1
        t_len = 200
        weights = WeightSequence.equal(t_len, n_regions, l)
        coeffs = random_coefficients(rng, n_regions, p, l, scale=0.0)
        noise = 0.2 * rng.standard_normal((t_len, 3))
        x = simulate_structural(coeffs, weights, rng.standard_normal(3),
                                n_regions, p, l, noise=noise)
        panel = make_panel(x, ["A", "B"], ["v1"], ["ACT"])
        fit = estimate_structural(panel, weights)
        # rebuild the stacked system from the true (zero-coupling) blocks
        blocks = fit_blocks(fit)
        for key in ("ge0", "ge1", "gb0", "gb1", "gbe0", "gbe1"):
            blocks[key] = [np.zeros_like(block) for block in blocks[key]]
        zeroed = fit.replace(equations=true_fit(blocks, fit.dims).equations)
        system = stack_system(zeroed, weights, 1)
        np.testing.assert_array_equal(system.g0, np.eye(3))
        expected_diag = [blocks["phi"][0][0, 0], blocks["phi"][1][0, 0], blocks["phib"][0]]
        np.testing.assert_allclose(system.f1, np.diag(expected_diag), atol=1e-12)

    def test_k2_p1_l0_hand_checked_g0(self, rng):
        # symmetric contemporaneous coupling 0.2 -> G0 = [[1, -0.2], [-0.2, 1]]
        t_len = 150
        we = np.zeros((t_len, 2, 2))
        we[:, 0, 1] = we[:, 1, 0] = 1.0
        weights = WeightSequence(we=we, wb=np.zeros((t_len, 2, 0)))
        coeffs = dict(
            phi=[np.array([[0.5]]), np.array([[0.4]])],
            ge0=[np.array([[0.2]]), np.array([[0.2]])],
            ge1=[np.array([[0.1]]), np.array([[-0.1]])],
            gb0=[np.zeros((1, 0)), np.zeros((1, 0))],
            gb1=[np.zeros((1, 0)), np.zeros((1, 0))],
            ak=[np.array([0.3]), np.array([-0.2])],
            gbe0=[], gbe1=[], phib=[], am=[])
        noise = 0.15 * rng.standard_normal((t_len, 2))
        x = simulate_structural(coeffs, weights, rng.standard_normal(2), 2, 1, 0,
                                noise=noise)
        panel = make_panel(x, ["A", "B"], ["v1"])
        fit = estimate_structural(panel, weights)
        blocks = fit_blocks(fit)
        blocks["ge0"] = [np.array([[0.2]])] * 2
        pinned = fit.replace(equations=true_fit(blocks, fit.dims).equations)
        system = stack_system(pinned, weights, 1)
        np.testing.assert_allclose(system.g0, [[1.0, -0.2], [-0.2, 1.0]])

    def test_g0_f1_multiply_back(self, rng):
        n_regions, p, l = 3, 2, 1
        t_len = 300
        weights = wave_weights(t_len, n_regions, l)
        coeffs = random_coefficients(rng, n_regions, p, l, scale=0.7)
        noise = 0.1 * rng.standard_normal((t_len, 7))
        x = simulate_structural(coeffs, weights, rng.standard_normal(7),
                                n_regions, p, l, noise=noise)
        panel = make_panel(x, ["A", "B", "C"], ["v1", "v2"], ["ACT"])
        fit = estimate_structural(panel, weights)
        for t in (1, 100, 299):
            system = stack_system(fit, weights, t)
            # G0_t F1 = G1_{t-1}, the lag matrix under the weights of t-1
            _, g1_ref, _ = structural_matrices(fit_blocks(fit), weights.we[t - 1],
                                               weights.wb[t - 1], n_regions, p, l)
            assert np.max(np.abs(system.g0 @ system.f1 - g1_ref)) < 1e-12

    @pytest.mark.parametrize("n_regions, p, l", SHAPES, ids=SHAPE_IDS)
    def test_matches_independent_construction(self, rng, n_regions, p, l):
        # stack_system agrees with the per-equation oracle construction, a
        # lone country's zero foreign coefficients and no activity included
        weights, panel = simulated_panel(rng, n_regions, p, l)
        fit = estimate_structural(panel, weights)
        coeffs_hat = fit_blocks(fit)
        t = 77
        # G0 carries the weights of t, G1 those of t-1
        g0_ref, _, _ = structural_matrices(
            coeffs_hat, weights.we[t], weights.wb[t], n_regions, p, l)
        _, g1_ref, _ = structural_matrices(
            coeffs_hat, weights.we[t - 1], weights.wb[t - 1], n_regions, p, l)
        system = stack_system(fit, weights, t)
        np.testing.assert_allclose(system.g0, g0_ref, atol=1e-13)
        np.testing.assert_allclose(system.f1, np.linalg.solve(g0_ref, g1_ref), atol=1e-12)

    def test_time_invariant_mode_constant_reduced_form(self, rng):
        n_regions, p, l = 2, 1, 1
        t_len = 150
        weights = WeightSequence.equal(t_len, n_regions, l)
        coeffs = random_coefficients(rng, n_regions, p, l, scale=0.5)
        noise = 0.1 * rng.standard_normal((t_len, 3))
        x = simulate_structural(coeffs, weights, rng.standard_normal(3),
                                n_regions, p, l, noise=noise)
        panel = make_panel(x, ["A", "B"], ["v1"], ["ACT"])
        fit = estimate_structural(panel, weights)
        s0 = stack_system(fit, weights, 1)
        s1 = stack_system(fit, weights, t_len - 1)
        assert np.max(np.abs(s0.f1 - s1.f1)) < 1e-12

    def test_period_zero_rejected(self, rng):
        # period 0 has no lag, so there is no G1 to stack
        fit = true_fit(random_coefficients(rng, 2, 1, 1), (2, 1, 1))
        with pytest.raises(ValidationError, match="period 0 has no lagged period"):
            stack_system(fit, WeightSequence.equal(10, 2, 1), 0)

    def test_ill_conditioned_g0_rejected(self, rng):
        # unit contemporaneous loadings on the other country's variable make
        # G0 = [[1, -1], [-1, 1]], singular
        coeffs = random_coefficients(rng, 2, 1, 0)
        coeffs["ge0"] = [np.array([[1.0]])] * 2
        fit = true_fit(coeffs, (2, 1, 0))
        with pytest.raises(NumericalError, match=r"^G0 at period 5 has condition number "
                                                 r"\S+ above cap 1\.0e\+12$"):
            stack_system(fit, WeightSequence.equal(10, 2, 0), 5)

    @pytest.mark.parametrize("t", [1, 50, 119])
    def test_one_step_propagation_under_time_varying_weights(self, rng, t):
        # F1 from the stacked system at t moves two states as the simulator's
        # G0_t^-1 (a + G1_{t-1} x_{t-1}) step does: the intercept cancels in
        # their difference
        n_regions, p, l = 3, 2, 1
        weights = wave_weights(120, n_regions, l)
        coeffs = random_coefficients(rng, n_regions, p, l)
        step = WeightSequence(we=weights.we[t - 1:t + 1], wb=weights.wb[t - 1:t + 1])
        x, y = (simulate_structural(coeffs, step, rng.standard_normal(7), n_regions, p, l)
                for _ in range(2))
        system = stack_system(true_fit(coeffs, (n_regions, p, l)), weights, t)
        assert np.max(np.abs(system.f1 @ (x[0] - y[0]) - (x[1] - y[1]))) < 1e-12

    def test_responses_vary_with_the_weights_of_the_period(self, rng):
        n_regions, p, l = 3, 2, 1
        fit = true_fit(random_coefficients(rng, n_regions, p, l), (n_regions, p, l))
        varying = wave_weights(120, n_regions, l)
        a, b = (oirf_point(stack_system(fit, varying, t), (6,), 4) for t in (20, 50))
        assert np.max(np.abs(a - b)) > 1e-6
        equal = WeightSequence.equal(120, n_regions, l)
        a, b = (oirf_point(stack_system(fit, equal, t), (6,), 4) for t in (20, 50))
        np.testing.assert_array_equal(a, b)

    def test_zero_coupling_reduces_to_univariate_ar(self, rng):
        # with all couplings zero the reduced-form simulation equals
        # independent univariate AR(1) paths
        t_len = 60
        weights = WeightSequence.equal(t_len, 2, 1)
        coeffs = random_coefficients(rng, 2, 1, 1, scale=0.0)
        x0 = rng.standard_normal(3)
        x = simulate_structural(coeffs, weights, x0, 2, 1, 1)
        phis = [coeffs["phi"][0][0, 0], coeffs["phi"][1][0, 0], coeffs["phib"][0]]
        cons = [coeffs["ak"][0][0], coeffs["ak"][1][0], coeffs["am"][0]]
        for j in range(3):
            path = np.empty(t_len)
            path[0] = x0[j]
            for t in range(1, t_len):
                path[t] = cons[j] + phis[j] * path[t - 1]
            np.testing.assert_allclose(x[:, j], path, atol=1e-12)


class TestMACoefficients:
    def test_diagonal_recursion(self):
        mas = ma_coefficients(0.5 * np.eye(2), 2)
        np.testing.assert_array_equal(mas[0], np.eye(2))
        np.testing.assert_array_equal(mas[1], 0.5 * np.eye(2))
        np.testing.assert_array_equal(mas[2], 0.25 * np.eye(2))

    def test_horizon_zero(self, rng):
        f1 = rng.standard_normal((4, 4))
        mas = ma_coefficients(f1, 0)
        assert mas.shape == (1, 4, 4)
        np.testing.assert_array_equal(mas[0], np.eye(4))

    def test_matches_repeated_multiplication(self):
        f1 = np.array([[0.5, 0.1], [0.0, 0.4]])
        mas = ma_coefficients(f1, 3)
        power = np.eye(2)
        for s in range(4):
            np.testing.assert_allclose(mas[s], power, atol=1e-15)
            power = f1 @ power

    def test_stable_norms_eventually_decreasing(self, rng):
        from conftest import random_stable_system
        system = random_stable_system(rng, 4)
        mas = ma_coefficients(system.f1, 30)
        norms = [np.linalg.norm(m, 2) for m in mas]
        tail = norms[8:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValidationError):
            ma_coefficients(np.eye(2), -1)


class TestStability:
    # a system is stable iff its spectral radius is strictly below 1
    def test_half_identity(self):
        radius = spectral_radius(0.5 * np.eye(3))
        assert radius == pytest.approx(0.5)
        assert radius < 1.0

    def test_identity_not_stable(self):
        radius = spectral_radius(np.eye(2))
        assert radius == pytest.approx(1.0)
        assert not radius < 1.0

    def test_explosive_ar(self):
        radius = spectral_radius(np.array([[1.2]]))
        assert radius == pytest.approx(1.2)
        assert not radius < 1.0

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square matrix"):
            spectral_radius(np.ones((2, 3)))


@pytest.mark.parametrize("n_regions, p, l", SHAPES, ids=SHAPE_IDS)
def test_coefficients_json_round_trip(tmp_path, rng, n_regions, p, l):
    weights, panel = simulated_panel(rng, n_regions, p, l)
    fit = estimate_structural(panel, weights)
    path = tmp_path / "coef.json"
    write_coefficients_json(fit, panel, path)
    loaded = read_coefficients_json(path)
    assert loaded.dims == fit.dims
    assert loaded.columns == fit.columns
    np.testing.assert_array_equal(loaded.sigma_u, fit.sigma_u)
    assert loaded.equations == fit.equations
    # the file is a view of the equations: writing them back gives its bytes
    again = tmp_path / "again.json"
    write_coefficients_json(loaded, panel, again)
    assert again.read_bytes() == path.read_bytes()
    system_a = stack_system(fit, weights, 10)
    system_b = stack_system(loaded, weights, 10)
    np.testing.assert_array_equal(system_a.f1, system_b.f1)
