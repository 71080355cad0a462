import itertools
import tracemalloc

import numpy as np
import pytest

from tvpgvar import (
    ForecasterConfig,
    TVPConfig,
    align_frequencies,
    estimate_all,
    forecast_constant,
    forecast_lasso,
    forecast_var1,
    lasso_fit,
    load_panel,
    mse_per_series,
    select_model,
    two_stage_forecast,
)
from tvpgvar.errors import NumericalError, ValidationError
from tvpgvar.forecast import (
    ForecastResult, _lag_design, _lasso_inputs, _lasso_path, _original_scale, _stack,
    _standardize, pooled_mse, read_mse_report, read_variable_paths, select_lasso_lambda,
    write_mse_report, write_param_paths, write_variable_paths,
)
from tvpgvar.sample import (ACTIVITY, MONTHLY_VARIABLES, QUARTERLY_VARIABLE, REGIONS,
                            write_sample_csv)
from tvpgvar.tvp import PanelTVPResult, read_trajectories

from conftest import make_panel
from oracles import lag_design, lasso_cd, lasso_objective, select_lasso_lambda_cube


STALL = "lasso path took more than 3 events between two grid penalties"


def stall_problem(monkeypatch, call, row):
    """Make problem ``row`` of the ``call``-th ``_lasso_path`` batch stall: its
    solutions stay zero and it is reported, as the solver does on a stall."""
    import tvpgvar.forecast as forecast_module

    calls = itertools.count()
    lasso_path = forecast_module._lasso_path

    def stalling(problems, lams):
        betas, failed = lasso_path(problems, lams)
        if next(calls) == call:
            betas[:, row] = 0.0
            failed[row] = STALL
        return betas, failed

    monkeypatch.setattr(forecast_module, "_lasso_path", stalling)


def chosen_penalties(stack, config):
    """Each series' cross-validated penalty: its grid at the chosen position."""
    x, y, _, grids = _lasso_inputs(stack, config)
    return grids[np.arange(grids.shape[0]), select_lasso_lambda(x, y, grids, config.cv_folds)[0]]


def orthonormal_design(rng, n, n_feat):
    """Zero-mean columns with (1/n) X'X = I, so the lasso solution is the
    soft-thresholded per-column OLS."""
    raw = np.column_stack([np.ones(n), rng.standard_normal((n, n_feat))])
    q, _ = np.linalg.qr(raw)
    return q[:, 1:] * np.sqrt(n)


class TestLassoFit:
    def test_zero_penalty_matches_ols(self, rng):
        x = rng.standard_normal((200, 5))
        y = x @ np.array([1.0, -2.0, 0.5, 0.0, 3.0]) + 0.1 * rng.standard_normal(200)
        fit = lasso_fit(x, y, lam=0.0)
        design = np.column_stack([np.ones(200), x])
        ols = np.linalg.lstsq(design, y, rcond=None)[0]
        np.testing.assert_allclose(fit.intercept, ols[0], atol=1e-6)
        np.testing.assert_allclose(fit.coef, ols[1:], atol=1e-6)

    def test_orthonormal_soft_threshold(self, rng):
        n, n_feat = 400, 6
        x = orthonormal_design(rng, n, n_feat)
        beta = np.array([2.0, -1.5, 0.8, 0.05, 0.0, -0.02])
        y = x @ beta + 0.05 * rng.standard_normal(n)
        lam = 0.3
        fit = lasso_fit(x, y, lam)
        yc = y - y.mean()
        z = x.T @ yc / n  # per-column OLS on the orthonormal design
        col_ss = np.einsum("ij,ij->j", x - x.mean(0), x - x.mean(0)) / n
        scale = np.sqrt(col_ss)
        z_std = (x - x.mean(0)).T @ yc / n / scale
        expected_std = np.sign(z_std) * np.maximum(np.abs(z_std) - lam, 0.0)
        np.testing.assert_allclose(fit.coef * scale, expected_std, atol=1e-8)
        # raw-scale sanity: matches soft threshold of the raw projections too
        expected_raw = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
        np.testing.assert_allclose(fit.coef, expected_raw, atol=1e-6)

    def test_lambda_max_gives_zero_solution(self, rng):
        x = rng.standard_normal((120, 4))
        y = rng.standard_normal(120) + x[:, 1]
        lam_max = _standardize(x, y).lam_max
        for lam in (lam_max, 1.5 * lam_max):
            fit = lasso_fit(x, y, lam)
            np.testing.assert_array_equal(fit.coef, 0.0)
            assert fit.intercept == pytest.approx(y.mean())

    # The ceiling and the sweeps round differently under some BLAS builds, so
    # one seed cannot pin the boundary down: sweep seeds and shapes.
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n, n_feat", [(30, 2), (120, 4), (97, 6), (400, 11)])
    def test_lambda_max_zero_across_seeds_and_shapes(self, seed, n, n_feat):
        rng = np.random.default_rng([seed, n, n_feat])
        x = rng.standard_normal((n, n_feat)) * rng.uniform(0.1, 10.0, n_feat)
        y = rng.standard_normal(n) + x @ rng.standard_normal(n_feat)
        fit = lasso_fit(x, y, _standardize(x, y).lam_max)
        np.testing.assert_array_equal(fit.coef, 0.0)
        assert fit.intercept == y.mean()

    @pytest.mark.parametrize("seed", range(8))
    def test_lambda_max_zero_with_constant_column(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((80, 5))
        x[:, 2] = 1.7
        y = rng.standard_normal(80) + x[:, 0] - x[:, 4]
        fit = lasso_fit(x, y, _standardize(x, y).lam_max)
        np.testing.assert_array_equal(fit.coef, 0.0)

    def test_path_continuity_with_warm_starts(self, rng):
        x = rng.standard_normal((200, 5))
        y = x @ np.array([1.0, 0.5, -0.7, 0.0, 0.2]) + 0.2 * rng.standard_normal(200)
        lam_max = _standardize(x, y).lam_max
        grid = np.geomspace(lam_max, 1e-3 * lam_max, 30)
        coefs = np.array([lasso_fit(x, y, lam).coef * x.std(axis=0) for lam in grid])
        steps = np.abs(np.diff(grid))
        jumps = np.max(np.abs(np.diff(coefs, axis=0)), axis=1)
        # measured Lipschitz-style bound on this fixed data
        assert np.all(jumps <= 50 * steps)

    def test_constant_column_gets_zero_coefficient(self, rng):
        x = np.column_stack([np.full(50, 3.0), rng.standard_normal(50)])
        y = 2.0 * x[:, 1] + 1.0
        fit = lasso_fit(x, y, lam=0.0)
        assert fit.coef[0] == 0.0
        np.testing.assert_allclose(fit.coef[1], 2.0, atol=1e-8)
        np.testing.assert_allclose(fit.intercept, 1.0, atol=1e-8)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            lasso_fit(np.array([[np.nan, 1.0]]), np.array([1.0]), 0.1)

    def test_stalled_path_raises(self, rng, monkeypatch):
        # the one-problem call has no other series to go on with
        stall_problem(monkeypatch, 0, 0)
        with pytest.raises(NumericalError, match=f"^{STALL}$"):
            lasso_fit(rng.standard_normal((40, 3)), rng.standard_normal(40), 0.01)


class TestForecastConstant:
    def test_repeats_last_row(self):
        theta = np.array([[0.1, 0.2], [0.3, 0.5]])
        out, failed = forecast_constant(theta, ForecasterConfig(horizon=6))
        assert failed == {}
        assert out.shape == (6, 2)
        np.testing.assert_array_equal(out, np.tile([0.3, 0.5], (6, 1)))

    def test_single_step_equals_last_row(self, rng):
        theta = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(
            forecast_constant(theta, ForecasterConfig(horizon=1))[0][0], theta[-1])

    def test_invariant_to_history_before_last_row(self, rng):
        theta_a = rng.standard_normal((10, 2))
        theta_b = rng.standard_normal((10, 2))
        theta_b[-1] = theta_a[-1]
        config = ForecasterConfig(horizon=4)
        np.testing.assert_array_equal(forecast_constant(theta_a, config)[0],
                                      forecast_constant(theta_b, config)[0])


class TestForecastVar1:
    def test_exact_on_noise_free_var(self, rng):
        dim = 3
        slope = np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]])
        intercept = np.array([0.2, -0.1, 0.05])
        t_len = 50
        series = np.empty((t_len, dim))
        series[0] = rng.standard_normal(dim)
        for t in range(1, t_len):
            series[t] = intercept + slope @ series[t - 1]
        horizon = 8
        out, failed = forecast_var1(series, ForecasterConfig(kind="var1", horizon=horizon))
        assert failed == {}
        expected = np.empty((horizon, dim))
        state = series[-1]
        for s in range(horizon):
            state = intercept + slope @ state
            expected[s] = state
        np.testing.assert_allclose(out, expected, atol=1e-8)

    def test_white_noise_converges_to_mean(self, rng):
        series = rng.standard_normal((400, 2)) + np.array([1.0, -2.0])
        out, _ = forecast_var1(series, ForecasterConfig(kind="var1", horizon=60))
        np.testing.assert_allclose(out[-1], series.mean(axis=0), atol=0.3)
        gap_start = np.abs(out[0] - series.mean(axis=0))
        gap_end = np.abs(out[-1] - series.mean(axis=0))
        assert np.all(gap_end <= gap_start + 1e-12)

    def test_single_column_reduces_to_ar1(self, rng):
        y = np.empty(80)
        y[0] = 0.3
        for t in range(1, 80):
            y[t] = 0.4 + 0.6 * y[t - 1] + 0.05 * rng.standard_normal()
        out, _ = forecast_var1(y[:, None], ForecasterConfig(kind="var1", horizon=5))
        design = np.column_stack([np.ones(79), y[:-1]])
        coef = np.linalg.lstsq(design, y[1:], rcond=None)[0]
        state = y[-1]
        for s in range(5):
            state = coef[0] + coef[1] * state
            assert out[s, 0] == pytest.approx(state, abs=1e-10)

    def test_too_short_rejected(self, rng):
        with pytest.raises(ValidationError, match="at least"):
            forecast_var1(rng.standard_normal((5, 4)), ForecasterConfig(kind="var1", horizon=3))

    @pytest.fixture(scope="class")
    def sample_paths(self, tmp_path_factory):
        """The stacked (b, f1) training paths of the sample, as the forecast
        stage hands them to the VAR(1) at the sample's horizon."""
        path = write_sample_csv(tmp_path_factory.mktemp("sample") / "sample_panel.csv")
        panel = align_frequencies(load_panel(path), regions=REGIONS,
                                  variables=MONTHLY_VARIABLES + (QUARTERLY_VARIABLE,),
                                  activities=(ACTIVITY,))
        train = panel.slice_rows(0, len(panel.time_index) - 6)
        fitted = estimate_all(train, TVPConfig(iters=50, seed=7))
        return fitted.theta.transpose(1, 0, 2).reshape(fitted.theta.shape[1], -1)

    @pytest.mark.parametrize("factor", [1e-12, 1e-6, 1e6, 1e12])
    def test_rescaled_column(self, sample_paths, factor):
        # the rank test and the solve are unit-free: scaling one series scales
        # its forecast and leaves every other series' forecast as it was
        config = ForecasterConfig(kind="var1", horizon=6)
        want, _ = forecast_var1(sample_paths, config)
        for j in range(sample_paths.shape[1]):
            scale = np.ones(sample_paths.shape[1])
            scale[j] = factor
            got, failed = forecast_var1(sample_paths * scale, config)
            assert failed == {}
            err = np.abs(got / scale - want)
            assert np.all(err <= 1e-8 * np.max(np.abs(want), axis=0)), j


class TestBatchedSolver:
    """The batched path solver against the scalar residual-form oracle, with
    problems of every kind in one batch, and against the optimality (KKT)
    conditions."""

    # (penalty as a share of the ceiling, zero-variance column)
    KINDS = [(0.3, False), (0.05, True), (1.0, False), (1.5, True), (0.001, False),
             (0.0, False)]

    def mixed_batch(self, seed, n, n_feat):
        rng = np.random.default_rng([seed, n, n_feat])
        xs, ys, lams = [], [], []
        for share, constant in self.KINDS:
            x = rng.standard_normal((n, n_feat)) * rng.uniform(0.1, 10.0, n_feat)
            if constant:
                x[:, -1] = 2.5
            y = x @ rng.standard_normal(n_feat) + rng.standard_normal(n)
            xs.append(x)
            ys.append(y)
            lams.append(share * _standardize(x, y).lam_max)
        return xs, ys, np.array(lams)

    @staticmethod
    def kkt_violation(problems, lams, betas):
        """Worst optimality violation of the path solutions (grid, B, p) at
        the (B, grid) penalties, relative to each positive penalty: an active
        gradient must equal ``lam`` times the coefficient's sign, an inactive
        live one must not exceed ``lam`` in size."""
        grad = problems.corr - np.einsum("bij,gbj->gbi", problems.gram, betas)
        lam = lams.T[..., None]
        on = np.abs(grad - lam * np.sign(betas))
        off = np.maximum(np.abs(grad) - lam, 0.0)
        worst = np.where(betas != 0.0, on, np.where(problems.live, off, 0.0))
        return float(np.max(worst[lams.T > 0] / lam[lams.T > 0]))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n, n_feat", [(30, 2), (120, 4), (97, 6), (400, 11)])
    def test_mixed_batch_matches_oracle(self, seed, n, n_feat):
        xs, ys, lams = self.mixed_batch(seed, n, n_feat)
        problems = _stack([_standardize(x, y) for x, y in zip(xs, ys)])
        betas, failed = _lasso_path(problems, lams[:, None])
        assert failed == {}
        coefs, intercepts = _original_scale(problems, betas[0])
        for b, (x, y, lam) in enumerate(zip(xs, ys, lams)):
            coef, intercept, *_ = lasso_cd(x, y, lam, tol=1e-12)
            scale = x.std(axis=0)
            np.testing.assert_allclose(coefs[b] * scale, coef * scale, rtol=0, atol=1e-8)
            assert abs(intercepts[b] - intercept) <= 1e-8 * max(1.0, abs(intercept))
            assert (lasso_objective(x, y, lam, coefs[b], intercepts[b])
                    <= lasso_objective(x, y, lam, coef, intercept) + 1e-12)
            if lam >= _standardize(x, y).lam_max:
                np.testing.assert_array_equal(coefs[b], 0.0)
                assert intercepts[b] == y.mean()

    @pytest.mark.parametrize("lag_window, cv_folds", [(3, 3), (6, 5), (8, 5)])
    def test_kkt_certificate_on_random_walk_lags(self, rng, lag_window, cv_folds):
        # lags of random walks are near-collinear, like the sampler's paths;
        # every (fold problem, grid penalty) of the CV's batch is certified
        config = ForecasterConfig(kind="lasso", lag_window=lag_window, cv_folds=cv_folds)
        stack = np.cumsum(rng.standard_normal((40, 200)), axis=1) * rng.uniform(1e-3, 10, (40, 1))
        _, _, _, grids = _lasso_inputs(stack, config)
        x, y = _lag_design(stack, lag_window)
        split = y.shape[1] // 2
        problems = _stack([_standardize(x[s, :split], y[s, :split]) for s in range(40)])
        betas, failed = _lasso_path(problems, grids)
        assert failed == {}
        assert self.kkt_violation(problems, grids, betas) <= 1e-9

    def test_singular_support_stays_in_the_batch(self):
        # an exact copy of a column never joins the path once its twin is
        # active (its gradient moves with the penalty, where round-off alone
        # would give a 0/0 join time), so the active system stays regular;
        # each such problem's neighbour in the batch still matches the oracle
        designs, targets = [], []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((80, 4))
            x[:, 1] = x[:, 0]
            y = x @ np.array([1.0, 1.0, -0.5, 0.2]) + 0.1 * rng.standard_normal(80)
            x_ok = x.copy()
            x_ok[:, 1] = rng.standard_normal(80)
            designs += [x, x_ok]
            targets += [y, y]
        problems = _stack([_standardize(x, y) for x, y in zip(designs, targets)])
        lams = 0.01 * problems.lam_max
        betas, failed = _lasso_path(problems, lams[:, None])
        assert failed == {}
        beta = betas[0]
        assert np.all(np.isfinite(beta))
        assert np.all(np.count_nonzero(beta[::2, :2], axis=1) == 1)
        assert self.kkt_violation(problems, lams[:, None], beta[None]) <= 1e-9
        coef, intercept = _original_scale(problems, beta)
        for b, (x, y, lam) in enumerate(zip(designs, targets, lams)):
            oracle = lasso_cd(x, y, lam, tol=1e-12)
            assert (lasso_objective(x, y, lam, coef[b], intercept[b])
                    <= lasso_objective(x, y, lam, oracle[0], oracle[1]) + 1e-10)
            if b % 2:
                np.testing.assert_allclose(coef[b], oracle[0], rtol=0, atol=1e-8)

    def test_stack_matches_one_series_at_a_time(self, rng):
        config = ForecasterConfig(kind="lasso", horizon=4, lag_window=3, cv_folds=3,
                                  grid_size=20)
        stack = np.cumsum(rng.standard_normal((5, 80)), axis=1) * 0.1
        lams = chosen_penalties(stack, config)
        assert lams.shape == (5,)
        assert [chosen_penalties(row[None], config)[0] for row in stack] == list(lams)
        np.testing.assert_allclose(
            forecast_lasso(stack.T, config)[0],
            np.hstack([forecast_lasso(row[:, None], config)[0] for row in stack]),
            rtol=0, atol=1e-12)

    def test_penalty_grids_match_per_series_geomspace(self, rng):
        # one geomspace call over the stack gives each series' own path from
        # its ceiling, bit for bit, and zeros for a constant series, also for
        # a constant like 4.2 whose computed sd is rounding noise, not zero
        config = ForecasterConfig(kind="lasso", lag_window=3, cv_folds=3, grid_size=20)
        stack = np.cumsum(rng.standard_normal((6, 60)), axis=1) * rng.uniform(0.01, 100, (6, 1))
        stack[2] = 1.0
        stack[4] = 4.2
        x, y, problems, grids = _lasso_inputs(stack, config)
        for s in range(stack.shape[0]):
            lam_max = _standardize(x[s], y[s]).lam_max
            assert problems.lam_max[s] == lam_max
            expected = (np.zeros(20) if lam_max == 0
                        else np.geomspace(lam_max, lam_max * config.grid_floor, 20))
            np.testing.assert_array_equal(grids[s], expected)
        np.testing.assert_array_equal(grids[[2, 4]], 0.0)

    def test_one_standardization_per_problem(self, rng, monkeypatch):
        # the CV's (series, fold) problems plus one full-sample problem per
        # series, which gives both the penalty grid and the fit
        import tvpgvar.forecast as forecast_module

        calls = []
        standardize = forecast_module._standardize

        def counted(x, y):
            calls.append(x.shape)
            return standardize(x, y)

        monkeypatch.setattr(forecast_module, "_standardize", counted)
        config = ForecasterConfig(kind="lasso", horizon=4, lag_window=3, cv_folds=3,
                                  grid_size=20)
        forecast_lasso(np.cumsum(rng.standard_normal((4, 80)), axis=1).T, config)
        assert len(calls) == 4 * (config.cv_folds + 1)

    @pytest.mark.parametrize("seed", range(30))
    def test_picks_match_cube_scoring(self, seed):
        # scoring one penalty at a time sums each score in the cube's order;
        # every third batch keeps cv_folds rows, where one fold's bounds
        # collapse, and every third a single row, where no fold is left
        rng = np.random.default_rng(seed)
        config = ForecasterConfig(kind="lasso", lag_window=int(rng.integers(1, 8)),
                                  cv_folds=int(rng.integers(2, 6)),
                                  grid_size=int(rng.integers(5, 61)))
        stack = np.cumsum(rng.standard_normal((6, 40 + 5 * seed)), axis=1)
        stack *= rng.uniform(1e-3, 10, (6, 1))
        stack[seed % 6] = 4.2
        x, y, _, grids = _lasso_inputs(stack, config)
        rows = (y.shape[1], config.cv_folds, 1)[seed % 3]
        picks, stalled = select_lasso_lambda(x[:, :rows], y[:, :rows], grids, config.cv_folds)
        expected, expected_stalled = select_lasso_lambda_cube(
            x[:, :rows], y[:, :rows], grids, config.cv_folds)
        np.testing.assert_array_equal(picks, expected)
        assert stalled == expected_stalled

    def test_holds_one_penalty_at_a_time(self, rng):
        # the sample's lasso settings on 20 paths; the CV may hold its designs,
        # the fold problems, the solutions in both scales and one (series,
        # rows) residual block, not a (grid, series, rows) cube per fold
        config = ForecasterConfig(kind="lasso", lag_window=6, cv_folds=2, grid_size=25)
        x, y, _, grids = _lasso_inputs(np.cumsum(rng.standard_normal((20, 250)), axis=1), config)
        select_lasso_lambda(x, y, grids, config.cv_folds)  # numpy's caches
        n_series, n, lags = x.shape
        n_problems = config.cv_folds * n_series
        # gram, mean, scale, corr, ybar and lam_max in doubles, live in bools
        problems = n_problems * (lags * lags + 3 * lags + 2) * 8 + n_problems * lags
        betas = config.grid_size * n_problems * lags * 8
        block = n_series * -(-n // (config.cv_folds + 1)) * 8
        tracemalloc.start()
        try:
            select_lasso_lambda(x, y, grids, config.cv_folds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes + problems + 2 * betas + block


class TestForecastLasso:
    def test_noise_free_ar_continuation(self):
        t_len = 120
        y = np.empty(t_len)
        y[0] = 2.0
        for t in range(1, t_len):
            y[t] = 0.9 * y[t - 1]
        config = ForecasterConfig(kind="lasso", horizon=6, lag_window=1, cv_folds=3,
                                  grid_size=40, grid_floor=1e-10)
        out = forecast_lasso(y[:, None], config)[0][:, 0]
        expected = y[-1] * 0.9 ** np.arange(1, 7)
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_constant_series_intercept_only(self):
        y = np.full(60, 4.2)
        config = ForecasterConfig(kind="lasso", horizon=5, lag_window=3, cv_folds=3)
        out, failed = forecast_lasso(y[:, None], config)
        assert failed == {}
        np.testing.assert_allclose(out, 4.2, atol=1e-12)

    def test_deterministic(self, rng):
        y = np.cumsum(rng.standard_normal((1, 90)), axis=1) * 0.1 + 1.0
        config = ForecasterConfig(kind="lasso", horizon=4, lag_window=4, cv_folds=4)
        a, _ = forecast_lasso(y.T, config)
        b, _ = forecast_lasso(y.T, config)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(chosen_penalties(y, config), chosen_penalties(y, config))

    def test_series_too_short(self):
        config = ForecasterConfig(kind="lasso", horizon=2, lag_window=6, cv_folds=5)
        with pytest.raises(ValidationError, match="too short"):
            forecast_lasso(np.ones((11, 1)), config)

    def test_one_series_needs_a_stack(self):
        config = ForecasterConfig(kind="lasso", horizon=2, lag_window=3, cv_folds=3)
        with pytest.raises(ValidationError, match=r"\(series, time\) stack"):
            forecast_lasso(np.ones(40), config)

    @pytest.mark.parametrize("settings, message", [
        ({"grid_size": 0}, "forecast.grid_size must be >= 1"),
        ({"grid_floor": 0.0}, r"forecast.grid_floor must be in \(0, 1\)"),
        ({"grid_floor": -1.0}, r"forecast.grid_floor must be in \(0, 1\)"),
        ({"grid_floor": 1.0}, r"forecast.grid_floor must be in \(0, 1\)"),
        ({"grid_floor": 2.0}, r"forecast.grid_floor must be in \(0, 1\)"),
        ({"grid_floor": float("nan")}, r"forecast.grid_floor must be in \(0, 1\)"),
        ({"kind": "bogus"}, "unknown forecaster kind 'bogus'"),
        ({"kind": "external"}, "needs a predicted-path CSV"),
    ])
    def test_config_validation(self, settings, message):
        with pytest.raises(ValidationError, match=message):
            ForecasterConfig(**settings)

    def test_path_solution_is_the_refit_at_the_chosen_penalty(self, rng):
        # the forecast uses the full-sample path's solution at each chosen
        # penalty; a lasso_fit solve there, started from zero, forecasts the same
        h = 6
        walks = np.cumsum(rng.standard_normal((6, 90)), axis=1) * 0.1
        # noise-free, so every lag vector lies in a plane: a degenerate design
        sinusoid = 1.0 + np.sin(0.3 * np.arange(120))[None, :]
        for stack, lag_window in ((walks, 4), (sinusoid, 6)):
            config = ForecasterConfig(kind="lasso", horizon=h, lag_window=lag_window,
                                      cv_folds=3, grid_size=30)
            expected = np.empty((stack.shape[0], h))
            for s, row in enumerate(stack):
                x, y = lag_design(row, lag_window)
                fit = lasso_fit(x, y, chosen_penalties(row[None], config)[0])
                window = list(row[::-1][:lag_window])  # most recent first
                for step in range(h):
                    expected[s, step] = fit.intercept + fit.coef @ np.array(window)
                    window = [expected[s, step]] + window[:-1]
            np.testing.assert_allclose(forecast_lasso(stack.T, config)[0], expected.T,
                                       rtol=0, atol=1e-12)


def trajectories_from_paths(theta_per_column, errors=None, sigma2=0.01):
    """The sampler's result for plain coefficient paths, one per column; a
    None path is a failed column, a row of NaN in every array."""
    n = next(len(theta) for theta in theta_per_column if theta is not None)
    failed = np.array([theta is None for theta in theta_per_column])
    theta = np.array([np.full((n, 2), np.nan) if path is None else path
                      for path in theta_per_column], float)
    return PanelTVPResult(theta0=theta[:, 0].copy(),
                          sqrt_omega=np.where(failed[:, None], np.nan, np.ones(2)),
                          theta=theta, sigma2=np.where(failed, np.nan, sigma2),
                          errors=errors or {})


class TestTwoStageForecast:
    def test_constant_parameters_exact_ar_continuation(self, rng):
        t_len, h = 60, 6
        b_true, f_true = 0.4, 0.7
        y = np.empty(t_len)
        y[0] = b_true / (1 - f_true)
        for t in range(1, t_len):
            y[t] = b_true + f_true * y[t - 1]
        panel = make_panel(y[:, None], ["A"], ["v1"])
        theta = np.tile([b_true, f_true], (t_len - 1, 1))
        tvp_result = trajectories_from_paths([theta])
        config = ForecasterConfig(kind="constant", horizon=h)
        result = two_stage_forecast(panel, tvp_result, config)
        expected = np.empty(h)
        state = y[-1]
        for s in range(h):
            state = b_true + f_true * state
            expected[s] = state
        np.testing.assert_allclose(result.variable_paths[:, 0], expected, atol=1e-12)

    def test_zero_slope_gives_intercept_path(self, rng):
        t_len, h = 40, 4
        y = rng.standard_normal(t_len)
        panel = make_panel(y[:, None], ["A"], ["v1"])
        theta = np.column_stack([np.linspace(0.5, 0.8, t_len - 1),
                                 np.zeros(t_len - 1)])
        tvp_result = trajectories_from_paths([theta])
        result = two_stage_forecast(panel, tvp_result,
                                    ForecasterConfig(kind="constant", horizon=h))
        np.testing.assert_allclose(result.variable_paths[:, 0], 0.8, atol=1e-12)

    def test_mse_against_actuals(self, rng):
        t_len, h = 50, 3
        values = rng.standard_normal((t_len, 2))
        panel = make_panel(values[:-h], ["A"], ["x", "y"])
        theta = np.tile([0.0, 0.5], (t_len - h - 1, 1))
        tvp_result = trajectories_from_paths([theta, theta])
        result = two_stage_forecast(panel, tvp_result,
                                    ForecasterConfig(kind="constant", horizon=h))
        scores = mse_per_series(result, values[-h:])
        assert set(scores) == {"A.x", "A.y"}
        for i, name in enumerate(["A.x", "A.y"]):
            assert scores[name] == pytest.approx(
                np.mean((values[-h:, i] - result.variable_paths[:, i]) ** 2))

    def test_var1_stage_one_matches_direct_fit(self, rng):
        t_len, h = 80, 4
        values = rng.standard_normal((t_len, 2))
        panel = make_panel(values, ["A"], ["x", "y"])
        paths = [0.1 * np.cumsum(rng.standard_normal((t_len - 1, 2)), axis=0) + [0.2, 0.5],
                 0.1 * np.cumsum(rng.standard_normal((t_len - 1, 2)), axis=0) + [-0.1, 0.3]]
        tvp_result = trajectories_from_paths(paths)
        result = two_stage_forecast(panel, tvp_result,
                                    ForecasterConfig(kind="var1", horizon=h))
        assert not result.errors
        # stage one is the joint VAR(1) on the stacked parameter series
        expected, _ = forecast_var1(np.hstack(paths), ForecasterConfig(kind="var1", horizon=h))
        np.testing.assert_allclose(result.param_paths[:, 0, :], expected[:, 0:2],
                                   atol=1e-12)
        np.testing.assert_allclose(result.param_paths[:, 1, :], expected[:, 2:4],
                                   atol=1e-12)

    def test_external_paths(self, tmp_path, rng):
        from tvpgvar.serialize import write_csv
        t_len, h = 30, 2
        y = rng.standard_normal((t_len, 1))
        panel = make_panel(y, ["A"], ["v1"])
        rows = [["2002-07", "A.v1", 0.1, 0.6], ["2002-08", "A.v1", 0.2, 0.5]]
        path = tmp_path / "external.csv"
        write_csv(path, ["date", "column", "b", "f1"], rows)
        theta = np.tile([0.0, 0.0], (t_len - 1, 1))
        tvp_result = trajectories_from_paths([theta])
        config = ForecasterConfig(kind="external", horizon=h, external_path=path)
        result = two_stage_forecast(panel, tvp_result, config, paths=read_trajectories(path))
        assert not result.errors
        with pytest.raises(ValidationError, match="external_path"):
            two_stage_forecast(panel, tvp_result, config)
        np.testing.assert_allclose(result.param_paths[:, 0, 0], [0.1, 0.2])
        expected_1 = 0.1 + 0.6 * y[-1, 0]
        expected_2 = 0.2 + 0.5 * expected_1
        np.testing.assert_allclose(result.variable_paths[:, 0],
                                   [expected_1, expected_2], atol=1e-12)

    def test_external_wrong_dates_recorded_as_error(self, tmp_path, rng):
        from tvpgvar.serialize import write_csv
        y = np.random.default_rng(0).standard_normal((30, 1))
        panel = make_panel(y, ["A"], ["v1"])
        path = tmp_path / "external.csv"
        write_csv(path, ["date", "column", "b", "f1"],
                  [["1999-01", "A.v1", 0.1, 0.6], ["1999-02", "A.v1", 0.1, 0.5]])
        tvp_result = trajectories_from_paths([np.zeros((29, 2))])
        config = ForecasterConfig(kind="external", horizon=2, external_path=path)
        result = two_stage_forecast(panel, tvp_result, config, paths=read_trajectories(path))
        assert "A.v1" in result.errors
        assert np.all(np.isnan(result.variable_paths[:, 0]))

    def test_lasso_two_stage_runs(self, rng):
        t_len, h = 90, 3
        y = np.cumsum(rng.standard_normal((t_len, 1)), axis=0) * 0.05 + 1.0
        panel = make_panel(y, ["A"], ["v1"])
        drift = np.linspace(0.2, 0.6, t_len - 1)
        theta = np.column_stack([np.full(t_len - 1, 0.1), drift])
        tvp_result = trajectories_from_paths([theta])
        config = ForecasterConfig(kind="lasso", horizon=h, lag_window=4, cv_folds=4)
        result = two_stage_forecast(panel, tvp_result, config)
        assert not result.errors
        assert np.all(np.isfinite(result.variable_paths))
        # the drifting slope path should keep drifting upward-ish
        assert result.param_paths[-1, 0, 1] > 0.5

    @pytest.mark.parametrize("kind", ["constant", "var1", "lasso"])
    def test_failed_sampler_column_refused(self, rng, kind):
        # stage one takes a complete sampler result: failed columns are
        # refused by name before any forecaster runs
        t_len, h = 80, 4
        values = rng.standard_normal((t_len, 3))
        panel = make_panel(values, ["A", "B", "C"], ["v1"])
        theta = 0.1 * np.cumsum(rng.standard_normal((t_len - 1, 2)), axis=0) + [0.2, 0.5]
        tvp_result = trajectories_from_paths(
            [None, theta, None], {"A.v1": "iteration 3: residuals are not finite",
                                  "C.v1": "iteration 7: no factor"})
        with pytest.raises(ValidationError, match=r"^sampler failed for columns: A\.v1, C\.v1$"):
            two_stage_forecast(panel, tvp_result, ForecasterConfig(kind=kind, horizon=h))

    def test_rank_deficient_var1_fails_every_usable_column(self, rng):
        # two constant parameter paths leave the VAR(1) design rank-deficient:
        # the method fails as a whole, each column with that reason and no
        # score, and pooled_mse leaves the method out. The ALL score is the
        # mean of each series' MSE over its training-window variance
        t_len, h = 40, 3
        values = rng.standard_normal((t_len, 2))
        panel = make_panel(values[:-h], ["A", "B"], ["v1"])
        theta = np.tile([0.2, 0.5], (t_len - h - 1, 1))
        tvp_result = trajectories_from_paths([theta, theta])
        results = {kind: two_stage_forecast(panel, tvp_result,
                                            ForecasterConfig(kind=kind, horizon=h))
                   for kind in ("constant", "var1")}
        scored = {kind: mse_per_series(result, values[-h:]) for kind, result in results.items()}
        assert results["var1"].errors == {
            "A.v1": "rank-deficient design in parameter VAR(1)",
            "B.v1": "rank-deficient design in parameter VAR(1)"}
        assert scored["var1"] == {}
        assert np.all(np.isnan(results["var1"].variable_paths))
        assert set(scored["constant"]) == {"A.v1", "B.v1"}
        scores = scored["constant"]
        assert pooled_mse(scored, panel) == {"constant": pytest.approx(np.mean(
            [scores[name] / np.std(values[:-h, i]) ** 2 for i, name in enumerate(scores)]))}

    @pytest.mark.parametrize("call, row, reason", [
        (0, 2 * 6 + 3, "f1 series of B.v1: "),
        (1, 2, "b series of B.v1: "),
    ], ids=["fold", "full-sample"])
    def test_lasso_stall_fails_only_its_series(self, rng, monkeypatch, call, row, reason):
        # a stalled path in any fold or in the full-sample fit of one of
        # column B's two series drops B alone; the series are b_0, f_0, b_1, ...
        # and the CV batch is fold-major, so row 2 * 6 + 3 is fold 2's f_1
        t_len, h = 90, 3
        y = np.cumsum(rng.standard_normal((t_len, 3)), axis=0) * 0.05 + 1.0
        panel = make_panel(y, ["A", "B", "C"], ["v1"])
        paths = [np.column_stack([np.full(t_len - 1, 0.1), np.linspace(0.2, 0.6, t_len - 1)])
                 + 0.01 * np.cumsum(rng.standard_normal((t_len - 1, 2)), axis=0)
                 for _ in range(3)]
        config = ForecasterConfig(kind="lasso", horizon=h, lag_window=4, cv_folds=4)
        clean = two_stage_forecast(panel, trajectories_from_paths(paths), config)
        assert not clean.errors
        stall_problem(monkeypatch, call, row)
        result = two_stage_forecast(panel, trajectories_from_paths(paths), config)
        assert result.errors == {"B.v1": reason + STALL}
        assert np.all(np.isnan(result.param_paths[:, 1]))
        assert np.all(np.isnan(result.variable_paths[:, 1]))
        np.testing.assert_array_equal(result.param_paths[:, [0, 2]], clean.param_paths[:, [0, 2]])
        np.testing.assert_array_equal(result.variable_paths[:, [0, 2]],
                                      clean.variable_paths[:, [0, 2]])


def scored_result(predicted, errors=None):
    """A ForecastResult with variable paths ``predicted`` (h, width) over
    columns c0, c1, ... and the failed columns ``errors``."""
    h, width = predicted.shape
    return ForecastResult(tuple(f"c{i}" for i in range(width)),
                          tuple(f"2001-{s + 1:02d}" for s in range(h)),
                          np.zeros((h, width, 2)), predicted, errors or {})


class TestMSE:
    def test_hand_checked(self):
        scores = mse_per_series(scored_result(np.array([[1.0], [3.0]])), [[1.0], [2.0]])
        assert scores == {"c0": pytest.approx(0.5)}

    def test_identical_is_zero(self, rng):
        v = rng.standard_normal((10, 2))
        assert mse_per_series(scored_result(v), v) == {"c0": 0.0, "c1": 0.0}

    def test_permutation_covariant(self, rng):
        a = rng.standard_normal((30, 1))
        p = rng.standard_normal((30, 1))
        perm = rng.permutation(30)
        assert mse_per_series(scored_result(p), a)["c0"] == pytest.approx(
            mse_per_series(scored_result(p[perm]), a[perm])["c0"], rel=1e-12)

    @pytest.mark.parametrize("h", [3, 8, 17])
    def test_each_value_is_its_columns_mean_bit_for_bit(self, rng, h):
        # each column's mean on its own 1-D run: from 8 elements up numpy sums
        # that pairwise, which an axis-0 mean over the block does not
        a = rng.standard_normal((h, 4)) * 1e3
        p = rng.standard_normal((h, 4)) * 1e3
        scores = mse_per_series(scored_result(p), a)
        for i in range(4):
            column = np.ascontiguousarray((a[:, i] - p[:, i]) ** 2)
            assert scores[f"c{i}"] == float(np.mean(column))

    def test_failed_columns_are_absent(self, rng):
        p = rng.standard_normal((3, 3))
        p[:, 1] = np.nan
        scores = mse_per_series(scored_result(p, {"c1": "failed"}), np.zeros((3, 3)))
        assert list(scores) == ["c0", "c2"]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match=r"^actuals shape \(2, 2\) != \(3, 2\)$"):
            mse_per_series(scored_result(np.zeros((3, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(3, 1), (3, 3), (6,)])
    def test_shape_mismatch(self, shape):
        with pytest.raises(ValidationError, match=r"^actuals shape .* != \(3, 2\)$"):
            mse_per_series(scored_result(np.zeros((3, 2))), np.zeros(shape))


class TestSelectModel:
    def test_reported_comparison_table(self):
        scores = {"constant": 0.0446, "var1": 0.0119, "lasso": 0.0039}
        assert select_model(scores) == "lasso"

    def test_single_entry(self):
        assert select_model({"var1": 1.0}) == "var1"

    def test_tie_break_fixed_order(self):
        assert select_model({"lasso": 0.5, "constant": 0.5}) == "constant"
        assert select_model({"lasso": 0.5, "var1": 0.5}) == "var1"

    def test_rescaling_invariance(self, rng):
        scores = {"constant": 0.3, "var1": 0.11, "lasso": 0.27}
        scaled = {k: 7.3 * v for k, v in scores.items()}
        assert select_model(scores) == select_model(scaled)

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            select_model({"lasso": float("nan")})

    def test_no_scores_rejected(self):
        with pytest.raises(ValidationError, match="^no model scores to select from$"):
            select_model({})


def test_report_files_round_trip(tmp_path, rng):
    t_len, h = 40, 3
    values = rng.standard_normal((t_len, 2))
    panel = make_panel(values[:-h], ["A"], ["x", "y"])
    base = np.tile([0.1, 0.4], (t_len - h - 1, 1))
    theta_a = base + 0.05 * rng.standard_normal(base.shape)
    theta_b = base + 0.05 * rng.standard_normal(base.shape)
    tvp_result = trajectories_from_paths([theta_a, theta_b])
    results = {kind: two_stage_forecast(panel, tvp_result,
                                        ForecasterConfig(kind=kind, horizon=h))
               for kind in ("constant", "var1")}
    scores = {kind: mse_per_series(result, values[-h:]) for kind, result in results.items()}
    pooled = pooled_mse(scores, panel)
    write_mse_report(scores, pooled, tmp_path / "mse.csv")
    table = read_mse_report(tmp_path / "mse.csv")
    assert set(table) == {"constant", "var1"}
    assert table["constant"]["ALL"] == pytest.approx(pooled["constant"])
    assert table["constant"]["A.x"] == scores["constant"]["A.x"]

    write_param_paths(results, tmp_path / "params.csv")
    write_variable_paths(results, tmp_path / "vars.csv", actuals=values[-h:])
    variables = read_variable_paths(tmp_path / "vars.csv")
    key = ("constant", results["constant"].future_dates[0], "A.x")
    actual, predicted = variables[key]
    assert actual == values[-h:][0, 0]
    assert predicted == results["constant"].variable_paths[0, 0]
